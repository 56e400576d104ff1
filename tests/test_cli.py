import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heightzeta.cli import _HANDLERS, build_parser, main


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_count_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["count", "--model", "E1", "--S", "inf", "--B", "10", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    j1 = json.loads(_read(out1 / "count_E1.json"))
    assert j1["rows"][0]["N"] == 21
    # artifacts are byte-identical across runs (and thread counts)
    assert _read(out1 / "count_E1.json") == _read(out2 / "count_E1.json")
    assert _read(out1 / "count_E1.csv") == _read(out2 / "count_E1.csv")
    out3 = tmp_path / "c"
    assert main(args[:-1] + ["--threads", "4", "--out", str(out3)]) == 0
    assert _read(out1 / "count_E1.json") == _read(out3 / "count_E1.json")


def test_shorter_artifact_overwrites_longer(tmp_path):
    # artifacts are rewritten in place and cut to their new length
    base = ["count", "--model", "E1", "--S", "inf"]
    assert main([*base, "--B-grid", "10,100,1000,10000", "--out", str(tmp_path / "a")]) == 0
    long_json = _read(tmp_path / "a" / "count_E1.json")
    assert main([*base, "--B", "10", "--out", str(tmp_path / "a")]) == 0
    assert main([*base, "--B", "10", "--out", str(tmp_path / "fresh")]) == 0
    for name in ("count_E1.json", "count_E1.csv"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "fresh" / name)
    assert len(_read(tmp_path / "a" / "count_E1.json")) < len(long_json)


def test_exact_B(tmp_path):
    # B is read as an exact rational: 1e23 as a float is 99999999999999991611392
    for B, N, B_float in (("1e23", 2 * 10**23 + 1, 1e23), ("7/2", 7, 3.5)):
        assert main(["count", "--model", "E1", "--S", "inf", "--B", B, "--out", str(tmp_path)]) == 0
        row = json.loads(_read(tmp_path / "count_E1.json"))["rows"][0]
        assert (row["N"], row["B"]) == (N, B_float)


def test_shared_parser_keeps_no_state(tmp_path):
    # the parser is built once per process; a flag of one call must not
    # reach the next
    args = ["density", "--model", "E4", "--place", "3", "--s", "1.5"]
    assert main([*args, "--no-restrict", "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    fresh = tmp_path / "fresh"
    assert main([*args, "--out", str(fresh)]) == 0
    assert _read(tmp_path / "b" / "density_E4.json") == _read(fresh / "density_E4.json")
    assert _read(tmp_path / "a" / "density_E4.json") != _read(fresh / "density_E4.json")
    # options may also come before the command
    assert main([*args[1:], "--out", str(tmp_path / "c"), "density"]) == 0
    assert _read(tmp_path / "c" / "density_E4.json") == _read(fresh / "density_E4.json")


def test_parser_commands_and_help(capsys):
    for argv in (["nope"], [], ["--model", "E1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all(name in usage for name in _HANDLERS)
    assert build_parser() is build_parser()


def test_every_command_takes_every_option():
    options = [
        "--config", "c.cfg", "--model", "E2", "--S", "inf,5", "--B", "7/2", "--B-grid", "10,1e2",
        "--s", "1.5", "--a-grid", "8,64", "--place", "3", "--d", "2", "--phi", "units", "--A", "9",
        "--b", "2", "--prime-cutoff", "50", "--threads", "2", "--out", "o", "--no-restrict",
    ]
    for name in _HANDLERS:
        args = build_parser().parse_args([name, *options])
        assert args.command == name
        assert (args.config, args.model, args.S, args.B, args.B_grid) == ("c.cfg", "E2", "inf,5", "7/2", "10,1e2")
        assert (args.s, args.a_grid, args.place, args.d, args.phi, args.A) == (1.5, "8,64", "3", 2, "units", 9)
        assert (args.b, args.prime_cutoff, args.threads, args.out, args.restrict) == (2, 50, 2, "o", False)


def test_theta_json(tmp_path):
    assert main(["theta", "--model", "E5", "--S", "inf", "--prime-cutoff", "500", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "theta_E5.json"))
    assert d["b"] == 2
    assert abs(d["theta"] - 4.0) < 0.05


def test_S_any_prime_and_real_alias(tmp_path):
    # S may hold any prime, and "real", "inf" and "oo" name one place
    for cmd in (["theta", "--model", "E5"], ["count", "--model", "E1", "--B-grid", "1e2,1e4"]):
        outs = {}
        for S in ("inf,5", "real,5", "oo,5"):
            outs[S] = tmp_path / f"{cmd[0]}_{S}"
            assert main([*cmd, "--S", S, "--out", str(outs[S])]) == 0, (cmd, S)
        names = sorted(p.name for p in outs["inf,5"].iterdir())
        for S in ("real,5", "oo,5"):
            assert sorted(p.name for p in outs[S].iterdir()) == names
            assert all(_read(outs[S] / n) == _read(outs["inf,5"] / n) for n in names), (cmd, S)
    assert main(["theta", "--model", "E5", "--S", "inf,13", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "theta_E5.json"))
    assert (d["S"], d["b"]) == (["real", "Q_13"], 4)
    assert main(["count", "--model", "E1", "--S", "real,13", "--B", "100", "--out", str(tmp_path)]) == 0
    # x = m with |m| <= 100, or m/13 with 13 not dividing m and |m| <= 100
    assert json.loads(_read(tmp_path / "count_E1.json"))["rows"][0]["N"] == 201 + sum(1 for m in range(-100, 101) if m % 13)


def test_clemens_json(tmp_path):
    assert main(["clemens", "--model", "E5", "--place", "real", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "clemens_E5.json"))
    assert sorted(map(tuple, d["faces"])) == [("Dx",), ("Dx", "Dy"), ("Dy",)]
    assert d["dimension"] == 1


def test_zeta_local(tmp_path):
    assert main(["zeta-local", "--place", "real", "--s", "2", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "zeta_local.json"))
    assert d["zeta"] == [1.0, 0.0]


def test_osc_command(tmp_path):
    rc = main(
        ["osc", "--place", "2", "--phi", "zp", "--d", "2", "--s", "1",
         "--a-grid", "8,64,512", "--out", str(tmp_path)]
    )
    assert rc == 0
    d = json.loads(_read(tmp_path / "osc_decay.json"))
    assert d["fitted_exponent"] >= 0.45
    assert (tmp_path / "osc_decay.csv").exists()


def _strict_json(path):
    """The artifact parsed as RFC 8259 JSON, which has no Infinity or NaN."""

    def refuse(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(_read(path), parse_constant=refuse)


def test_non_finite_values_are_null(tmp_path):
    # the right side of A = 3 has no tail estimate, and one |a| fits no
    # exponent: the library reports inf, the artifact null
    assert main(["poisson", "--model", "E1", "--s", "3", "--A", "3", "--out", str(tmp_path)]) == 0
    assert _strict_json(tmp_path / "poisson_E1.json")["rhs_tail"] is None
    assert main(["osc", "--place", "real", "--a-grid", "10", "--out", str(tmp_path)]) == 0
    assert _strict_json(tmp_path / "osc_decay.json")["fitted_exponent"] is None


def test_describe_and_density(tmp_path):
    assert main(["describe", "--model", "E4", "--out", str(tmp_path)]) == 0
    assert main(["density", "--model", "E4", "--place", "3", "--s", "1.5", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "density_E4.json"))
    assert d["exactness"] == "exact"


def test_equi_command(tmp_path):
    assert main(["equi", "--model", "E3", "--S", "inf", "--B", "10000", "--out", str(tmp_path)]) == 0
    d = json.loads(_read(tmp_path / "equi_E3.json"))
    assert len(d["rows"]) == 4


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("model=E1\nB=10\nS=inf\n")
    out = tmp_path / "o"
    assert main(["count", "--config", str(cfgfile), "--out", str(out)]) == 0
    d = json.loads(_read(out / "count_E1.json"))
    assert d["rows"][0]["N"] == 21
    # a flag beats the file
    assert main(["count", "--config", str(cfgfile), "--B", "100", "--out", str(out)]) == 0
    d = json.loads(_read(out / "count_E1.json"))
    assert d["rows"][0]["N"] == 201


def test_error_exit_codes(tmp_path):
    assert main(["count", "--model", "NOPE", "--S", "inf", "--B", "10", "--out", str(tmp_path)]) == 2
    assert main(["count", "--model", "E1", "--S", "5", "--B", "10", "--out", str(tmp_path)]) == 2
    assert main(["count", "--model", "E5", "--S", "inf", "--B", "1e12", "--out", str(tmp_path)]) == 3
    assert main(["poisson", "--model", "E1", "--s", "0.5", "--A", "5", "--out", str(tmp_path)]) == 2
    # S is a set of places, and "inf" and "real" name the same one
    for argv in (
        ["count", "--model", "E1", "--S", "inf,5,5", "--B", "1000"],
        ["theta", "--model", "E1", "--S", "inf,5,5"],
        ["theta", "--model", "E1", "--S", "inf,inf"],
        ["theta", "--model", "E1", "--S", "inf,real"],
        # a place that is not a prime or a name, and the complex place,
        # which Q does not have, whether in S or as --place of a model
        ["theta", "--model", "E1", "--S", "inf,x"],
        ["theta", "--model", "E1", "--S", "inf,4"],
        ["theta", "--model", "E1", "--S", "inf,complex"],
        ["density", "--model", "E3", "--place", "complex", "--s", "2"],
        ["density", "--model", "E3", "--place", "C", "--s", "2"],
        ["clemens", "--model", "E5", "--place", "complex"],
        ["clemens", "--model", "E5", "--place", "C"],
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 2, argv
    # a non-finite B is a config error, not a traceback or a numeric failure,
    # and so are a B of 2**1024 or more written as p/q, a zero denominator
    # and an exponent that would expand to a huge integer
    for flag in (
        ["--B", "inf"], ["--B", "1e400"], ["--B", "nan"], ["--B-grid", "10,1e400"],
        ["--B", f"{2**1024}/1"], ["--B", "7/0"], ["--B", "1e-999999999"],
    ):
        assert main(["count", "--model", "E1", "--S", "inf", *flag, "--out", str(tmp_path)]) == 2, flag
    # so are a negative prime cutoff, a negative A, a B-grid value below 1
    # and a B-grid with a decreasing step
    for argv in (
        ["theta", "--model", "E1", "--prime-cutoff", "-1"],
        ["poisson", "--model", "E1", "--s", "3", "--A", "-3"],
        ["fit", "--model", "E1", "--S", "inf", "--B-grid", "0.5,2,3,4,5"],
        ["count", "--model", "E1", "--S", "inf", "--B-grid", "100,10"],
        ["fit", "--model", "E1", "--S", "inf", "--B-grid", "100,10,1000,20,30"],
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 2, argv
    # and so are a place that is not a prime, a malformed test function and
    # a config value that is not a number
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("model=E1\nB=ten\nS=inf\n")
    for argv in (
        ["density", "--model", "E1", "--place", "4"],
        ["density", "--model", "E1", "--place", "9"],
        ["density", "--model", "E1", "--place", "foo"],
        ["osc", "--phi", "bump:x:1"],
        ["osc", "--phi", "bump:1"],
        ["osc", "--place", "3", "--phi", "coset:1/0:2"],
        ["count", "--config", str(cfgfile)],
        # a bump of radius <= 0, a coset wider than its support, d < 1 and
        # an |a| that is not finite and positive
        ["osc", "--phi", "bump:0:-1"],
        ["osc", "--phi", "bump:0:0"],
        ["osc", "--place", "complex", "--phi", "bump:0:-1"],
        ["osc", "--place", "complex", "--phi", "bump:0:0"],
        ["osc", "--place", "3", "--phi", "coset:1/9:-5"],
        ["osc", "--d", "0"],
        ["osc", "--d", "-2"],
        ["osc", "--place", "real", "--a-grid", "nan,10,100"],
        ["osc", "--place", "real", "--a-grid", "0,10,100"],
        # an s that is not finite, a log power b below 1, and a prime cutoff
        # that leaves the Euler product empty
        ["osc", "--place", "real", "--s", "nan"],
        ["zeta-local", "--place", "real", "--s", "inf"],
        ["poisson", "--model", "E2", "--s", "nan"],
        ["fit", "--model", "E1", "--S", "inf", "--B-grid", "10,20,30,40,50", "--b", "0"],
        ["theta", "--model", "E4", "--prime-cutoff", "1"],
        ["theta", "--model", "E6", "--prime-cutoff", "0"],
        ["theta", "--model", "E4", "--S", "inf,2,3", "--prime-cutoff", "3"],
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 2, argv
    # a density whose integral diverges (Re(2 s) <= 1 for E2) and a fit whose
    # curve does not follow the data are numeric failures
    for argv in (
        ["density", "--model", "E2", "--place", "real", "--s", "0.4"],
        ["fit", "--model", "E1", "--S", "inf", "--B-grid", "10,20,30,40,50", "--b", "40"],
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 4, argv


def test_cli_import_loads_no_scipy():
    """The quadrature and special functions import scipy when they run, so a
    command that needs neither (describe, clemens, count) never loads it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, heightzeta.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

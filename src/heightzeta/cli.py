"""Command-line front end.

Subcommands: zeta-local, osc, clemens, density, theta, count, fit,
poisson, equi, describe.  Each writes a JSON artifact (and CSV where the
result is tabular) under --out and prints a one-line summary; identical
configuration produces byte-identical outputs.

Configuration may come from a flat key=value file (--config); command-line
flags win over file values.  Exit codes: 0 ok, 2 config error, 3 budget
exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import census, density, oscillatory
from .boundary import clemens_complex, exponent_b
from .catalog import get_model, places_from_spec
from .errors import ConfigError, HeightZetaError
from .localfield import BumpFunction, Place, RadialBump, StepFunction


@dataclass
class ExperimentConfig:
    command: str
    model: str = "E1"
    S: tuple = ("inf",)
    B: float | None = None
    B_grid: tuple = ()
    s: float = 2.0
    a_grid: tuple = ()
    place: str = "real"
    d: int = 1
    phi: str = "zp"
    A: int = 100
    b: int | None = None
    prime_cutoff: int = 10_000
    threads: int = 1
    out: str = "."
    restrict: bool = True

    def validate(self):
        if not self.S or "inf" not in tuple(str(x) for x in self.S):
            raise ConfigError("S must contain the real place ('inf')")
        Bs = (*self.B_grid, *(() if self.B is None else (self.B,)))
        if not all(math.isfinite(B) for B in Bs):
            raise ConfigError(f"B must be finite: {', '.join(map(str, Bs))}")
        if any(B < 1 for B in Bs):
            raise ConfigError("B must be >= 1")
        if self.prime_cutoff < 0:
            raise ConfigError("prime cutoff must be >= 0")
        if self.A < 0:
            raise ConfigError("A must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if not all(math.isfinite(a) and a > 0 for a in self.a_grid):
            raise ConfigError(f"a-grid values are |a| and must be finite and > 0: {', '.join(map(str, self.a_grid))}")


def _parse_place(text: str) -> Place:
    if text in ("real", "inf", "oo"):
        return Place.real()
    if text in ("complex", "C"):
        return Place.complex_()
    try:
        return Place.finite(int(text))
    except ValueError:
        raise ConfigError(f"unknown place {text!r}: use real, complex or a prime") from None


def _parse_phi(spec: str, place: Place):
    if place.is_finite:
        p = place.prime
        if spec == "zp":
            return StepFunction.indicator_zp(p)
        if spec == "units":
            return StepFunction.indicator_units(p)
        if spec.startswith("coset:"):
            c, n = _phi_args(spec, "coset:<center>:<n>", Fraction, int)
            try:
                return StepFunction.indicator_coset(p, c, n)
            except ValueError as exc:
                raise ConfigError(f"bad test function {spec!r}: {exc}") from None
        raise ConfigError(f"unknown p-adic test function {spec!r}")
    if spec in ("zp", "bump"):
        bump = BumpFunction.standard()
    elif spec.startswith("bump:"):
        center, radius = _phi_args(spec, "bump:<center>:<radius>", float, float)
        if not (math.isfinite(center) and 0.0 < radius < math.inf):
            raise ConfigError(f"bad test function {spec!r}: need a finite center and a radius in (0, inf)")
        bump = BumpFunction.standard(center, radius)
    else:
        raise ConfigError(f"unknown archimedean test function {spec!r}")
    return RadialBump(bump) if place.kind == "complex" else bump


def _phi_args(spec: str, form: str, *types) -> list:
    """The ':'-separated fields of a test-function spec after its name,
    converted by ``types``."""
    fields = spec.split(":")[1:]
    try:
        if len(fields) == len(types):
            return [t(x) for t, x in zip(types, fields)]
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"bad test function {spec!r}: use {form}")


def _write_json(cfg: ExperimentConfig, name: str, payload) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_csv(cfg: ExperimentConfig, name: str, header, rows) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_zeta_local(cfg: ExperimentConfig):
    from .localfield import residue_c, zeta_local

    place = _parse_place(cfg.place)
    val = zeta_local(place, cfg.s)
    payload = {
        "place": str(place),
        "s": cfg.s,
        "zeta": [complex(val).real, complex(val).imag],
        "residue_c": residue_c(place),
    }
    _write_json(cfg, "zeta_local.json", payload)
    print(f"zeta_{place}({cfg.s}) = {val}")
    return payload


def _run_osc(cfg: ExperimentConfig):
    place = _parse_place(cfg.place)
    phi = _parse_phi(cfg.phi, place)
    grid = list(cfg.a_grid) or [10.0**k for k in range(1, 7)]
    rep = oscillatory.decay_report(place, phi, cfg.d, cfg.s, grid)
    os.makedirs(cfg.out, exist_ok=True)
    rep.to_csv(os.path.join(cfg.out, "osc_decay.csv"))
    payload = {
        "place": str(place),
        "d": cfg.d,
        "s": cfg.s,
        "kappa": rep.kappa,
        "fitted_C": rep.fitted_C,
        "fitted_exponent": rep.fitted_exponent,
    }
    _write_json(cfg, "osc_decay.json", payload)
    print(
        f"decay at {place}: kappa={rep.kappa:.3f}, fitted exponent="
        f"{rep.fitted_exponent:.3f}, C={rep.fitted_C:.3g}"
    )
    return payload


def _run_clemens(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    place = _parse_place(cfg.place)
    cc = clemens_complex(model, place, cfg.restrict)
    payload = {
        "model": model.id,
        "place": str(place),
        "vertices": list(cc.vertices),
        "faces": [sorted(A) for A in cc.faces()],
        "dimension": cc.dimension,
    }
    _write_json(cfg, f"clemens_{model.id}.json", payload)
    print(f"{model.id} at {place}: faces {payload['faces']} (dim {cc.dimension})")
    return payload


def _run_density(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    place = _parse_place(cfg.place)
    if place.is_finite:
        val = density.denef_density(model, place.prime, cfg.s, restrict=cfg.restrict)
    else:
        val = density.arch_density(model, 0, cfg.s)
    # both are closed forms: the stratum-count formula and, per block, the
    # archimedean transform at a = 0
    payload = {
        "model": model.id,
        "place": str(place),
        "s": cfg.s,
        "value": [val.real, val.imag],
        "exactness": "exact",
        "tail_bound": 0.0,
    }
    _write_json(cfg, f"density_{model.id}.json", payload)
    print(f"H^_{place}(0; {cfg.s}*lambda) = {val:.12g} [{model.id}]")
    return payload


def _run_theta(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    S = places_from_spec(cfg.S)
    res = density.theta_constant(model, S, prime_cutoff=cfg.prime_cutoff)
    payload = {
        "model": model.id,
        "S": list(res.S),
        "theta": res.theta,
        "b": res.b,
        "euler_tail": res.euler_tail,
    }
    _write_json(cfg, f"theta_{model.id}.json", payload)
    print(f"theta({model.id}, S={list(res.S)}) = {res.theta:.6g}, b = {res.b}")
    return payload


def _count_grid(cfg: ExperimentConfig):
    if cfg.B_grid:
        return list(cfg.B_grid)
    if cfg.B is not None:
        return [cfg.B]
    raise ConfigError("count/fit need --B or --B-grid")


def _run_count(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    S = places_from_spec(cfg.S)
    table = census.count_table(model, S, _count_grid(cfg), threads=cfg.threads)
    # wall clock goes to the console only, so that artifacts are
    # byte-identical across runs of the same configuration
    rows = [(r["B"], r["N"], r["V"]) for r in table.rows]
    _write_csv(cfg, f"count_{model.id}.csv", ["B", "N", "V"], rows)
    payload = {
        "model": model.id,
        "S": list(table.S),
        "rows": [{"B": b, "N": n, "V": v} for b, n, v in rows],
    }
    _write_json(cfg, f"count_{model.id}.json", payload)
    for r in table.rows:
        print(f"N({r['B']:g}) = {r['N']}   V = {r['V']:.6g}   [{r['seconds']:.2f}s]")
    return payload


def _run_fit(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    S = places_from_spec(cfg.S)
    table = census.count_table(model, S, _count_grid(cfg), threads=cfg.threads)
    b = cfg.b if cfg.b is not None else exponent_b(model, S)
    fit = census.fit_asymptotic(table, b)
    rows = []
    for r in table.rows:
        t = math.log(r["B"])
        scaled = r["N"] / (r["B"] * t ** (b - 1))
        fitted = fit.theta_hat * t ** (b - 1) + (fit.secondary or 0.0) * t ** (b - 2)
        rows.append((r["B"], r["N"], r["V"], scaled, fitted * r["B"]))
    _write_csv(cfg, f"fit_{model.id}.csv", ["B", "N", "V", "N_over_B_logpow", "fit"], rows)
    payload = {
        "model": model.id,
        "S": list(table.S),
        "b": fit.b,
        "theta_hat": fit.theta_hat,
        "secondary": fit.secondary,
        "residual_rms": fit.residual_rms,
        "half_width": fit.half_width,
    }
    _write_json(cfg, f"fit_{model.id}.json", payload)
    print(f"fit({model.id}, b={b}): theta_hat = {fit.theta_hat:.6g} (rms {fit.residual_rms:.2g})")
    return payload


def _run_poisson(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    chk = census.poisson_crosscheck(model, cfg.s, cfg.A)
    payload = dataclasses.asdict(chk)
    payload["model"] = model.id
    _write_json(cfg, f"poisson_{model.id}.json", payload)
    print(
        f"poisson({model.id}, s={cfg.s}, A={cfg.A}): lhs={chk.lhs:.8g} rhs={chk.rhs:.8g} "
        f"gap={chk.gap:.3g}"
    )
    return payload


def _run_equi(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    S = places_from_spec(cfg.S)
    if cfg.B is None:
        raise ConfigError("equi needs --B")
    rows = census.equidistribution_test(model, S, cfg.B, threads=cfg.threads)
    payload = {"model": model.id, "B": cfg.B, "rows": rows}
    _write_json(cfg, f"equi_{model.id}.json", payload)
    for r in rows:
        print(f"{r['region']}: empirical {r['empirical']:.4f} vs predicted {r['predicted']:.4f}")
    return payload


def _run_describe(cfg: ExperimentConfig):
    model = get_model(cfg.model)
    payload = model.describe()
    _write_json(cfg, f"model_{model.id}.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return payload


_HANDLERS = {
    "zeta-local": _run_zeta_local,
    "osc": _run_osc,
    "clemens": _run_clemens,
    "density": _run_density,
    "theta": _run_theta,
    "count": _run_count,
    "fit": _run_fit,
    "poisson": _run_poisson,
    "equi": _run_equi,
    "describe": _run_describe,
}


def run(cfg: ExperimentConfig):
    cfg.validate()
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return handler(cfg)


# ---------------------------------------------------------------------------
# argument parsing


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line: {line!r}")
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return out


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heightzeta", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--model", default=None)
        sp.add_argument("--S", default=None, help="comma list, e.g. inf,5")
        sp.add_argument("--B", type=float, default=None)
        sp.add_argument("--B-grid", dest="B_grid", default=None, help="comma list of B values")
        sp.add_argument("--s", type=float, default=None)
        sp.add_argument("--a-grid", dest="a_grid", default=None)
        sp.add_argument("--place", default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--phi", default=None)
        sp.add_argument("--A", type=int, default=None)
        sp.add_argument("--b", type=int, default=None)
        sp.add_argument("--prime-cutoff", dest="prime_cutoff", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--no-restrict", dest="restrict", action="store_false", default=None)
    return ap


def config_from_args(args) -> ExperimentConfig:
    base: dict = {}
    if getattr(args, "config", None):
        base.update(_read_config_file(args.config))
    cfg = ExperimentConfig(command=args.command)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "command":
            continue
        val = getattr(args, f.name, None)
        if val is None and f.name in base:
            val = base[f.name]
        if val is None:
            continue
        try:
            if f.name in ("S",):
                val = tuple(str(val).split(",")) if isinstance(val, str) else tuple(val)
            elif f.name in ("B_grid", "a_grid") and isinstance(val, str):
                val = _floats(val)
            elif f.name in ("B", "s"):
                val = float(val)
            elif f.name in ("d", "A", "b", "prime_cutoff", "threads"):
                val = int(val)
            elif f.name == "restrict":
                val = val if isinstance(val, bool) else str(val).lower() not in ("0", "false", "no")
        except ValueError:
            raise ConfigError(f"bad value for {f.name}: {val!r}") from None
        setattr(cfg, f.name, val)
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        run(cfg)
        return 0
    except HeightZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

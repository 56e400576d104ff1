"""Layered benchmark of heightzeta.

    python3 perfbench/run.py --workload census --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Workloads: ``census`` (exact S = {inf} counts, fits, equidistribution),
``finite`` (Theta, local densities and p-adic integrals in exact
arithmetic, S-integral counts) and ``archimedean`` (real and complex
quadrature).  One process runs the seeded job list back to back (a closed
loop with one client) for passes that fill ``--seconds``, checks every
output against a reference from ``refs.py``, and prints the end-to-end
metrics; ``--trace 1`` adds one traced pass and prints the per-layer
metrics instead.  The last line of standard output is one JSON object.
Artifacts, spans and run records go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_PROBES = 3
MAX_PASSES = 8
DIGITS_CAP = 15.0  # -log10 of the 1e-15 floor; also reported when a workload has no such values
COUNT_TABLE = HERE / f"counts_seed{DEFAULT_SEED}.json"


def _import_program():
    """Import heightzeta from this checkout's sources (numpy and scipy
    come with it); an installed copy elsewhere does not count."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import heightzeta

    if src not in Path(heightzeta.__file__).resolve().parents:
        raise ImportError(f"heightzeta resolved to {heightzeta.__file__}, not under {src}")


def warm_up(out_dir: str):
    """One small call into each layer."""
    from heightzeta import boundary, catalog, census, cli, density, localfield, oscillatory

    R = localfield.Place.real()
    model = catalog.get_model("E4")
    model.height_base((Fraction(1, 2), 3))
    boundary.exponent_b(model, [R])
    localfield.quad_complex(lambda t: t + 0j, 0.0, 1.0)
    oscillatory.osc_integral_1d(localfield.Place.finite(3), localfield.StepFunction.indicator_zp(3), Fraction(1, 9), 2, 1.0)
    density.denef_density(model, 3, 2.0)
    census.enumerate_points(model, [R], 100)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["describe", "--model", "E1", "--out", out_dir])


def host_speed(n: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    host ran during this run, so runs made in different host speed states
    can be told apart.  It gates nothing."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(n: int) -> float:
    """Median time from a fresh interpreter to the end of warm_up."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes and checks


@dataclass
class Pass:
    wall: float
    outs: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


def run_pass(job_list, tracer=None) -> Pass:
    p = Pass(0.0)
    root = tracer.open("bench.pass") if tracer else None
    t_pass = time.perf_counter()
    for job in job_list:
        t0 = time.perf_counter()
        try:
            p.outs[job.key] = job.call()
        except Exception:  # a failing job is counted, the run goes on
            p.errors[job.key] = traceback.format_exc(limit=3)
        p.latency[job.key] = time.perf_counter() - t0
    p.wall = time.perf_counter() - t_pass
    if tracer:
        tracer.close(root)
    return p


def check_pass(job_list, p: Pass):
    import jobs

    for job in job_list:
        if job.key in p.errors:
            p.checks[job.key] = jobs.Check(False, "raised: " + p.errors[job.key].strip().splitlines()[-1])
        elif isinstance(job.ref, Exception):
            p.checks[job.key] = jobs.Check(False, f"reference failed: {job.ref!r}")
        else:
            try:
                p.checks[job.key] = job.check(p.outs[job.key], job.ref, p.outs)
            except Exception as exc:  # a malformed output fails its check
                p.checks[job.key] = jobs.Check(False, f"check raised {exc!r}")


def prepare_refs(job_list):
    for job in job_list:
        try:
            job.ref = job.reference()
        except Exception as exc:  # an unresolved reference fails its job
            job.ref = exc


def _digits(rels) -> tuple[float, int]:
    rels = [r for r in rels if r is not None]
    if not rels:
        return DIGITS_CAP, 0
    return min(-math.log10(max(r, 10.0**-DIGITS_CAP)) for r in rels), len(rels)


def summarize(job_list, passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics {name: (value, unit)} and a tally of the checks."""
    import numpy as np

    lat = [p.latency[j.key] for p in passes for j in job_list]
    checks = [(j, p.checks[j.key]) for p in passes for j in job_list]
    attempted = len(checks)
    bad = [(j, c) for j, c in checks if not c.ok]
    unexpected = [(j, c) for j, c in bad if not j.known_defect]
    theta, n_theta = _digits(c.theta_rel for _, c in checks)
    route, n_route = _digits(c.route_rel for _, c in checks)
    osc, n_osc = _digits(c.osc_rel for _, c in checks)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_p50_s": (float(np.percentile(lat, 50)), "s"),
        "job_p90_s": (float(np.percentile(lat, 90)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - len(bad)) / attempted, "ratio"),
        "theta_digits": (theta, "digits"),
        "theta_route_digits": (route, "digits"),
        "osc_digits": (osc, "digits"),
    }
    tally = {
        "attempted": attempted,
        "failed": len(unexpected),
        "failed_frac": len(bad) / attempted,
        "samples": {"job_latency": len(lat), "passes": len(passes), "theta": n_theta, "route": n_route, "osc": n_osc},
        "pass_wall_s": [p.wall for p in passes],
        "known_defect_failures": sorted({j.key for j, _ in bad if j.known_defect}),
        "unexpected_failures": {j.key: c.detail for j, c in unexpected},
        "job_latency_s": {j.key: [p.latency[j.key] for p in passes] for j in job_list},
    }
    return metrics, tally


# ---------------------------------------------------------------------------
# run record


def run_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def _print_metrics(metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")


# ---------------------------------------------------------------------------
# one benchmark run


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import jobs
    from spans import Tracer, layer_metrics

    setup_s = measure_setup(SETUP_PROBES)
    cli_dir = str(OUT / "cli")
    os.makedirs(cli_dir, exist_ok=True)
    warm_up(cli_dir)
    table = json.loads(COUNT_TABLE.read_text()) if seed == DEFAULT_SEED else {}
    ctx = jobs.Context(cli_dir, table)
    job_list = jobs.build(ctx, workload, seed)
    prepare_refs(job_list)

    speed_before = host_speed()
    passes = [run_pass(job_list)]
    n = 1 if traced else max(1, min(MAX_PASSES, int(seconds // passes[0].wall)))
    while len(passes) < n:
        passes.append(run_pass(job_list))
    for p in passes:
        check_pass(job_list, p)
    metrics, tally = summarize(job_list, passes, setup_s)

    record = run_record(workload, seed)
    record["host_loop_s"] = [speed_before, host_speed()]
    print(f"heightzeta benchmark: workload={workload} seed={seed} jobs={len(job_list)} passes={len(passes)}")
    print("record: " + json.dumps(record, sort_keys=True))
    print("end-to-end metrics:")
    _print_metrics(metrics)
    print(f"  {'failed_frac':32s} {tally['failed_frac']:.6g} ratio (1 - ok_frac)")
    print("samples: " + json.dumps(tally["samples"], sort_keys=True))
    if tally["known_defect_failures"]:
        print(f"known defects ({len(tally['known_defect_failures'])} jobs): " + json.dumps(jobs.KNOWN_DEFECTS))
    for key, detail in tally["unexpected_failures"].items():
        print(f"FAILED {key}: {detail}")

    out_metrics = metrics
    tag = f"{workload}_seed{seed}_trace{int(traced)}"
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            tp = run_pass(job_list, tracer)
        finally:
            tracer.uninstall()
        check_pass(job_list, tp)
        failed_by_layer: dict[str, int] = {}
        for job in job_list:
            if not tp.checks[job.key].ok:
                failed_by_layer[job.layer] = failed_by_layer.get(job.layer, 0) + 1
        out_metrics = layer_metrics(tracer, failed_by_layer, tp.wall - passes[0].wall)
        tracer.write(str(OUT / f"spans_{tag}.csv"))
        print(f"per-layer metrics (traced pass {tp.wall:.3f} s, {len(tracer.spans)} spans):")
        _print_metrics(out_metrics)
        _, ttally = summarize(job_list, [tp], setup_s)
        tally["attempted"] += ttally["attempted"]
        tally["failed"] += ttally["failed"]

    (OUT / f"record_{tag}.json").write_text(json.dumps(
        {"record": record, "metrics": {k: v for k, (v, _) in metrics.items()}, "tally": tally}, indent=1, sort_keys=True))
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("census", "finite", "archimedean"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's self-test on a tiny job list")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import heightzeta from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        warm_up(str(OUT / "setup"))
        return 0
    if args.smoke:
        import smoke

        return smoke.main(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark on a tiny job list (``run.py --smoke``).

Asserts that every metric named in BENCHMARK.json comes out with its
unit, that traced self times are non-negative and add up to the traced
wall time, that tracing leaves nothing patched behind, and that a
deliberately wrong reference lowers ok_frac (raises failed_frac).
"""

from __future__ import annotations

import json

import jobs
import run
from spans import Tracer, layer_metrics

# cheap jobs from every workload, including one known-defect pair
PICK = (
    "count/E1/", "count/E3/inf/B=1", "fit/E1", "equi/E3",
    "theta/E1/inf/P=10000", "theta_factored/E1/inf/P=10000",
    "theta/E1/inf,2,3/P=10000", "theta_factored/E1/inf,2,3/P=10000",
    "denef/", "oracle/", "coset/", "fourier_finite/",
    "tate/", "fourier/real", "arch_density/E1", "poisson/E1",
)


def _units(spec_list) -> dict:
    return {m["name"]: m["unit"] for m in spec_list}


def main(seed: int) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out_dir = run.OUT / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = jobs.Context(str(out_dir), {})
    picked = []
    for wl in jobs.WORKLOADS:
        for prefix in PICK:
            picked += [j for j in jobs.build(ctx, wl, seed) if j.key.startswith(prefix)][:2]
    run.prepare_refs(picked)

    p = run.run_pass(picked)
    run.check_pass(picked, p)
    metrics, tally = run.summarize(picked, [p], run.measure_setup(1))
    assert {k: u for k, (_, u) in metrics.items()} == _units(spec["end_to_end"]), "end-to-end names or units"
    assert tally["failed"] == 0, tally["unexpected_failures"]
    assert tally["known_defect_failures"], "the (b-1)! pair should fail its check"
    print(f"smoke: {len(picked)} jobs, end-to-end metrics and units match BENCHMARK.json")

    import heightzeta.census as census

    original = census.enumerate_points
    tracer = Tracer()
    tracer.install()
    try:
        tp = run.run_pass(picked, tracer)
    finally:
        tracer.uninstall()
    assert census.enumerate_points is original, "tracing left a wrapper behind"
    run.check_pass(picked, tp)
    per_layer = layer_metrics(tracer, {}, 0.0)
    assert {k: u for k, (_, u) in per_layer.items()} == _units(spec["per_layer"]), "per-layer names or units"
    own = tracer.self_times()
    root = tracer.spans[0]
    assert root[0] == "bench.pass" and min(own) >= -1e-9, "negative self time"
    assert abs(sum(own) - (root[2] - root[1])) <= 1e-9 * len(own), "self times do not add up to the traced pass"
    assert abs((root[2] - root[1]) - tp.wall) <= 1e-3 + 1e-3 * tp.wall, "traced pass wall time"
    print(f"smoke: {len(tracer.spans)} spans, self times >= 0 and sum to {sum(own):.4f} s (pass {tp.wall:.4f} s)")

    victim = next(j for j in picked if j.key.startswith("count/"))
    n, v = victim.ref
    victim.ref = (n + 1, v)
    run.check_pass(picked, p)
    wrong, _ = run.summarize(picked, [p], 1.0)
    assert wrong["ok_frac"][0] < metrics["ok_frac"][0], "a wrong reference must lower ok_frac"
    print(f"smoke: wrong reference for {victim.key} lowers ok_frac "
          f"{metrics['ok_frac'][0]:.4f} -> {wrong['ok_frac'][0]:.4f}")
    print("smoke ok")
    return 0

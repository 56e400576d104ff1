"""Seeded job lists of the three workloads, each job with its reference
and its check.

A job is one unit of work a user would request as one command.  Jobs the
CLI exposes run through ``heightzeta.cli.main`` in-process and are read
back from their artifacts; the others call the public library function.
The seed only jitters inputs (B values, s values, characters, |a| grids);
the shape of each list is the same for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import refs

MODELS = ("E1", "E2", "E3", "E4", "E5", "E6")
S_SETS = ((), (5,), (2, 3))
PRIME_CUTOFFS = (10_000, 30_000)  # the CLI default and one larger cutoff
# top of each S = {inf} count grid in half-decades (E2 1e10, E4 3e6,
# E5 1e7, E6 1e12); the E2 and E4 tops take about a second each on a
# 2-vCPU Xeon at 2.1 GHz
GRID_TOP = {"E1": 24, "E2": 20, "E3": 24, "E4": 13, "E5": 14, "E6": 24}
# criterion-6 tolerances on Theta for S = {inf}; 1% elsewhere
THETA_TOL = {"E1": 1e-3, "E3": 5e-3, "E4": 1e-2, "E5": 1e-2, "E2": 1e-2, "E6": 1e-2}
ROUTE_TOL = 1e-2
FIT_TOL = {1: 1e-2, 2: 1e-1}  # by b, as in criterion 6
EXACT_TOL = 1e-12  # finite-place values are exact up to float rounding
QUAD_TOL = 1e-6  # archimedean quadrature, epsrel 1e-9 .. 1e-6
# complex-place values carry no error estimate and their fixed angular
# rules are known to be under-resolved (2.6% at |a| = 1000, 6e-5 for a
# Fourier transform at |a| = 4); the check only guards against gross
# failure, the error itself shows in osc_digits
COMPLEX_TOL = 1e-1

KNOWN_DEFECTS = {
    "theta_factored_b>=3": "theta_factored is off by exactly (b-1)! whenever b >= 3, "
    "so its 1% agreement with the pole route fails for those (model, S)",
    "complex_place_|a|>=100": "complex-place oscillatory integrals are under-resolved "
    "at |a| >= 100 (2.6% at |a| = 1000); measured by osc_digits",
}


@dataclass
class Check:
    ok: bool
    detail: str = ""
    theta_rel: float | None = None  # pole route vs closed form, S = {inf}
    route_rel: float | None = None  # theta_factored vs pole route
    osc_rel: float | None = None  # archimedean value vs independent reference


@dataclass
class Job:
    key: str
    layer: str  # the layer whose output the check judges
    call: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any, dict], Check]
    known_defect: str | None = None
    ref: Any = field(default=None, repr=False)


def _j(rng: random.Random, x: float, frac: float) -> float:
    """x jittered by a factor in [e^-frac, e^frac], rounded to 6 digits."""
    return float(f"{x * math.exp(rng.uniform(-frac, frac)):.6g}")


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _close(got: complex, want: complex, tol: float, **kw) -> Check:
    r = _rel(got, want)
    return Check(r <= tol, f"got {got!r} want {want!r} rel {r:.2e}", **kw)


def _exact(got: complex, want: complex) -> Check:
    err = abs(got - want)
    return Check(err <= EXACT_TOL * max(1.0, abs(want)), f"got {got!r} want {want!r} err {err:.2e}")


def _exact_check(out, ref, _outs) -> Check:
    return _exact(out, ref)


class Context:
    """Handles shared by the jobs of one run."""

    def __init__(self, out_dir: str, count_table: dict):
        import heightzeta
        from heightzeta import catalog, cli

        self.hz = heightzeta
        self.cli = cli
        self.catalog = catalog
        self.out_dir = out_dir
        self.count_table = count_table

    def model(self, mid: str):
        return self.catalog.get_model(mid)

    def places(self, primes) -> list:
        return self.catalog.places_from_spec(["inf", *primes])

    def cli_job(self, argv: list[str], artifact: str) -> Callable[[], str]:
        def call() -> str:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main([*argv, "--out", self.out_dir])
            if rc != 0:
                raise RuntimeError(f"heightzeta {' '.join(argv)} exited with {rc}")
            with open(os.path.join(self.out_dir, artifact)) as fh:
                return fh.read()

        return call


def _s_spec(primes) -> str:
    return ",".join(["inf", *map(str, primes)])


# ---------------------------------------------------------------------------
# counts (census, and the S-integral counts of the finite workload)


def _count_job(ctx: Context, mid: str, primes, B: int, threads: int = 1, brute: bool = False) -> Job:
    key = f"count/{mid}/{_s_spec(primes)}/B={B}/t={threads}"
    argv = ["count", "--model", mid, "--S", _s_spec(primes), "--B", str(B)]
    if threads != 1:
        argv += ["--threads", str(threads)]

    def reference():
        N = refs.brute_count(ctx.model(mid), list(primes), B) if brute else refs.count_S(mid, list(primes), B)
        return N, refs.volume(mid, list(primes), B)

    def check(out, ref, _outs):
        row = json.loads(out)["rows"][0]
        N, V = ref
        table = ctx.count_table.get(f"{mid}/{_s_spec(primes)}/{B}")
        if row["N"] != N or (table is not None and table != N):
            return Check(False, f"N = {row['N']}, reference {N}, table {table}")
        return _close(row["V"], V, 1e-9)

    return Job(key, "census", ctx.cli_job(argv, f"count_{mid}.json"), reference, check)


def _fit_job(ctx: Context, mid: str, grid: list[int]) -> Job:
    argv = ["fit", "--model", mid, "--S", "inf", "--B-grid", ",".join(map(str, grid))]
    theta, b = refs.theta_closed(mid, [])

    def reference():
        import numpy as np

        Bs = np.array(grid, dtype=float)
        y = np.array([refs.count_inf(mid, B) for B in grid], dtype=float) / Bs
        if b == 1:
            return float(np.mean(y[len(y) // 2 :]))
        t = np.log(Bs)
        X = np.column_stack([t ** (b - 1), t ** (b - 2)])
        return float(np.linalg.lstsq(X, y, rcond=None)[0][0])

    def check(out, ref, _outs):
        got = json.loads(out)["theta_hat"]
        if _rel(got, ref) > 1e-9:
            return Check(False, f"theta_hat {got} vs least squares on exact counts {ref}")
        return _close(got, theta, FIT_TOL[b])

    return Job(f"fit/{mid}", "census", ctx.cli_job(argv, f"fit_{mid}.json"), reference, check)


def _equi_job(ctx: Context, mid: str, B: int) -> Job:
    argv = ["equi", "--model", mid, "--S", "inf", "--B", str(B)]
    tol = {"E3": 0.01, "E5": 0.02}[mid]  # criterion 9

    def check(out, ref, _outs):
        rows = json.loads(out)["rows"]
        for r in rows:
            if abs(r["empirical"] - r["predicted"]) > tol:
                return Check(False, f"{r['region']}: {r['empirical']} vs {r['predicted']}")
        return Check(rows[0]["count"] == ref, f"count {rows[0]['count']} vs {ref}")

    return Job(f"equi/{mid}/B={B}", "census", ctx.cli_job(argv, f"equi_{mid}.json"), lambda: refs.region_count(mid, B), check)


def census_jobs(ctx: Context, rng: random.Random) -> list[Job]:
    jobs = []
    for mid in MODELS:
        grid = [round(_j(rng, 10 ** (k / 2), 0.05)) for k in range(4, GRID_TOP[mid] + 1)]
        jobs += [_count_job(ctx, mid, (), B) for B in grid]
        if mid in ("E2", "E4", "E5"):
            jobs.append(_count_job(ctx, mid, (), grid[-1], threads=2))
        jobs.append(_fit_job(ctx, mid, grid[:-2]))
        small = rng.randint(12, 30) if ctx.model(mid).dim == 1 else rng.randint(4, 7)
        jobs.append(_count_job(ctx, mid, (), small, brute=True))
    for mid in ("E3", "E5"):
        jobs.append(_equi_job(ctx, mid, round(_j(rng, 1e6, 0.05))))
    return jobs


# ---------------------------------------------------------------------------
# finite places


def _theta_job(ctx: Context, mid: str, primes, cutoff: int) -> Job:
    argv = ["theta", "--model", mid, "--S", _s_spec(primes), "--prime-cutoff", str(cutoff)]
    tol = THETA_TOL[mid] if not primes else ROUTE_TOL

    def check(out, ref, _outs):
        res = json.loads(out)
        theta, b = ref
        if res["b"] != b:
            return Check(False, f"b = {res['b']}, expected {b}")
        return _close(res["theta"], theta, tol, theta_rel=None if primes else _rel(res["theta"], theta))

    key = f"theta/{mid}/{_s_spec(primes)}/P={cutoff}"
    return Job(key, "density", ctx.cli_job(argv, f"theta_{mid}.json"), lambda: refs.theta_closed(mid, list(primes)), check)


def _factored_job(ctx: Context, mid: str, primes, cutoff: int) -> Job:
    model, S = ctx.model(mid), ctx.places(primes)
    pole_key = f"theta/{mid}/{_s_spec(primes)}/P={cutoff}"
    closed, b = refs.theta_closed(mid, list(primes))

    def check(out, ref, outs):
        pole = json.loads(outs[pole_key])["theta"]
        route = _rel(out, pole)
        c = _close(out, ref[0], ROUTE_TOL if primes else THETA_TOL[mid])
        c.ok = c.ok and route <= ROUTE_TOL
        c.detail += f"; pole route {pole!r}, route rel {route:.2e}"
        c.route_rel = route if c.ok else None
        return c

    return Job(
        f"theta_factored/{mid}/{_s_spec(primes)}/P={cutoff}",
        "density",
        lambda: ctx.hz.theta_factored(model, S, cutoff),
        lambda: (closed, b),
        check,
        known_defect="theta_factored_b>=3" if b >= 3 else None,
    )


def _density_pair(ctx: Context, mid: str, p: int, s: complex, restrict: bool) -> list[Job]:
    model = ctx.model(mid)
    tag = f"{mid}/p={p}/s={s}/restrict={restrict}"
    ref = lambda: refs.local_density(mid, p, s, restrict=restrict)
    if s.imag == 0:
        argv = ["density", "--model", mid, "--place", str(p), "--s", repr(s.real)]
        argv += [] if restrict else ["--no-restrict"]
        raw = ctx.cli_job(argv, f"density_{mid}.json")
        call = lambda: complex(*json.loads(raw())["value"])
    else:
        call = lambda: ctx.hz.denef_density(model, p, s, restrict=restrict)
    oracle = lambda: ctx.hz.brute_density_oracle(model, p, s, m=3, restrict=restrict)
    return [
        Job(f"denef/{tag}", "density", call, ref, _exact_check),
        Job(f"oracle/{tag}", "density", oracle, ref, _exact_check),
    ]


def _character(rng: random.Random, p: int, valuations: tuple) -> tuple:
    """A character with the given p-adic valuations (None for a zero
    component) and seeded unit parts."""
    units = [u for u in range(1, 3 * p) if u % p]
    return tuple(Fraction(0) if v is None else Fraction(rng.choice(units) * p**v) for v in valuations)


def _padic_decay_job(ctx: Context, p: int, d: int, s: float, grid: list[float], phi: str) -> Job:
    argv = ["osc", "--place", str(p), "--phi", phi, "--d", str(d), "--s", repr(s), "--a-grid", ",".join(map(repr, grid))]

    def reference():
        ks = [max(1, round(math.log(A) / math.log(p))) for A in grid]
        return [refs.padic_osc_1d(p, k, d, s, units_only=phi == "units") for k in ks]

    def check(out, ref, _outs):
        vals = [complex(float(r["re_I"]), float(r["im_I"])) for r in csv.DictReader(io.StringIO(out))]
        bad = [(v, w) for v, w in zip(vals, ref) if not _exact(v, w).ok]
        return Check(len(vals) == len(ref) and not bad, f"mismatches {bad}")

    key = f"osc/Q{p}/{phi}/d={d}/s={s}/a={grid}"
    return Job(key, "oscillatory", ctx.cli_job(argv, "osc_decay.csv"), reference, check)


def finite_jobs(ctx: Context, rng: random.Random) -> list[Job]:
    hz = ctx.hz
    jobs = []
    for cutoff in PRIME_CUTOFFS:
        for mid in MODELS:
            for primes in S_SETS:
                jobs.append(_theta_job(ctx, mid, primes, cutoff))
                if mid in ("E1", "E3", "E4", "E5"):
                    jobs.append(_factored_job(ctx, mid, primes, cutoff))
    for i in range(12):
        mid, p = MODELS[i % 6], (2, 3, 5, 7)[i % 4]
        s = complex(_j(rng, 2.0, 0.2), 0.0 if i % 2 == 0 else _j(rng, 0.6, 0.2))
        jobs += _density_pair(ctx, mid, p, s, restrict=i % 3 != 2)
    patterns = [("E1", 3, (1,)), ("E2", 2, (2,)), ("E3", 5, (0, None)), ("E4", 7, (1, 0)),
                ("E5", 2, (None, 2)), ("E6", 3, (0, 1)), ("E6", 5, (None, 1)), ("E4", 2, (2, None))]
    for mid, p, vals in patterns:
        model, a, s = ctx.model(mid), _character(rng, p, vals), _j(rng, 1.8, 0.2)
        tag = f"{mid}/p={p}/a={tuple(map(str, a))}/s={s}"
        jobs.append(Job(
            f"fourier_finite/{tag}", "density",
            lambda model=model, p=p, a=a, s=s: hz.fourier_finite(model, p, a, s),
            lambda mid=mid, p=p, a=a, s=s: refs.local_density(mid, p, s, a),
            _exact_check,
        ))
        jobs.append(Job(
            f"char_bound/{tag}", "density",
            lambda model=model, p=p, a=a, s=s: hz.density.char_bound_quantity(model, p, a, s),
            lambda mid=mid, p=p, a=a, s=s: refs.char_bound(mid, p, a, s),
            _exact_check,
        ))
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            grid = [_j(rng, 10.0**k, 0.1) for k in (1, 2, 3)]
            jobs.append(_padic_decay_job(ctx, p, d, _j(rng, 1.0, 0.2), grid, ("zp", "units")[(p + d) % 2]))
    for p, n, m, d in ((2, 1, 2, 2), (2, 2, 5, 1), (3, 1, 2, 3), (3, 2, 4, 2), (5, 1, 3, 2), (5, 2, 3, 1), (2, 2, 4, 3), (3, 1, 3, 1)):
        xi = rng.choice([x for x in range(1, p**n) if x % p])
        u = rng.choice([x for x in range(1, p**m) if x % p])
        jobs.append(Job(
            f"coset/p={p}/xi={xi}/n={n}/a={u}/{p}^{m}/d={d}", "oscillatory",
            lambda p=p, xi=xi, n=n, u=u, m=m, d=d: hz.coset_phase_integral(p, Fraction(xi), n, Fraction(u, p**m), d),
            lambda p=p, xi=xi, n=n, u=u, m=m, d=d: refs.padic_coset(p, xi, n, u, m, d),
            _exact_check,
        ))
    for p, k, d in ((2, 5, (1, 2)), (3, 3, (1, 1)), (5, 2, (2, 1))):
        s = (_j(rng, 1.0, 0.2), _j(rng, 1.0, 0.2))
        phis = [hz.StepFunction.indicator_zp(p)] * 2
        place = hz.Place.finite(p)
        jobs.append(Job(
            f"osc_nd/Q{p}/k={k}/d={d}/s={s}", "oscillatory",
            lambda place=place, phis=phis, k=k, p=p, d=d, s=s: hz.osc_integral_nd(place, phis, Fraction(1, p**k), d, s).value,
            lambda p=p, k=k, d=d, s=s: refs.padic_osc_2d(p, k, d, s),
            _exact_check,
        ))
    for p, j, d in ((2, 2, 1), (3, 0, 2), (5, 1, 1)):
        c, s = rng.choice([x for x in range(1, 2 * p) if x % p]), _j(rng, 1.0, 0.2)
        phi, place = hz.StepFunction.indicator_zp(p), hz.Place.finite(p)
        jobs.append(Job(
            f"inverse/Q{p}/a={c}*{p}^{j}/d={d}/s={s}", "oscillatory",
            lambda place=place, phi=phi, c=c, p=p, j=j, d=d, s=s: hz.inverse_phase_integral(place, phi, Fraction(c * p**j), d, s).value,
            lambda p=p, c=c, j=j, d=d, s=s: refs.padic_inverse(p, c, j, d, s),
            _exact_check,
        ))
    sizes = {"E1": 1e5, "E3": 1e6, "E4": 1e5, "E5": 3e3}
    for primes in S_SETS[1:]:
        for mid, B in sizes.items():
            jobs.append(_count_job(ctx, mid, primes, round(_j(rng, B, 0.05))))
            small = rng.randint(14, 18) if ctx.model(mid).dim == 1 else rng.randint(4, 5)
            jobs.append(_count_job(ctx, mid, primes, small, brute=True))
    return jobs


# ---------------------------------------------------------------------------
# archimedean places


def _osc_check(tol: float):
    return lambda out, ref, _o: _close(out, ref, tol, osc_rel=_rel(out, ref))


def _arch_decay_job(ctx: Context, place: str, bump: tuple, d: int, s: float, grid: list[float], tol: float) -> Job:
    c, r = bump
    phi = "bump" if (c, r) == (0.0, 1.0) else f"bump:{c!r}:{r!r}"
    argv = ["osc", "--place", place, "--phi", phi, "--d", str(d), "--s", repr(s), "--a-grid", ",".join(map(repr, grid))]

    def reference():
        if place == "real":
            return [refs.osc_real(c, r, A, d, s) for A in grid]
        return [refs.osc_complex(r, A, d, s) for A in grid]

    def check(out, ref, _outs):
        vals = [complex(float(row["re_I"]), float(row["im_I"])) for row in csv.DictReader(io.StringIO(out))]
        worst = max(_rel(v, w) for v, w in zip(vals, ref))
        return Check(len(vals) == len(ref) and worst <= tol, f"worst rel {worst:.2e}", osc_rel=worst)

    key = f"osc/{place}/{phi}/d={d}/s={s}/a={grid}"
    return Job(key, "oscillatory", ctx.cli_job(argv, "osc_decay.csv"), reference, check)


def archimedean_jobs(ctx: Context, rng: random.Random) -> list[Job]:
    hz = ctx.hz
    R, C = hz.Place.real(), hz.Place.complex_()
    jobs = []
    for bump in ((0.0, 1.0), (0.3, 1.5), (-0.2, 0.8)):
        for d in (1, 2, 3):
            grid = [_j(rng, 10.0**k, 0.05) for k in (1, 2, 3)]
            jobs.append(_arch_decay_job(ctx, "real", bump, d, _j(rng, 0.75, 0.03), grid, QUAD_TOL))
    s_c = _j(rng, 0.7, 0.01)
    for A in (100.0, 1000.0):
        a = float(f"{A * math.exp(rng.uniform(0.0, 0.01)):.6g}")
        jobs.append(_arch_decay_job(ctx, "complex", (0.0, 1.0), 2, s_c, [a], COMPLEX_TOL))
    bump = hz.BumpFunction.standard()
    a, d, s = _j(rng, 10.0, 0.02), (1, 2), (_j(rng, 1.15, 0.02), _j(rng, 1.15, 0.02))
    jobs.append(Job(
        f"osc_nd/real/a={a}/d={d}/s={s}", "oscillatory",
        lambda a=a, d=d, s=s: hz.osc_integral_nd(R, [bump, bump], a, d, s).value,
        lambda a=a, d=d, s=s: refs.osc_real_2d((0.0, 1.0), (0.0, 1.0), a, d, s),
        _osc_check(QUAD_TOL),
    ))
    for d, a0 in ((1, 5.0), (2, 3.0)):
        a, s = _j(rng, a0, 0.05), _j(rng, 1.0, 0.05)
        jobs.append(Job(
            f"inverse/real/a={a}/d={d}/s={s}", "oscillatory",
            lambda a=a, d=d, s=s: hz.inverse_phase_integral(R, bump, a, d, s).value,
            lambda a=a, d=d, s=s: refs.inverse_real(1.0, a, d, s),
            _osc_check(1e-8),
        ))
    for c, r in ((0.0, 1.0), (0.3, 1.5)):
        phi, s, a = hz.BumpFunction.standard(c, r), _j(rng, 1.2, 0.1), _j(rng, 2.0, 0.1)
        jobs.append(Job(
            f"tate/real/bump={c},{r}/s={s}", "localfield",
            lambda phi=phi, s=s: hz.tate_integral(R, phi, s),
            lambda c=c, r=r, s=s: refs.osc_real(c, r, 0.0, 1, s),
            _osc_check(1e-8),
        ))
        jobs.append(Job(
            f"fourier/real/bump={c},{r}/a={a}", "localfield",
            lambda phi=phi, a=a: hz.fourier_test_fn(R, phi)(a),
            lambda c=c, r=r, a=a: refs.osc_real(c, r, a, 1, 1.0),
            _osc_check(1e-8),
        ))
    radial = hz.RadialBump(bump)
    s, a = _j(rng, 1.2, 0.1), complex(_j(rng, 2.0, 0.1), _j(rng, 1.0, 0.1))
    jobs.append(Job(
        f"tate/complex/s={s}", "localfield",
        lambda s=s: hz.tate_integral(C, radial, s),
        lambda s=s: refs.osc_complex(1.0, 0.0, 1, s),
        _osc_check(COMPLEX_TOL),
    ))
    jobs.append(Job(
        f"fourier/complex/a={a}", "localfield",
        lambda a=a: hz.fourier_test_fn(C, radial)(a),
        lambda a=a: refs.osc_complex(1.0, a, 1, 1.0),
        _osc_check(COMPLEX_TOL),
    ))
    weights = {"E1": (1,), "E2": (2,), "E4": (2, 1)}
    for mid, lam in weights.items():
        model = ctx.model(mid)
        for _ in range(2):
            s0 = _j(rng, 2.0, 0.1)
            a = tuple(rng.choice((-1, 1)) * _j(rng, 2.0, 0.1) for _ in lam)
            arg = a if len(a) > 1 else a[0]
            jobs.append(Job(
                f"arch_density/{mid}/a={a}/s={s0}", "density",
                lambda model=model, arg=arg, s0=s0: complex(hz.arch_density(model, arg, s0)),
                lambda a=a, lam=lam, s0=s0: math.prod(refs.max1d_transform(ai, li * s0) for ai, li in zip(a, lam)),
                _osc_check(1e-8),
            ))
    for mid, lam, a0, s0 in (("E3", 2, (1.0, 1.0), 3.0), ("E6", 3, (1.0, 2.0), 2.5)):
        model = ctx.model(mid)
        a, s = tuple(_j(rng, t, 0.01) for t in a0), _j(rng, s0, 0.01)
        jobs.append(Job(
            f"arch_density/{mid}/a={a}/s={s}", "density",
            lambda model=model, a=a, s=s: complex(hz.arch_density(model, a, s)),
            lambda a=a, lam=lam, s=s: refs.joint_max_transform(a[0], a[1], lam * s),
            _osc_check(1e-8),
        ))
    for mid, s0, A, tol in (("E1", 3.0, 100, 2e-3), ("E2", 1.5, 40, 1e-2)):
        s = _j(rng, s0, 0.03)
        argv = ["poisson", "--model", mid, "--s", repr(s), "--A", str(A)]

        def reference(mid=mid, s=s):
            from scipy.special import zeta

            if mid == "E1":
                return 1.0 + 2.0 * float(zeta(s))
            return 4.0 * float(zeta(2 * s - 1)) / float(zeta(2 * s)) - 1.0

        def check(out, ref, _o, tol=tol):
            r = json.loads(out)
            if abs(r["lhs"] - ref) > 1.5 * r["lhs_tail"] + 1e-9:
                return Check(False, f"lhs {r['lhs']} vs {ref} (tail {r['lhs_tail']})")
            return Check(r["gap"] <= tol * r["lhs"], f"gap {r['gap']} vs lhs {r['lhs']}")

        jobs.append(Job(f"poisson/{mid}/s={s}/A={A}", "census", ctx.cli_job(argv, f"poisson_{mid}.json"), reference, check))
    return jobs


WORKLOADS = {"census": census_jobs, "finite": finite_jobs, "archimedean": archimedean_jobs}


def build(ctx: Context, workload: str, seed: int) -> list[Job]:
    """The seeded job list, in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](ctx, rng)
    rng.shuffle(jobs)
    keys = [j.key for j in jobs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate job keys")
    return jobs

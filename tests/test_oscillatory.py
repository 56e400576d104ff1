import cmath
import functools
import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import j0

from heightzeta.errors import DepthOverflowError, NonconvergentError
from heightzeta.localfield import (
    BumpFunction,
    Place,
    RadialBump,
    StepFunction,
    fourier_test_fn,
    padic,
    psi,
    quad_complex,
    quad_oscillatory,
    tate_integral,
)
from heightzeta import oscillatory
from heightzeta.oscillatory import (
    _tabulated_transform,
    coset_phase_integral,
    decay_report,
    inverse_phase_integral,
    osc_integral_1d,
    osc_integral_nd,
    schwartz_level,
)

F = Fraction
R = Place.real()


def test_coset_example_roots_of_unity():
    got = coset_phase_integral(3, 1, 1, F(1, 9), 1)
    brute = sum(cmath.exp(2j * math.pi * (1 + 3 * u) / 9) for u in range(3)) / 9
    assert abs(got - brute) < 1e-15
    assert abs(got) < 1e-15


def test_coset_example_mod16():
    got = coset_phase_integral(2, 1, 2, F(1, 16), 1)
    brute = sum(cmath.exp(2j * math.pi * x / 16) for x in range(1, 17, 4)) / 16
    assert abs(got - brute) < 1e-15
    assert abs(got) < 1e-14  # 2^{n+c} = 4 < 16 <= 2^{2n} = 16


def test_coset_trivial_phase():
    # a integral, d = 1: exactly psi(a xi) p^{-n}
    p, xi, n, a = 5, F(2), 1, F(3)
    got = coset_phase_integral(p, xi, n, a, 1)
    assert abs(got - psi(Place.finite(p), a * xi) * F(1, 5)) < 1e-15


def test_coset_depth_bit_identical():
    v1 = coset_phase_integral(3, 2, 1, F(5, 9), 2)
    v2 = coset_phase_integral(3, 2, 1, F(5, 9), 2, depth=4)
    assert v1 == v2


def test_coset_depth_overflow():
    with pytest.raises(DepthOverflowError):
        coset_phase_integral(2, 1, 1, F(1, 2**20), 1)


def test_exact_vanishing_sample():
    # a sample of the exhaustive acceptance suite
    for p in (2, 3, 5):
        ctx = padic(p)
        for d in (1, 2, 3):
            c = ctx.valuation(d)
            for n in (1, 2):
                for m in range(n + c + 1, 2 * n + 1):
                    a = F(1, p**m)
                    for xi in range(1, p**n):
                        if xi % p == 0:
                            continue
                        val = coset_phase_integral(p, F(xi), n, a, d)
                        assert abs(val) < 1e-10, (p, d, n, m, xi)


def test_schwartz_level():
    assert schwartz_level(StepFunction.indicator_zp(5)) == 1
    assert schwartz_level(StepFunction.indicator_coset(2, 1, 2)) == 2
    # stored at level 3 but constant mod p: minimality is computed
    assert schwartz_level(StepFunction.indicator_zp(3).refine(3)) == 1


def vanishing_threshold(p: int, d: int, phi: StepFunction) -> int:
    """T with  int_{Z_p minus pZ_p} phi(x) psi(a x^d) dx = 0  whenever
    |a|_p >= T, namely max(q^{n(phi)+c+1}, q^{2(c+1)}) with c = v_p(d):
    the vanishing lemma the tests below check by brute force."""
    assert phi.support_exp <= 0, "the lemma needs support inside Z_p"
    c = padic(p).valuation(d)
    return p ** max(schwartz_level(phi) + c + 1, 2 * (c + 1))


def test_vanishing_threshold_values():
    assert vanishing_threshold(5, 1, StepFunction.indicator_zp(5)) == 25
    assert vanishing_threshold(3, 1, StepFunction.indicator_coset(3, 1, 2)) == 27


def test_threshold_direction_exhaustive():
    # for |a| >= threshold the unit-shell integral vanishes: checked by
    # direct residue sums for p <= 5, d <= 3, |a| = u p^{-m}, m <= 6
    for p in (2, 3, 5):
        ctx = padic(p)
        for phi in (StepFunction.indicator_zp(p), StepFunction.indicator_coset(p, 1, 2)):
            for d in (1, 2, 3):
                T = vanishing_threshold(p, d, phi)
                for m in range(1, 7):
                    if p**m < T:
                        continue
                    for u in (1, p - 1) if p > 2 else (1,):
                        a = F(u, p**m)
                        M = max(m, schwartz_level(phi))
                        brute = sum(
                            phi.value_at(F(x))
                            * cmath.exp(2j * math.pi * float(ctx.frac_part(a * F(x) ** d)))
                            for x in range(1, p**M)
                            if x % p
                        ) / p**M
                        assert abs(brute) < 1e-10, (p, d, m, u)


def test_vanishing_threshold_d2_brute():
    # the threshold for (p, d) = (2, 2) must be recomputed, not trusted:
    # brute-force the unit-shell integral for |a| = 2^m, m = 1..6
    phi = StepFunction.indicator_zp(2)
    T = vanishing_threshold(2, 2, phi)
    assert T == 16  # max(q^{n+c+1}, q^{2(c+1)}) with n = 1, c = 1
    place = Place.finite(2)
    for m in range(1, 7):
        a = F(1, 2**m)
        M = max(m, 1)
        brute = sum(
            cmath.exp(2j * math.pi * float(padic(2).frac_part(a * x * x)))
            for x in range(1, 2**M, 2)
        ) / 2**M
        if 2**m >= T:
            assert abs(brute) < 1e-12, m
    # and the bound is sharp: |a| = 8 does not vanish
    m = 3
    a = F(1, 8)
    brute = sum(
        cmath.exp(2j * math.pi * float(padic(2).frac_part(a * x * x))) for x in range(1, 8, 2)
    ) / 8
    assert abs(brute) > 0.4


# ---------------------------------------------------------------------------
# one-dimensional integrals


def test_osc1d_orthogonality():
    phi = StepFunction.indicator_zp(2)
    P2 = Place.finite(2)
    for a, expect in [(F(1), 1.0), (F(2), 1.0), (F(0), 1.0), (F(1, 2), 0.0), (F(3, 4), 0.0)]:
        r = osc_integral_1d(P2, phi, a, 1, 1)
        assert abs(r.value - expect) < 1e-14
        assert r.exact


def test_osc1d_zero_phase_matches_direct():
    # independent shell sum of int |x|^{s-1} phi dx
    phi = StepFunction(3, 2, 0, {j: ((j * 7) % 4) / 3.0 for j in range(9)})
    s = 1.7
    direct = 0.0
    for j in range(1, 9):
        v = padic(3).valuation(F(j))
        direct += phi.table[j] * 3 ** (-v * (s - 1)) * 3**-2
    direct += phi.table[0] * (1 - 1 / 3) * 3 ** (-2 * s) / (1 - 3**-s)
    got = osc_integral_1d(Place.finite(3), phi, F(0), 1, s)
    assert abs(got.value - direct) < 1e-12


def test_osc1d_integer_s_exact_powers():
    # at an integer s the shell weights p^(-v s) and the tail are exact before
    # one rounding: the indicator of p^-k Z_p integrates to p^k itself
    for p in (2, 3, 5, 7):
        for k in range(5):
            phi = StepFunction(p, 0, k, {j: 1.0 for j in range(p**k)})
            assert fourier_test_fn(Place.finite(p), phi)(0) == p**k, (p, k)
        got = osc_integral_1d(Place.finite(p), StepFunction.indicator_zp(p), 0, 1, 2).value
        assert got == float(F(p, p + 1)), p


def test_osc1d_seeded_table_vs_mpmath():
    rng = np.random.default_rng(0)
    table = {j: complex(*rng.uniform(-1.0, 1.0, 2)) for j in range(27)}
    got = fourier_test_fn(Place.finite(3), StepFunction(3, 1, 2, table))(0)
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.mpc(v.real, v.imag) for v in table.values()) / 3
        assert abs(mpmath.mpc(got.real, got.imag) - want) <= 1.2e-16 * abs(want), (got, want)


def test_osc1d_refinement_bit_identical():
    phi = StepFunction(2, 1, 0, {0: 1.0, 1: 0.5 + 0.25j})
    for a in [F(1, 8), F(3, 16), F(1, 64)]:
        v1 = osc_integral_1d(Place.finite(2), phi, a, 2, 1.3).value
        v2 = osc_integral_1d(Place.finite(2), phi.refine(2), a, 2, 1.3).value
        assert v1 == v2


def test_osc1d_rejects_bad_s():
    with pytest.raises(NonconvergentError):
        osc_integral_1d(Place.finite(2), StepFunction.indicator_zp(2), F(1), 1, -0.2)


def test_osc1d_real_decay_small():
    bump = BumpFunction.standard()
    rep = decay_report(R, bump, 2, 1.0, [10.0, 100.0, 1000.0])
    assert rep.fitted_exponent >= 0.45
    assert all(o <= e + 1e-12 for o, e in zip(rep.observed, rep.envelope))


def test_osc1d_real_zero_phase():
    bump = BumpFunction.standard()
    s = 1.4
    got = osc_integral_1d(R, bump, 0.0, 1, s).value
    ref, _ = quad_complex(lambda x: abs(x) ** (s - 1) * bump(x), -1, 1, points=[0.0])
    assert abs(got - ref) < 1e-8


def _bump_profile(x, c: float, rad: float):
    u = (x - c) / rad
    return np.where(np.abs(u) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)


def _halfline_rule(R: float, A: float, d: int, nodes: int, panels: int = 32, depth: int = 60):
    """Gauss-Legendre nodes and weights on [eps, R]: at least ``panels``
    panels that each hold at most half a period of e^{-2 pi i A r^d}, the
    first of them cut into ``depth`` geometric panels towards
    eps = 2^-depth times its width, where r^{s-1} is smooth on each panel.
    Returns (r, w, eps)."""
    n = max(panels, math.ceil(2.0 * abs(A) * R**d))
    edges = R * (np.arange(1, n + 1) / n) ** (1.0 / d)
    edges = np.concatenate([edges[0] * 2.0 ** -np.arange(float(depth), 0.0, -1.0), edges])
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = edges[:-1, None], edges[1:, None]
    return ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel(), ((hi - lo) / 2 * w).ravel(), edges[0]


def _osc_real_reference(c: float, rad: float, a: float, d: int, s, nodes: int = 30) -> complex:
    """int_R |x|^{s-1} e^{-2 pi i a x^d} phi(x) dx for the standard bump on
    (c - rad, c + rad), by the rule of ``_audit_reference``.  The plain
    float64 rule of ``_halfline_rule``, with numpy's weights and its phase
    at rounded nodes, is 2e-15 off at (0.3, 1.5), a = 1000, d = 1."""
    return _audit_reference(c, rad, a, d, s, nodes)[0]


def test_osc_real_reference_rule():
    # the in-test rule against mpmath's tanh-sinh rule.  At s = 0.3 that rule
    # needs 60 digits: at 30 its nodes stop short of the r^{s-1} singularity
    # and it is 1.4e-12 off
    c, rad, a, d, s = 0.3, 1.5, 3.0, 2, 0.3

    def f(x):
        u = (x - c) / rad
        if abs(u) >= 1:
            return 0
        return abs(x) ** (s - 1) * mpmath.expj(-2 * mpmath.pi * a * x**d) * mpmath.exp(1 - 1 / (1 - u * u))

    with mpmath.workdps(60):
        ref = complex(mpmath.quad(f, [c - rad, -1e-3, -1e-6, 0, 1e-6, 1e-3, c + rad]))
    assert abs(_osc_real_reference(c, rad, a, d, s) - ref) < 1e-14 * abs(ref)
    assert abs(_osc_real_reference(c, rad, a, d, s, nodes=20) - ref) < 1e-14 * abs(ref)


def test_osc1d_real_vs_reference():
    # nonzero phase on R, both half-lines; the complex-s value is computed
    # without the algebraic weight and is held to its own error estimate
    for c, rad in ((0.0, 1.0), (0.3, 1.5)):
        bump = BumpFunction.standard(c, rad)
        for s in (0.3, 0.75, 1.15, 0.75 + 0.5j):
            for a in (0.0, 3.0, 100.0):
                for d in (1, 2):
                    got = osc_integral_1d(R, bump, a, d, s)
                    ref = _osc_real_reference(c, rad, a, d, s)
                    dev = abs(got.value - ref)
                    assert got.error >= dev, (c, rad, s, a, d, got, ref)
                    if complex(s).imag == 0.0:
                        assert dev <= 1e-10 * abs(ref), (c, rad, s, a, d, got, ref)


class _RecordedBump(BumpFunction):
    """A bump that records, per call of ``values``, the points it is
    evaluated at in ``calls``."""

    def values(self, x):
        self.calls.append(np.array(x, dtype=float).ravel())
        return super().values(x)


@pytest.mark.parametrize("a, d, s", [(3.7, 1, 0.8), (40.0, 2, 1.2)])
def test_osc1d_real_support_away_from_zero(a, d, s):
    # a support that misses 0 is evaluated only inside it.  The second
    # value is 3e-9, below the 1e-15 absolute accuracy of the reference, so
    # it is held to that and to its own error estimate
    bump = _RecordedBump.standard(1.5, 1.0)
    bump.calls = []
    got = osc_integral_1d(R, bump, a, d, s)
    nodes = np.concatenate(bump.calls)
    assert nodes.size and nodes.min() >= 0.5 and nodes.max() <= 2.5
    phi = BumpFunction.standard(1.5, 1.0)
    ref, _ = quad_complex(lambda x: x ** (s - 1) * cmath.exp(-2j * math.pi * a * x**d) * phi(x), 0.5, 2.5, epsrel=1e-12)
    dev = abs(got.value - ref)
    assert dev <= max(1e-9 * abs(ref), 1e-15), (got, ref)
    assert got.error >= dev


@pytest.mark.parametrize("a", [0.0, 0.5, 30.0, 1000.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_piece_evaluates_the_bump_once_per_node(a, d):
    # within one osc_integral_1d call no point is evaluated twice, and the
    # bump runs in a few numpy batches (the first panel at 0 and the
    # kernel's rounds, per half-line) of a size that |a| does not drive
    bump = _RecordedBump.standard(0.3, 1.5)
    for s in (0.8, 1.2 - 0.3j):
        bump.calls = []
        osc_integral_1d(R, bump, a, d, s)
        nodes = np.concatenate(bump.calls)
        assert np.unique(nodes).size == nodes.size, (s, nodes.size)
        assert 2 <= len(bump.calls) <= 8 and nodes.size <= 2 * 80 * 20, (s, [c.size for c in bump.calls])


def test_complex_place_runs_hankel_once_per_far_node(monkeypatch):
    # the far side evaluates the profile and the Hankel function together,
    # in one batch per round of panels, and no node twice
    import scipy.special

    calls = []
    hankel1e = scipy.special.hankel1e
    monkeypatch.setattr(scipy.special, "hankel1e", lambda v, z: calls.append(np.array(z)) or hankel1e(v, z))
    for a, d, s in ((1000.0, 2, 0.7), (100.0, 1, 0.6 + 0.3j), (2.0 + 1.0j, 1, 1.0)):
        calls.clear()
        osc_integral_1d(Place.complex_(), RadialBump(BumpFunction.standard()), a, d, s)
        nodes = np.concatenate(calls)
        assert 1 <= len(calls) <= 6 and np.unique(nodes).size == nodes.size, (a, d, s, [c.size for c in calls])


@functools.cache
def _accurate_leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (in extended precision) and weights,
    Newton-polished in extended precision; numpy's weights are up to 3e-13
    off at 30 nodes."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, (2 / ((1 - x * x) * dp * dp)).astype(float)


def _extended_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes, in extended precision, and the weights of the
    ``_accurate_leggauss`` rule on each panel between ``edges``.  Rounded
    to float64, a node at r would move the phase 2 pi a r^d by up to
    2^-53 2 pi a d r^d, 3e-13 at a r^d = 500: a few hundred oscillating
    panels add that up to 3e-14."""
    x, w = _accurate_leggauss(nodes)
    lo, hi = edges[:-1, None].astype(np.longdouble), edges[1:, None].astype(np.longdouble)
    return ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel(), ((hi - lo) / 2 * w).ravel().astype(float)


def _longdouble_phase(a: float, r: np.ndarray, d: int) -> np.ndarray:
    """e^{-2 pi i a r^d} at extended-precision r, with a r^d reduced mod 1
    in extended precision: in float64 its rounding is 2^-53 a r^d turns,
    4e-12 at a r^d = 1e4."""
    turns = np.longdouble(a) * r**d
    return np.exp(-2j * np.pi * (turns - np.round(turns)).astype(float))


def _graded(edges: np.ndarray, at_zero: bool) -> np.ndarray:
    """``edges`` with the last panel, at an end of the bump, halved 16 times
    towards it, and the first halved 60 times towards 0 (at_zero) or 16
    times towards its own end, another end of the bump."""
    grade = 2.0 ** -np.arange(60.0 if at_zero else 16.0, 0.0, -1.0)
    head = edges[1] * grade if at_zero else np.concatenate([[edges[0]], edges[0] + (edges[1] - edges[0]) * grade])
    end = edges[-1] - (edges[-1] - edges[-2]) * 2.0 ** -np.arange(0.0, 17.0)
    return np.concatenate([head, edges[1:-1], end, [edges[-1]]])


def _audit_reference(c: float, rad: float, a: float, d: int, s, nodes: int) -> tuple[complex, float]:
    """int_R |x|^{s-1} e^{-2 pi i a x^d} phi(x) dx for the bump on
    (c - rad, c + rad), and the L1 mass of its terms.  Each half-line
    [r0, R] is cut uniformly in r^d into panels that hold at most four
    periods of the phase, at least 32, and ``_graded``; where r0 = 0,
    [0, eps] adds phi(0) eps^s / s (as in ``_osc_real_reference``)."""
    s = complex(s)
    parts, mass = [], 0.0
    for sign, r0, R in ((1.0, max(c - rad, 0.0), c + rad), (-1.0, max(-c - rad, 0.0), rad - c)):
        if R <= 0.0:
            continue
        n = max(32, math.ceil(abs(a) * (R**d - r0**d) / 4.0))
        edges = (r0**d + (R**d - r0**d) * np.arange(n + 1) / n) ** (1.0 / d)
        edges = _graded(edges, r0 == 0.0)
        if r0 == 0.0:
            parts.append(_bump_profile(0.0, c, rad) * edges[0] ** s / s)
        r_ext, w = _extended_nodes(edges, nodes)
        r = r_ext.astype(float)
        power = r ** (s - 1.0) if s.imag else r ** (s.real - 1.0)
        terms = w * power * _longdouble_phase(a * sign**d, r_ext, d) * _bump_profile(sign * r, c, rad)
        parts.append(complex(terms.sum()))
        mass += float(np.abs(terms).sum())
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts)), mass


def test_real_place_error_audit():
    # every deviation from the in-test rule is at most the reported error,
    # give or take the rule's spread between two resolutions and 5e-16 of
    # the L1 mass of its terms, its own rounding (the values of the bump on
    # (0.5, 2.5) at |a| = 1e4 are 2e-20 and the rule's 3e-16); and at
    # |a| <= 1e3 the reported error is at most
    # 1e-10 of the value, or 1e-14 of the L1 mass where the value is below
    # what float64 resolves (the bump on (0.5, 2.5) decays faster than any
    # power of |a|: 1e-7 of its mass at |a| = 30, rounding at 1000).  The
    # bump on (0, 2) has an end at 0, where it takes no stationary panel
    for c, rad in ((0.0, 1.0), (0.3, 1.5), (-0.2, 0.8), (1.5, 1.0), (1.0, 1.0)):
        bump = BumpFunction.standard(c, rad)
        for d, s, a in itertools.product((1, 2, 3), (0.3, 0.75, 1.15, 0.75 + 0.5j), (0.0, 0.5, 3.0, 30.0, 1000.0, 1e4)):
            got = osc_integral_1d(R, bump, a, d, s)
            ref, mass = _audit_reference(c, rad, a, d, s, 30)
            spread = abs(ref - _audit_reference(c, rad, a, d, s, 24)[0])
            assert spread <= 1e-15 * mass, (c, rad, d, s, a, ref, spread)
            assert abs(got.value - ref) <= got.error + spread + 5e-16 * mass, (c, rad, d, s, a, got, ref)
            if a <= 1e3:
                assert got.error <= 1e-10 * abs(ref) + 1e-14 * mass, (c, rad, d, s, a, got, ref)


@pytest.mark.parametrize(
    "c, rad, a, d, s, want",
    [
        (-0.2, 0.8, 974.533, 1, 0.741249, 0.0014269727962678295 + 1.2284026414270103e-07j),
        (0.0, 1.0, 3.0, 1, 0.3, 2.2196661600136665),
        (1.5, 1.0, 3.0, 2, 0.75 + 0.5j, None),
    ],
)
def test_real_place_vs_mpmath(c, rad, a, d, s, want):
    # 30-digit values.  The first is the benchmark's worst osc_real case at
    # seed 0, where its reference rule is 6.4e-12 off; the second needs 60
    # working digits, as in test_osc_real_reference_rule
    if want is None:

        def f(x):
            u = (x - c) / rad
            return x ** (s - 1) * mpmath.expj(-2 * mpmath.pi * a * x**d) * mpmath.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else 0

        with mpmath.workdps(30):
            want = complex(mpmath.quad(f, np.linspace(c - rad, c + rad, 9).tolist()))
    got = osc_integral_1d(R, BumpFunction.standard(c, rad), a, d, s)
    assert abs(got.value - want) <= min(got.error, 3e-13 * abs(want)), (got, want)


def _radial_audit_reference(X: float, d: int, s: float, nodes: int) -> tuple[float, float]:
    """4 pi int_0^1 r^{2s-1} Phi(r) J_0(X r^d) dr for the standard bump, and
    the L1 mass of its terms: panels in r^d that hold at most four periods
    of J_0, ``_graded``, and [0, eps] as phi(0) eps^{2s} / (2s).  Past
    z = 8, J_0(z) = Re(hankel1e(0, z) e^{iz}) with z reduced mod 2 pi in
    extended precision (``_longdouble_phase``)."""
    from scipy.special import hankel1e

    n = max(32, math.ceil(X / (8.0 * math.pi)))
    edges = _graded((np.arange(n + 1) / n) ** (1.0 / d), True)
    r_ext, w = _extended_nodes(edges, nodes)
    r = r_ext.astype(float)
    z = X * r**d
    far = z > 8.0
    J = j0(z)
    J[far] = (hankel1e(0, z[far]) * _longdouble_phase(-X / (2.0 * np.pi), r_ext[far], d)).real
    terms = w * 4.0 * math.pi * r ** (2.0 * s - 1.0) * _bump_profile(r, 0.0, 1.0) * J
    return float(terms.sum()) + 4.0 * math.pi * edges[0] ** (2.0 * s) / (2.0 * s), float(np.abs(terms).sum())


def test_complex_place_error_audit():
    # against ``_radial_audit_reference`` at two resolutions: the error
    # holds every deviation and is at most 1e-10 of the value
    rb = RadialBump(BumpFunction.standard())
    for d, a in itertools.product((1, 2), (0.0, 2.0 + 1.0j, 30.0, 100.0, 1000.0)):
        X = 4.0 * math.pi * abs(a)
        ref, mass = _radial_audit_reference(X, d, 0.7, 30)
        spread = abs(ref - _radial_audit_reference(X, d, 0.7, 24)[0])
        assert spread <= 1e-15 * mass, (d, a, ref, spread)
        got = osc_integral_1d(Place.complex_(), rb, a, d, 0.7)
        assert abs(got.value - ref) <= got.error + spread + 5e-16 * mass, (d, a, got, ref)
        assert got.error <= 1e-10 * abs(ref), (d, a, got, ref)


def _four_pass_quad_oscillatory(f, a, b, omega, *, epsabs=1e-12, epsrel=1e-10, limit=400):
    """quad_oscillatory without its node table, on a complex-valued
    integrand as its callers once passed for every s: the real and
    imaginary part of f under each Fourier weight, four QUADPACK passes
    that each evaluate f afresh."""
    g = lambda t: complex(f(t))
    kw = dict(epsabs=epsabs, epsrel=epsrel, limit=limit)
    if omega == 0.0:
        return quad_complex(g, a, b, **kw)
    c, e1 = quad_complex(g, a, b, weight="cos", wvar=omega, **kw)
    s, e2 = quad_complex(g, a, b, weight="sin", wvar=omega, **kw)
    return complex(c.real + s.imag, c.imag - s.real), e1 + e2


def test_node_table_keeps_the_four_pass_bits(monkeypatch):
    # the node table and the float-valued integrands of real s change no bit
    # of an inverse-phase value or error estimate, the one real-place value
    # QAWO still computes.  Bumps through 0 take QAWF in the inverse phase,
    # the bump on (0.5, 2.5) QAWO; |a| = 1000 needs the most QUADPACK
    # subdivisions
    grid = []
    for c, rad in ((0.0, 1.0), (0.3, 1.5), (1.5, 1.0)):
        for d, s, a in itertools.product((1, 2, 3), (0.3, 1.15, 0.75 + 0.5j, 1.2 - 0.3j), (0.5, 3.0, 30.0, 1000.0)):
            grid.append((BumpFunction.standard(c, rad), a, d, s))
    values = lambda: [(repr(r.value), repr(r.error)) for r in (inverse_phase_integral(R, *args) for args in grid)]
    got = values()
    monkeypatch.setattr(oscillatory, "quad_oscillatory", _four_pass_quad_oscillatory)
    assert got == values()


def _axis_rule(sj, a: float, nodes: int, c: float = 0.0, rad: float = 1.0, d: int = 1, **rule):
    """The rule of ``_halfline_rule`` at frequency a on each half-line of
    the bump (c - rad, c + rad), the positive nodes first, with the weights
    times |r|^{s_j-1} phi(r)."""
    r, w = [], []
    for sign, R in ((1.0, c + rad), (-1.0, rad - c)):
        if R > 0.0:
            rr, ww, _ = _halfline_rule(R, a, d, nodes, **rule)
            r.append(sign * rr)
            w.append(ww)
    r, w = np.concatenate(r), np.concatenate(w)
    return r, w * np.abs(r) ** (sj - 1.0) * _bump_profile(r, c, rad)


def _tensor_2d(a: float, d, s, bumps, nodes: int, ydeg: int = 1) -> complex:
    """int int |x|^{s1-1} |y|^{s2-1} e^{-2 pi i a x^d1 y^d2} phi1(x) phi2(y)
    by the tensor product of two ``_axis_rule``s; [-eps, eps] holds below
    eps^{Re s_j} < 1e-17.  The y rule puts its panels in y^ydeg."""
    x, wx = _axis_rule(s[0], a, nodes, *bumps[0])
    y, wy = _axis_rule(s[1], a, nodes, *bumps[1], d=ydeg)
    rows = zip(np.array_split(x ** d[0], 16), np.array_split(wx, 16))
    return complex(sum(np.exp(-2j * np.pi * a * xc[:, None] * y ** d[1]) @ wy @ wc for xc, wc in rows))


def _check_2d(a: float, d, s, bumps, tol: float, ydeg: int = 1, nodes=(16, 12)):
    ref = _tensor_2d(a, d, s, bumps, nodes[0], ydeg)
    assert abs(ref - _tensor_2d(a, d, s, bumps, nodes[1], ydeg)) < 1e-13 * abs(ref)
    got = osc_integral_nd(R, tuple(BumpFunction.standard(c, rad) for c, rad in bumps), a, d, s)
    dev = abs(got.value - ref)
    assert dev <= tol * abs(ref), (got, ref)
    assert got.error >= dev


def test_osc_nd_real_vs_tensor_gauss():
    _check_2d(10.13, (1, 2), (1.15, 1.13), ((0.0, 1.0), (0.0, 1.0)), 1e-10)
    # an outer support that misses 0 is integrated only over [0.25, 1.75];
    # the reference rule, whose panels start at 0, needs more nodes there
    _check_2d(10.13, (1, 2), (1.15, 1.13), ((0.0, 1.0), (1.0, 0.75)), 1e-10, nodes=(20, 16))


def test_osc_nd_real_complex_s_vs_tensor_gauss():
    # for complex s_2 the outer weight stays in the integrand, under QAGS
    _check_2d(10.13, (1, 2), (1.15, 0.9 + 0.4j), ((0.0, 1.0), (0.0, 1.0)), 1e-10)


def test_osc_nd_real_odd_offcentre_vs_tensor_gauss():
    # odd d_2 and off-centre bumps: the mirrored halves differ in length and
    # their frequencies in sign
    _check_2d(3.0, (1, 3), (1.15, 1.13), ((-0.2, 0.8), (0.3, 1.5)), 1e-9, ydeg=3)


def test_osc_nd_real_3d_vs_tensor_gauss():
    # int |x|^{s1-1} |y|^{s2-1} |z|^{s3-1} e^{-2 pi i a x y^2 z^2} phi(x)
    # phi(y) phi_3(z) for the centred bump phi, with phi_3 the centred bump
    # or the bump on (0.25, 1.75).  The centred rule takes each |r| twice
    # with equal weights, so its sums fold onto the positive nodes and the
    # x sum becomes a cosine sum.  The rule for (0.25, 1.75) starts at 0 and
    # needs more nodes per panel
    a, d, s = 2.0, (1, 2, 2), (1.2, 1.1, 1.3)

    def tensor(nodes, zbump) -> float:
        bumps = ((0.0, 1.0), (0.0, 1.0), zbump)
        rules = [_axis_rule(sj, a, m, *b, panels=24, depth=30) for sj, b, m in zip(s, bumps, nodes)]
        (x, wx), (y, wy), (z, wz) = ((r[: len(r) // 2], 2 * w[: len(r) // 2]) if b == (0.0, 1.0) else (r, w) for (r, w), b in zip(rules, bumps))
        t, wt = np.outer(y**2, z**2).ravel(), np.outer(wy, wz).ravel()
        rows = zip(np.array_split(x, 16), np.array_split(wx, 16))
        return math.fsum(wc @ (np.cos(2.0 * np.pi * a * np.outer(xc, t)) @ wt) for xc, wc in rows)

    for zbump, nodes in (((0.0, 1.0), ((6,) * 3, (5,) * 3)), ((1.0, 0.75), ((6, 6, 10), (5, 5, 8)))):
        ref = tensor(nodes[0], zbump)
        assert abs(ref - tensor(nodes[1], zbump)) < 1e-9 * abs(ref)
        phis = (BumpFunction.standard(),) * 2 + (BumpFunction.standard(*zbump),)
        got = osc_integral_nd(R, phis, a, d, s)
        dev = abs(got.value - ref)
        assert dev <= 1e-8 * abs(ref), (zbump, got, ref)
        assert got.error >= dev


def test_inner_table_vs_reference():
    # the innermost coordinate of an n-d value is one Gauss-Legendre table
    # per call: it must hold its error estimate against the in-test rule
    # and agree with the adaptive 1-d value within the two estimates, on
    # supports that contain 0, miss it, or reach further on one side, at
    # both parities of d
    for (c, rad), d in (((0.0, 1.0), 2), ((0.3, 1.5), 1), ((-0.2, 0.8), 3), ((1.0, 0.75), 3)):
        bump = BumpFunction.standard(c, rad)
        for s in (0.3, 1.15, 1.1 + 2j):
            transform = _tabulated_transform(bump, d, complex(s))
            for w in (0.0, 3.7, -41.0, 250.0, 1000.0):
                val, err = transform(w)
                ref = _osc_real_reference(c, rad, w, d, s)
                assert err >= abs(val - ref), (c, rad, d, s, w, val, ref, err)
                one_d = osc_integral_1d(R, bump, w, d, s)
                assert abs(val - one_d.value) <= one_d.error + err, (c, rad, d, s, w, val, one_d)


def test_power_weight_off_zero_keeps_a_real_integrand_real(monkeypatch):
    # for real s and a support that misses 0, r^{s-1} is the real part of
    # the complex power, so the n-d error mass (a real integrand) takes one
    # QUADPACK pass instead of a real and an imaginary one, with the bits
    # of the two-pass value; a complex integrand keeps its two passes
    import scipy.integrate

    calls = []
    quad = scipy.integrate.quad
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kw: calls.append(args[1:3]) or quad(*args, **kw))
    phi = BumpFunction.standard(1.0, 0.75)
    for s, f in ((complex(1.13), lambda y: abs(phi(y))), (complex(0.8), lambda y: cmath.exp(2j * y) * phi(y))):
        calls.clear()
        got = oscillatory._power_weighted(f, 1.75, s, 0.25)
        passes = len(calls)
        calls.clear()
        ref = quad_complex(lambda r: complex(r ** (s - 1.0) * f(r)), 0.25, 1.75)
        assert passes == (1 if isinstance(f(1.0), float) else 2) and len(calls) == 2, (s, passes)
        assert tuple(map(repr, got)) == tuple(map(repr, ref))


def test_osc_nd_real_above_table_cap(monkeypatch):
    # inner frequencies a y^2 above the table's panel cap go to the adaptive
    # 1-d machinery; pinned to the value computed with it at every frequency
    calls = []
    real_1d = oscillatory._osc_real_1d
    monkeypatch.setattr(oscillatory, "_osc_real_1d", lambda *args: calls.append(args[1]) or real_1d(*args))
    bump = BumpFunction.standard()
    got = osc_integral_nd(R, (bump, bump), 1e4, (1, 2), (1, 1))
    assert abs(got.value - 0.015264074073573353) <= 1e-9 * 0.015264074073573353
    assert calls and min(abs(w) for w in calls) > 1000.0


def _radial_bump_reference(A: float, d: int, s: float, panels: int) -> tuple[float, float]:
    """4 pi int_0^1 r^{2s-1} Phi(r) J_0(4 pi A r^d) dr for the standard bump,
    by Gauss-Legendre panels in u = r^{2s}, where the integrand is smooth;
    returns the value and the L1 mass of the summed terms."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = ((edges[:-1] + edges[1:])[:, None] / 2 + half * x).ravel()
    wu = (half * w).ravel()
    m = 1.0 / (2.0 * s)
    r = u**m
    prof = np.exp(1.0 - 1.0 / (1.0 - r * r))
    terms = wu * 4.0 * math.pi * m * prof * j0(4.0 * math.pi * A * r**d)
    return math.fsum(terms), math.fsum(np.abs(terms))


def test_complex_place_vs_j0_reference():
    rb = RadialBump(BumpFunction.standard())
    ref, _ = _radial_bump_reference(1000.0, 2, 0.7, 8000)
    ref_coarse, _ = _radial_bump_reference(1000.0, 2, 0.7, 4000)
    assert abs(ref - ref_coarse) < 1e-15
    assert abs(ref - 0.0126740434915) < 1e-12
    for a in (1000.0, -600.0 + 800.0j):
        r = osc_integral_1d(Place.complex_(), rb, a, 2, 0.7)
        dev = abs(r.value - ref)
        assert dev < 1e-9 * abs(ref), (a, r.value, ref)
        assert r.error is not None and r.error >= dev
    # the Fourier transform is the case d = s = 1.  Below ~1e-17 the value
    # is lost to cancellation in double precision at any resolution (about
    # 2e-7 relative at |a| = 30), hence the L1 term
    ft = fourier_test_fn(Place.complex_(), rb)
    for a, want in ((6.0 + 8.0j, 8.361046e-7), (30.0, -5.69316e-11)):
        ref, mass = _radial_bump_reference(abs(a), 1, 1.0, 2000)
        assert abs(ref - want) < 1e-6 * abs(want)
        assert abs(ft(a) - ref) < 1e-9 * abs(ref) + 1e-15 * mass, (a, ft(a), ref)


# ---------------------------------------------------------------------------
# several variables


def test_osc_nd_brute_z9():
    phi3 = StepFunction.indicator_zp(3)
    got = osc_integral_nd(Place.finite(3), (phi3, phi3), F(1, 3), (1, 1), (1, 1))
    ctx = padic(3)
    brute = sum(
        cmath.exp(2j * math.pi * float(ctx.frac_part(F(x * y, 3))))
        for x in range(9)
        for y in range(9)
    ) / 81
    assert abs(got.value - brute) < 1e-13
    assert got.exact


def test_osc_nd_separable_zero_phase():
    phi3 = StepFunction.indicator_zp(3)
    got = osc_integral_nd(Place.finite(3), (phi3, phi3), 0, (1, 1), (1.5, 2.0))
    want = ((1 - 1 / 3) / (1 - 3**-1.5)) * ((1 - 1 / 3) / (1 - 3**-2.0))
    assert abs(got.value - want) < 1e-13


def _finite_phis(p: int):
    """Three step functions on Z_p, not all indicators."""
    return {
        2: (
            StepFunction.indicator_zp(2),
            StepFunction(2, 2, 0, {0: 1.0, 1: 0.5 + 0.25j, 2: 2.0, 3: -1.0}),
            StepFunction(2, 1, 0, {1: 1.5}),
        ),
        3: (
            StepFunction(3, 2, 0, {j: ((j * 7) % 4) / 3.0 + 0.1j * (j % 2) for j in range(9)}),
            StepFunction.indicator_zp(3),
            StepFunction(3, 1, 0, {0: 2.0, 2: 1.0 - 1j}),
        ),
        5: (
            StepFunction(5, 1, 0, {0: 1.0, 1: 2.0, 3: 0.5j}),
            StepFunction.indicator_zp(5),
            StepFunction(5, 1, 0, {2: 1.0, 4: 0.25}),
        ),
    }[p]


@pytest.mark.parametrize(
    "p, n, a, d, M",
    [(2, 3, F(3, 8), (1, 2, 1), 3), (3, 2, F(5, 27), (2, 1), 3), (5, 2, F(7, 25) + 2, (1, 3), 2)],
)
def test_osc_nd_finite_brute_average(p, n, a, d, M):
    # at s = (1, ..., 1) the integral is the plain average over (Z/p^M)^n,
    # M at least every level and -v_p(a)
    phis = _finite_phis(p)[:n]
    ctx = padic(p)
    brute = 0j
    for xs in itertools.product(range(p**M), repeat=n):
        val = math.prod(phi.value_at(x) for phi, x in zip(phis, xs))
        if val:
            brute += val * cmath.exp(2j * math.pi * float(ctx.frac_part(a * math.prod(x**k for x, k in zip(xs, d)))))
    brute /= p ** (n * M)
    got = osc_integral_nd(Place.finite(p), phis, a, d, (1.0,) * n)
    assert got.exact and abs(got.value - brute) < 1e-13, (got.value, brute)


@pytest.mark.parametrize(
    "p, a, d, s, want",
    [
        (2, F(87, 16), (2, 1, 3), (0.8 + 1.3j, 1.2, 0.6 - 0.4j), -0.08892153939577817 - 0.012313938340567111j),
        (2, F(3, 8), (1, 3, 2), (1.5, 0.7, 2.0), 0.6456431851693206 - 0.0013273882011385959j),
        (3, F(2, 9), (1, 1, 1), (1.5, 0.7, 2.0), 0.052375325950783376 - 0.012615092136269665j),
        (5, F(3, 25), (1, 3), (0.8 + 1.3j, 1.2), 0.045880469275626015 + 0.07242194573745954j),
        (5, F(1, 5), (2, 1, 3), (1.5, 0.7, 2.0), 0.04162006664238176 + 0.004591547252088593j),
    ],
)
def test_osc_nd_finite_pinned(p, a, d, s, want):
    # pinned to a joint enumeration over tuples of units, an independent route
    got = osc_integral_nd(Place.finite(p), _finite_phis(p)[: len(d)], a, d, s).value
    assert abs(got - want) < 1e-14 * abs(want), (got, want)


@pytest.mark.parametrize("p, k, n", [(5, 10, 2), (5, 9, 2), (3, 12, 3), (2, 13, 2)])
def test_osc_nd_finite_depth_overflow(p, k, n):
    # up to p^k phases per level below the top, at p^k or p^(k/2) classes
    # each, pass CLASS_BUDGET though one shell alone (5^9, 3^12) would not;
    # 2^13 passes DEFAULT_MAX_LEVEL.  The refusal comes before any enumeration
    phi = StepFunction.indicator_zp(p)
    t0 = time.perf_counter()
    with pytest.raises(DepthOverflowError):
        osc_integral_nd(Place.finite(p), (phi,) * n, F(1, p**k), (1,) * n, (1,) * n)
    assert time.perf_counter() - t0 < 0.5


def test_zero_step_function_integrates_to_zero():
    place, zero, one = Place.finite(3), StepFunction(3, 1, 0, {0: 0j}), StepFunction.indicator_zp(3)
    assert osc_integral_1d(place, zero, F(1, 9), 1, 1.5).value == 0
    assert osc_integral_nd(place, (zero, one), F(1, 9), (1, 1), (1.5, 1)).value == 0
    assert osc_integral_nd(place, (one, zero), F(1, 9), (1, 1), (1.5, 1)).value == 0
    assert tate_integral(place, zero, 1.5) == 0


def test_osc_nd_real_decay():
    bump = BumpFunction.standard()
    rep = decay_report(R, (bump, bump), (1, 2), (1.0, 1.0), [10.0, 100.0, 1000.0])
    assert rep.fitted_exponent >= 0.45  # kappa = 1/2


# ---------------------------------------------------------------------------
# inverse phase


def test_inverse_finite_decay():
    phi = StepFunction(2, 2, 0, {0: 1.0, 1: 1.0, 2: 0.5, 3: 0.25})
    P2 = Place.finite(2)
    mags = []
    for m in range(2, 9):
        r = inverse_phase_integral(P2, phi, F(1, 2**m), 1, 1.0)
        assert r.exact
        mags.append(abs(r.value) * 2.0**m)
    assert max(mags) < 8.0  # |eta| <= C |a|^{-1}


def test_inverse_real_nonsingular_support():
    # support away from 0: must match direct quadrature
    bump = BumpFunction.standard(1.5, 1.0)
    a, d, s = 3.7, 1, 0.8
    got = inverse_phase_integral(R, bump, a, d, s)
    ref, _ = quad_complex(
        lambda x: x ** (s - 1) * cmath.exp(-2j * math.pi * a / x**d) * bump(x),
        0.5,
        2.5,
        epsrel=1e-11,
    )
    assert abs(got.value - ref) < 1e-7
    assert got.error is not None and got.error < 1e-6


def test_inverse_real_below_zero():
    bump = BumpFunction.standard()
    mags = []
    grid = [10.0, 100.0, 1000.0]
    for a in grid:
        r = inverse_phase_integral(R, bump, a, 1, -0.5)
        assert math.isfinite(abs(r.value))
        mags.append(abs(r.value))
    slope = (math.log(mags[-1]) - math.log(mags[0])) / (math.log(grid[-1]) - math.log(grid[0]))
    assert -slope >= 0.95  # decay exponent >= 1/d = 1


def test_inverse_real_shifted_support_below_zero():
    # Re s < 0 and d = 2 on a support away from 0, against direct quadrature
    bump = BumpFunction.standard(1.5, 1.0)
    a, d, s = 4.9, 2, -0.9
    got = inverse_phase_integral(R, bump, a, d, s)
    ref, _ = quad_complex(
        lambda x: x ** (s - 1) * cmath.exp(-2j * math.pi * a / x**d) * bump(x), 0.5, 2.5, epsrel=1e-12, epsabs=1e-15
    )
    assert abs(got.value - ref) < 1e-10 * abs(ref)
    assert got.error < 1e-9


@pytest.mark.parametrize(
    "a, s, ref",
    [
        (0.4, -0.5, 0.13801928703022348),  # perfbench/refs.inverse_real, equal at tol 1e-8 and 1e-10
        (4.9, -0.9, 0.0011365477728256836),
        (1e-8, 1.0, 1.2069001250457965),  # mpmath: Si closed form on [0, 1e-6], quadrature in log x above
    ],
)
def test_inverse_real_centred_bump(a, s, ref):
    got = inverse_phase_integral(R, BumpFunction.standard(), a, 1, s)
    assert abs(got.value - ref) < (1e-12 if a < 1e-3 else 1e-10) * abs(ref)
    assert got.error < 1e-9


def _bump_continued(x, c: float, rad: float):
    """The standard bump on (c - rad, c + rad) at real x, and its analytic
    continuation at complex x."""
    u = (x - c) / rad
    if np.iscomplexobj(u):
        return np.exp(1.0 - 1.0 / (1.0 - u * u))
    return _bump_profile(x, c, rad)


def _inverse_reference(c: float, rad: float, a: float, d: int, s, nodes: int = 24, per: float = 0.5) -> complex:
    """int_R |x|^{s-1} e^{-2 pi i a / x^d} phi(x) dx for the standard bump on
    (c - rad, c + rad) with 0 inside, at distance e from its nearer end.
    Per half-line, in t = |x|^-d: Gauss-Legendre panels of at most ``per``
    radians of the phase on [R^-d, T], T = (1.5 / e)^d, and beyond T the
    ray t = T - i sgn(omega) tau, graded towards tau = 0, where |x| <= 2e/3."""
    s = complex(s)
    x, wq = np.polynomial.legendre.leggauss(nodes)
    rule = lambda edges: (((edges[:-1] + edges[1:]) / 2)[:, None] + ((edges[1:] - edges[:-1]) / 2)[:, None] * x, ((edges[1:] - edges[:-1]) / 2)[:, None] * wq)
    T = (1.5 / min(rad - c, rad + c)) ** d
    parts = []
    for sign, R in ((1.0, c + rad), (-1.0, rad - c)):
        omega = 2.0 * np.pi * a * sign**d
        g = lambda t: t ** (-s / d - 1.0) / d * _bump_continued(sign * t ** (-1.0 / d), c, rad)
        t, w = rule(np.linspace(R**-d, T, int(abs(omega) * (T - R**-d) / per) + int(100 / per) + 1))
        parts.append(np.sum(w * g(t) * np.exp(-1j * omega * t)))
        L = 60.0 / abs(omega)
        tau, w = rule(np.unique(np.concatenate([[0.0], L * 2.0 ** -np.arange(45.0, -1.0, -1.0), np.linspace(0.0, L, int(32 / per) + 1)])))
        sg = math.copysign(1.0, omega)
        parts.append(-1j * sg * np.exp(-1j * omega * T) * np.sum(w * g(T - 1j * sg * tau) * np.exp(-abs(omega) * tau)))
    return complex(sum(parts))


def test_inverse_reference_rule():
    # the in-test rule against mpmath, which takes [R^-d, T'] in panels of 3
    # radians and the ray from T' = (2.5 / e)^d, at 30 digits
    for c, rad, a, d, s in ((0.0, 1.0, 4.9, 1, -0.9), (0.3, 1.5, 3.0, 2, 0.3), (-0.2, 0.8, -7.0, 1, 2.0)):

        def bump(x):
            u = (x - c) / rad
            return mpmath.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else 0

        with mpmath.workdps(30):
            T, ref = (mpmath.mpf(2.5) / min(rad - c, rad + c)) ** d, 0
            for sign, R in ((1, c + rad), (-1, rad - c)):
                omega = 2 * mpmath.pi * a * sign**d
                g = lambda t: t ** (-mpmath.mpf(s) / d - 1) / d * bump(sign * t ** (-mpmath.mpf(1) / d))
                t0, sg = mpmath.mpf(R) ** -d, mpmath.sign(omega)
                ref += mpmath.quad(lambda t: g(t) * mpmath.expj(-omega * t), mpmath.linspace(t0, T, int(abs(omega) * (T - t0) / 3) + 2))
                ref += mpmath.quad(lambda tau: -1j * sg * g(T - 1j * sg * tau) * mpmath.expj(-omega * (T - 1j * sg * tau)), [0, 1, mpmath.inf])
            ref = complex(ref)
        assert abs(_inverse_reference(c, rad, a, d, s) - ref) < 3e-14 * abs(ref), (c, rad, a, d, s)


def test_inverse_real_within_its_error():
    # the inverse phase where 0 lies inside the support, QAWO and the
    # steepest-descent tail, holds its error estimate against the in-test
    # rule, which agrees with itself at a coarser resolution to a tenth of
    # that estimate.  The grid reaches Re s near -1, where QAWF's tail
    # under-reported
    for (c, rad), d, s, a in itertools.product(((0.0, 1.0), (0.3, 1.5), (-0.2, 0.8)), (1, 2, 3), (-0.9, -0.5, 0.3, 1.0, 2.0), (1e-8, 0.4, 3.0, 4.9, 30.0, -7.0)):
        got = inverse_phase_integral(R, BumpFunction.standard(c, rad), a, d, s)
        ref = _inverse_reference(c, rad, a, d, s)
        assert abs(ref - _inverse_reference(c, rad, a, d, s, 20, 0.7)) <= 0.1 * got.error, (c, rad, d, s, a)
        assert abs(got.value - ref) <= got.error, (c, rad, d, s, a, got, ref)


def _qawf_inverse(phi, a: float, d: int, s) -> tuple[complex, float]:
    """The inverse phase as QUADPACK alone takes it: per half-line, v = log y
    on [y*, R] and QAWO, or QAWF where r0 = 0, on [y*^-d, r0^-d]."""
    s = complex(s)
    power = -s.real / d - 1.0 if s.imag == 0.0 else -s / d - 1.0
    total, err = 0j, 0.0
    for sign, r0, R in oscillatory._halflines(phi.support):
        A = a * sign**d
        ystar = min(max(abs(A) ** (1.0 / d), r0), R)
        if ystar < R:
            f = lambda v: cmath.exp(s * v - 2j * math.pi * A * math.exp(-d * v)) * phi(sign * math.exp(v))
            val, e = quad_complex(f, math.log(ystar), math.log(R), epsabs=1e-14)
            total, err = total + val, err + e
        if ystar > r0:
            g = lambda t: (1.0 / d) * t**power * phi(sign * t ** (-1.0 / d))
            val, e = quad_oscillatory(g, ystar**-d, math.inf if r0 == 0.0 else r0**-d, 2.0 * math.pi * A, epsabs=1e-14)
            total, err = total + val, err + e
    return total, err


def test_inverse_real_end_at_zero_keeps_qawf(monkeypatch):
    # a support with an end at 0 has the bump's essential singularity at
    # t = inf, so its tail stays with QAWF, with the bits of QUADPACK alone;
    # so does a support that misses 0, with QAWO
    tops = []
    monkeypatch.setattr(oscillatory, "quad_oscillatory", lambda f, a, b, *args, **kw: tops.append(b) or quad_oscillatory(f, a, b, *args, **kw))
    for (c, rad), d, s, a in itertools.product(((1.0, 1.0), (-1.0, 1.0), (1.5, 1.0)), (1, 2), (-0.5, 1.0, 0.75 + 0.5j), (0.4, 4.9, -7.0)):
        tops.clear()
        phi = BumpFunction.standard(c, rad)
        got = inverse_phase_integral(R, phi, a, d, s)
        assert (repr(got.value), repr(got.error)) == tuple(map(repr, _qawf_inverse(phi, a, d, s))), (c, rad, d, s, a)
        assert tops == [math.inf] if c != 1.5 else not any(map(math.isinf, tops)), (c, rad, d, s, a, tops)


@pytest.mark.parametrize(
    "place, phi",
    [
        (Place.finite(5), StepFunction.indicator_zp(3)),
        (Place.finite(5), BumpFunction.standard()),
        (R, StepFunction.indicator_zp(3)),
        (R, RadialBump(BumpFunction.standard())),
        (Place.complex_(), BumpFunction.standard()),
    ],
    ids=["Q5-step-at-3", "Q5-bump", "R-step", "R-radial", "C-bump"],
)
def test_test_function_must_fit_the_place(place, phi):
    with pytest.raises(ValueError, match="test functions at"):
        osc_integral_1d(place, phi, 0, 1, 2.0)
    with pytest.raises(ValueError, match="test functions at"):
        osc_integral_nd(place, (phi, phi), 1, (1, 1), (2.0, 2.0))
    with pytest.raises(ValueError, match="test functions at"):
        inverse_phase_integral(place, phi, 3, 1, 2.0)
    with pytest.raises(ValueError, match="test functions at"):
        tate_integral(place, phi, 2.0)
    with pytest.raises(ValueError, match="test functions at"):
        fourier_test_fn(place, phi)(1)

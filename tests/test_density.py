import cmath
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, dblquad, quad

import heightzeta
from heightzeta import density
from heightzeta.boundary import ep_rank, exponent_b
from heightzeta.catalog import MODELS, CompactificationModel, get_model
from heightzeta.density import (
    arch_density,
    brute_density_oracle,
    char_bound_quantity,
    denef_density,
    euler_product,
    fourier_finite,
    s_vector,
    tau_adelic,
    tau_max_boundary,
    theta_constant,
    theta_factored,
    zeta_S,
)
from heightzeta.errors import ConfigError, NonconvergentError, NumericError, PoleError
from heightzeta.localfield import Place, padic, primes_upto, psi

F = Fraction
R = Place.real()

S_GRID = [1.2, 1.5, 2.0, 2.75, 1.4 + 0.5j, 2.0 + 1.0j]


def test_denef_E1_delta_restricted():
    for p in (2, 3, 5, 7):
        assert abs(denef_density(get_model("E1"), p, 2.0) - 1.0) < 1e-15


def test_denef_E2_closed_form():
    # rational-point density of the line: p^{-1}[p + (p-1)/(p^{s_a - 1} - 1)]
    # (exponent forced by the direct-integration oracle; see the grid test)
    m = get_model("E2")
    for p in (2, 3, 5):
        for s0 in (1.2, 1.8):
            sa = 2.0 * s0  # lambda = 2
            want = (p + (p - 1) / (p ** (sa - 1) - 1)) / p
            assert abs(denef_density(m, p, s0) - want) < 1e-13


def test_denef_E4_geometric_series():
    m = get_model("E4")
    for p in (2, 3, 5):
        for s0 in (1.1, 1.6, 2.3):
            want = (1 - p ** (-2 * s0)) / (1 - p ** (1 - 2 * s0))
            assert abs(denef_density(m, p, s0) - want) < 1e-13


def test_denef_pole():
    with pytest.raises(PoleError):
        denef_density(get_model("E2"), 3, 0.5)  # s_alpha = rho - 1 at s0 = 1/2


def test_denef_density_array_matches_scalar():
    primes = np.array(primes_upto(1000))
    for mid in MODELS:
        m = get_model(mid)
        for restrict in (True, False):
            for s0 in (1.05, 2.0, 2.3 + 0.7j):
                scalar = [denef_density(m, int(p), s0, restrict=restrict) for p in primes]
                assert all(type(v) is complex for v in scalar)
                got = denef_density(m, primes, s0, restrict=restrict)
                assert got.shape == primes.shape
                assert np.all(np.abs(got - scalar) <= 2e-15 * np.abs(scalar)), (mid, restrict, s0)
    with pytest.raises(PoleError, match="p=2,"):
        denef_density(get_model("E2"), primes, 0.5)


CONTOUR = 1.0 + 0.03 * np.exp(2j * np.pi * np.arange(16) / 16)


def test_denef_density_broadcasts_over_s():
    primes = np.array(primes_upto(60))[:, None]
    nodes = np.concatenate([CONTOUR, [1.05, 2.0, 2.3 + 0.7j]])
    for mid in MODELS:
        m = get_model(mid)
        for restrict in (True, False):
            got = denef_density(m, primes, nodes, restrict=restrict)
            assert got.shape == (len(primes), len(nodes))
            want = np.array([[denef_density(m, int(p), s, restrict=restrict) for s in nodes] for p in primes[:, 0]])
            assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want)), (mid, restrict)
            assert np.array_equal(denef_density(m, primes, s_vector(m, nodes), restrict=restrict), got)
            assert type(denef_density(m, 5, complex(nodes[3]), restrict=restrict)) is complex


def test_denef_pole_in_s_array():
    # E2 has w = s_alpha - rho_alpha + 1 = 0 at s0 = 1/2: the pole is named at the first prime
    with pytest.raises(PoleError, match="p=3, s_"):
        denef_density(get_model("E2"), np.array([[3], [5]]), np.array([1.5, 0.5, 2.0]))


def _theta_scalar_loop(model, S, prime_cutoff):
    """theta_constant with one scalar denef_density call per contour node and
    prime of S: the reference for the array evaluation of the contour."""
    b = exponent_b(model, S)
    m = b - ep_rank(model)
    mean = 0j
    for k in range(density._CONTOUR_NODES):
        z = density._CONTOUR_RADIUS * cmath.exp(2j * math.pi * k / density._CONTOUR_NODES)
        val = z**m * arch_density(model, 0, 1.0 + z)
        for v in S:
            if v.is_finite:
                val *= denef_density(model, v.prime, s_vector(model, 1.0 + z), restrict=False)
        mean += val
    _, full, _ = density._euler_pass(model, s_vector(model, 1.0), S, prime_cutoff)
    tau = math.prod(1.0 - 1.0 / v.prime for v in S if v.is_finite) ** ep_rank(model) * full.real
    theta = tau * (mean.real / density._CONTOUR_NODES) / math.factorial(b - 1)
    for alpha in model.divisors.kept:
        theta /= model.divisors.rho_of(alpha)
    return theta


@pytest.mark.parametrize("primes", [(5,), (2, 3), (2, 3, 5, 7)])
def test_theta_contour_matches_scalar_loop(primes):
    S = [R] + [Place.finite(p) for p in primes]
    for mid in MODELS:
        for cutoff in (500, 10_000):
            got = theta_constant(get_model(mid), S, prime_cutoff=cutoff).theta
            want = _theta_scalar_loop(get_model(mid), S, cutoff)
            assert abs(got - want) <= 1e-15 * abs(want), (mid, primes, cutoff, got, want)


T3 = {"Dx": (0,), "Dy": (1,), "Dz": (2,)}


def test_denef_equals_oracle_grid():
    cases = [(get_model(mid), p, S_GRID) for mid in MODELS for p in (2, 3, 5, 7)]
    cases += [
        (m, p, (1.5, 2.0 + 0.5j))
        for m in (CompactificationModel("P3", {"H": (0, 1, 2)}), CompactificationModel("T3", T3, removed={"Dz"}))
        for p in (2, 3)
    ]
    for m, p, svals in cases:
        for s0 in svals:
            for restrict in (True, False):
                d = denef_density(m, p, s0, restrict=restrict)
                o = brute_density_oracle(m, p, s0, m=3, restrict=restrict)
                assert abs(d - o) < 1e-12, (m.id, sorted(m.divisors.removed), p, s0, restrict)


def test_oracle_depth_independence():
    m = get_model("E6")
    assert abs(brute_density_oracle(m, 3, 1.4, 2) - brute_density_oracle(m, 3, 1.4, 5)) < 1e-13


def test_warm_oracle_equals_fresh_walk(monkeypatch):
    # the oracle keeps one prober per model, prime and integrality flag; the
    # reference builds a new one on every call
    grid = [
        (get_model(mid), p, s0, depth, restrict)
        for depth in (2, 3, 5)
        for restrict in (True, False)
        for mid in MODELS
        for p in (2, 3, 5, 7)
        for s0 in S_GRID
    ]
    for m, p, s0, depth, restrict in grid:  # every cell of the grid is certified before the warm pass
        brute_density_oracle(m, p, s0, depth, restrict)
    warm = [repr(brute_density_oracle(m, p, s0, depth, restrict)) for m, p, s0, depth, restrict in grid]
    monkeypatch.setattr(density, "_prober", density._CellProber)
    fresh = [repr(brute_density_oracle(m, p, s0, depth, restrict)) for m, p, s0, depth, restrict in grid]
    assert warm == fresh


def test_oracle_same_id_models():
    # three models share the id T3 and differ in their removed set alone,
    # so each must be certified on its own integral points
    for p in (2, 3):
        for s0 in (1.5, 2.0 + 0.5j):
            for removed in ({"Dx", "Dy", "Dz"}, {"Dy", "Dz"}, {"Dz"}):
                m = CompactificationModel("T3", T3, removed=removed)
                d = denef_density(m, p, s0)
                o = brute_density_oracle(m, p, s0, 3)
                assert abs(d - o) < 1e-12, (sorted(removed), p, s0)


def test_oracle_outside_convergence():
    m = get_model("E2")
    warm = brute_density_oracle(m, 3, 2.0, 3)
    with pytest.raises(NonconvergentError):
        brute_density_oracle(m, 3, 0.45, 3)  # s_alpha = 0.9 <= 1
    # certified cells are kept across calls, but the convergence check is not
    again = brute_density_oracle(m, 3, 2.0, 3)
    assert repr(again) == repr(warm)
    assert abs(again - denef_density(m, 3, 2.0)) < 1e-12


def test_unrestricted_densities():
    # at places of S the integral runs over all of X(Q_p)
    for p in (2, 5):
        got = denef_density(get_model("E1"), p, 1.5, restrict=False)
        want = (1 - p**-1.5) / (1 - p**-0.5)
        assert abs(got - want) < 1e-13
        o = brute_density_oracle(get_model("E1"), p, 1.5, 3, restrict=False)
        assert abs(got - o) < 1e-13


# ---------------------------------------------------------------------------
# archimedean densities


def test_arch_closed_forms():
    assert arch_density(get_model("E1"), 0, 2.0) == pytest.approx(4.0)
    assert arch_density(get_model("E3"), 0, 2.0) == pytest.approx(8.0)
    assert arch_density(get_model("E4"), 0, 1.5).real == pytest.approx((2 + 1) * (2 + 4))


def _quad_max1d(w: float) -> float:
    """Direct quadrature of int max(1,|x|)^{-w} dx."""
    head, _ = quad(lambda x: 1.0, -1.0, 1.0)
    tail, _ = quad(lambda x: x ** (-w), 1.0, math.inf)
    return head + 2.0 * tail


def _quad_joint_max(w: float) -> float:
    """Direct quadrature of int max(1,|x|,|y|)^{-w} dx dy on the
    compactified square."""

    def integrand(u, v):
        x = u / (1.0 - u * u)
        y = v / (1.0 - v * v)
        jac = (1.0 + u * u) / (1.0 - u * u) ** 2 * (1.0 + v * v) / (1.0 - v * v) ** 2
        return max(1.0, abs(x), abs(y)) ** (-w) * jac

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(integrand, -1.0, 1.0, -1.0, 1.0, epsabs=1e-10, epsrel=1e-9)
    return val


def test_arch_block_without_transform():
    # blocks P^k with k >= 3 have no real-place transform yet
    P3 = CompactificationModel("P3", {"H": (0, 1, 2)}, removed={"H"})
    with pytest.raises(ConfigError, match="size 3"):
        arch_density(P3, 0, 2.0)
    with pytest.raises(ConfigError, match="size 3"):
        theta_constant(P3, [R])


def test_arch_quadrature_matches_closed_forms():
    # the closed forms at a = 0 against direct quadrature of each block
    by_size = {1: _quad_max1d, 2: _quad_joint_max}
    for mid, s0 in [("E1", 2.0), ("E2", 1.5), ("E3", 1.7), ("E4", 1.6), ("E5", 1.4), ("E6", 1.3)]:
        m = get_model(mid)
        c = arch_density(m, 0, s0)
        q = math.prod(by_size[len(idx)](m.divisors.lam(alpha) * s0) for alpha, idx in m.norm_coords.items())
        assert abs(c - q) < 2e-4 * abs(c), mid


def test_arch_oscillatory_vs_reference():
    # E1, a = 1 against an independent high-precision quadrature of the
    # real and imaginary parts; the inner [-1,1] piece vanishes at integer a
    for s in (3.0, 3.0 + 0.5j):
        got = arch_density(get_model("E1"), 1, s)
        w = mpmath.mpmathify(s)

        def part(take):
            return mpmath.quadosc(
                lambda x: take(mpmath.power(x, -w)) * mpmath.cos(2 * mpmath.pi * x), [1, mpmath.inf], period=1
            )

        ref = 2 * complex(part(mpmath.re), part(mpmath.im))
        assert abs(got - ref) < 1e-10, s


def test_arch_joint_character():
    m3 = get_model("E3")
    got = arch_density(m3, (1, 0), 1.6)
    xs = np.linspace(-40, 40, 8001)
    X, Y = np.meshgrid(xs, xs)
    W = np.maximum(1, np.maximum(np.abs(X), np.abs(Y))) ** (-3.2) * np.exp(-2j * np.pi * X)
    brute = np.trapezoid(np.trapezoid(W, xs, axis=1), xs)
    assert abs(got - brute) < 5e-4


def test_arch_joint_character_axis():
    # a = (0, 1): the x-transform has frequency 0, where the cosine weight
    # is not used.  The x-integral is 2 M^{1-w} w/(w-1), M = max(1, |y|),
    # and the [-1, 1] piece of the y-integral vanishes at a2 = 1
    w = 3.2
    got = arch_density(get_model("E3"), (0, 1), w / 2)
    tail = mpmath.quadosc(lambda y: mpmath.power(y, 1 - w) * mpmath.cos(2 * mpmath.pi * y), [1, mpmath.inf], period=1)
    ref = float(2 * w / (w - 1) * 2 * tail)
    assert abs(got - ref) < 1e-10


def _power_tail_mp(w, b, kind: str):
    """int_1^inf x^{-w} cos(bx) or sin(bx) dx from E_w(-+ib) = int_1^inf
    x^{-w} e^{+-ibx} dx, at the working precision of mpmath."""
    if b == 0:
        return 1 / (w - 1) if kind == "cos" else mpmath.mpf(0)
    e_plus, e_minus = mpmath.expint(w, -1j * b), mpmath.expint(w, 1j * b)
    return (e_plus + e_minus) / 2 if kind == "cos" else (e_plus - e_minus) / 2j


def _joint_max_mp(a1: float, a2: float, w) -> complex:
    """4 int_0^inf int_0^inf max(1,x,y)^{-w} cos(b1 x) cos(b2 y) dx dy in
    closed form: over the unit square, and where one coordinate is the
    maximum the other integrates to sin(b t)/b."""
    with mpmath.workdps(30):
        w = mpmath.mpmathify(w)
        b1, b2 = sorted(2 * mpmath.pi * abs(mpmath.mpf(t)) for t in (a1, a2))
        if b2 == 0:
            return complex(4 + 8 / (w - 2))
        if b1 == 0:
            return complex(4 * ((mpmath.sin(b2) + _power_tail_mp(w, b2, "sin")) / b2 + _power_tail_mp(w - 1, b2, "cos")))
        s_sum, s_diff = _power_tail_mp(w, b2 + b1, "sin"), _power_tail_mp(w, b2 - b1, "sin")
        box = mpmath.sin(b1) * mpmath.sin(b2) / (b1 * b2)
        return complex(4 * (box + (s_sum - s_diff) / (2 * b1) + (s_sum + s_diff) / (2 * b2)))


def test_arch_joint_max_vs_expint():
    # E3 (lambda = 2) and E6 (lambda = 3); frequencies below 1 take the
    # split path of the power tails, and a1 = a2 has a zero difference
    grid = (0.0, 1e-3, 0.05, 0.5, 1.0, 2.0, 5.0)
    for mid, lam, s0s in (("E3", 2, (3.0, 1.25 + 0.35j)), ("E6", 3, (2.0, 1.5 - 0.5j))):
        m = get_model(mid)
        for s0 in s0s:
            for a in itertools.product(grid, repeat=2):
                got = arch_density(m, a, s0)
                ref = _joint_max_mp(*a, lam * s0)
                assert abs(got - ref) <= 1e-10 * abs(ref), (mid, s0, a, got, ref)


def test_arch_tiny_characters():
    # QAWF by itself gives inf+nanj, 2.0 and 0.2806 here.  A power tail below
    # frequency 1 is split, and a joint character with 0 < b1 < 1e-4 b2
    # raises rather than lose digits in the divided difference
    E1, E3 = get_model("E1"), get_model("E3")
    for a in (1e-5, 1e-7):
        b = 2 * math.pi * a
        with mpmath.workdps(30):
            ref = complex(2 * mpmath.sin(b) / b + 2 * _power_tail_mp(mpmath.mpf(6), b, "cos"))
        got = arch_density(E1, a, 6.0)
        assert abs(got - ref) <= 1e-10 * abs(ref), (a, got, ref)
    for a in ((1e-5, 1.0), (1e-7, 1.0)):
        with pytest.raises(NumericError):
            arch_density(E3, a, 3.0)
    # a power tail with Re w <= 0 diverges; its Abel value at (E1, 0.08, 0) is
    # 0, and QUADPACK returned -3.348, -2.862 and -0.2956 for the first three
    for model, a, s0 in ((E1, 0.08, 0.0), (E1, 0.08, -0.5), (E3, (0.0, 0.5), 0.4), (E3, (0.3, 0.5), 0.0)):
        with pytest.raises(NonconvergentError):
            arch_density(model, a, s0)


def test_arch_density_even_in_a():
    # poisson_crosscheck computes each transform once per |a|, which needs
    # the two signs to agree bit for bit
    for mid, s0 in (("E1", 3.0), ("E1", 1.3), ("E2", 1.5), ("E2", 3.0)):
        m = get_model(mid)
        for a in (1, 2, 7, 40, 0.37):
            assert arch_density(m, a, s0) == arch_density(m, -a, s0), (mid, s0, a)


# ---------------------------------------------------------------------------
# finite-place character transforms


def test_lattice_vanishing():
    for mid in MODELS:
        m = get_model(mid)
        for p in (2, 3, 5):
            a = tuple([F(1, p)] + [F(1)] * (m.dim - 1))
            assert fourier_finite(m, p, a, 1.6) == 0


def test_fourier_E1_delta():
    m = get_model("E1")
    for p in (2, 5):
        for a in (F(1), F(3), F(p)):
            assert abs(fourier_finite(m, p, (a,), 2.0) - 1.0) < 1e-14


def test_fourier_E2_brute():
    # independent check: residue-class sum over p^{-2} Z_p mod p^2 plus
    # character orthogonality killing the deeper shells
    m = get_model("E2")
    ctx3 = padic(3)
    place = Place.finite(3)
    for a in (F(1), F(2), F(3), F(6)):
        for s0 in (1.3, 1.9):
            w = 2.0 * s0
            j = ctx3.valuation(a)
            kmax = j + 1
            brute = 0j
            Mex = kmax + 2  # classes of p^{-kmax} Z_p mod p^2: width p^{-2}
            for idx in range(3 ** (kmax + 2)):
                c = F(idx, 3**kmax)
                brute += (
                    float(max(1, ctx3.abs(c))) ** (-w) * psi(place, a * c) * 3.0 ** (-2)
                )
            got = fourier_finite(m, 3, (a,), s0)
            assert abs(got - brute) < 1e-12, (a, s0)


def _brute_transform(m, p: int, a, s0, K: int) -> complex:
    """sum over x in (p^-K Z_p / Z_p)^n of delta(x) prod ||f_alpha(x)||^{s_alpha}
    psi(<a, x>), each class of volume 1.  For a in Z_p^n the integrand is
    constant on the classes, and for a nonzero on every kept block, of
    valuation below K there, nothing lies outside p^-K Z_p^n."""
    place = Place.finite(p)
    smap = s_vector(m, s0)
    total = 0j
    for us in itertools.product(range(p**K), repeat=m.dim):
        x = tuple(F(u, p**K) for u in us)
        if m.is_integral(place, x):
            h = math.prod(float(m.local_height(place, alpha, x)) ** smap[alpha] for alpha in m.divisors.labels)
            total += h * psi(place, sum(ai * xi for ai, xi in zip(a, x)))
    return total


@pytest.mark.parametrize(
    "mid, p, a, s0",
    [
        ("E3", 2, (1, 0), 1.6),
        ("E4", 3, (3, 0), 1.7),
        ("E4", 3, (2, 5), 1.4 + 0.5j),
        ("E4", 2, (4, 1), 1.6),
        ("E5", 2, (0, 4), 1.6),
        ("E6", 2, (4, 6), 1.3 + 0.4j),
        ("E6", 5, (5, 10), 1.8),
        ("E6", 2, (8, 0), 1.6),  # the depth-3 cell sum raised NumericError on these two
        ("E6", 3, (0, 27), 1.6),
    ],
)
def test_fourier_finite_brute(mid, p, a, s0):
    m, a = get_model(mid), tuple(F(t) for t in a)
    K = 1 + max(padic(p).valuation(t) for t in a if t)
    want = _brute_transform(m, p, a, s0, K)
    got = fourier_finite(m, p, a, s0)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_fourier_finite_array_s():
    """An array s at a nonzero character gives the scalar values in its
    shape, at characters of valuation 0 to 3; off Z_p^n, zeros of that shape."""
    s_arr = np.array([[1.5, 2.0, 2.5], [1.7 + 0.3j, 3.0, 1.9 - 0.2j]])
    for mid in ("E2", "E3", "E4", "E5", "E6"):
        m = get_model(mid)
        for p in (2, 3, 5):
            for v in range(4):
                for a in ((p**v * (p + 1),) + (0,) * (m.dim - 1), (p ** (v + 1),) * (m.dim - 1) + (p**v,)):
                    got = fourier_finite(m, p, a, s_arr)
                    assert got.shape == s_arr.shape and got.dtype == complex
                    want = [[fourier_finite(m, p, a, complex(t)) for t in row] for row in s_arr]
                    assert got.tolist() == want, (mid, p, a)
            off = fourier_finite(m, p, (F(1, p),) + (0,) * (m.dim - 1), s_arr)
            assert off.shape == s_arr.shape and not off.any()


def test_fourier_finite_nonconvergent():
    # E4's kept block at a zero character is 1 + (1 - 1/p) r/(1 - r) with
    # r = p^{1 - 2 s}, which diverges at s = 1/2
    with pytest.raises(NonconvergentError):
        fourier_finite(get_model("E4"), 3, (F(0), F(1)), 0.5)


@pytest.mark.parametrize(
    "mid, p, a, s0, want",
    [
        ("E4", 2, (4, 0), 2.07791, 1.061689820431344),
        ("E3", 5, (7, 0), 1.68337, 1.0),
        ("E5", 2, (0, 12), 1.85488, 1.0),
        ("E1", 3, (15,), 2.09054, 1.0),
        ("E6", 5, (0, 20), 1.78617, 1.0043121333137404),
        ("E2", 2, (4,), 2.05239, 1.0640925587707175),
        ("E4", 7, (63, 10), 2.00714, 1.0024293259962154),
        ("E6", 3, (5, 6), 1.49337, 0.9927147527520098),
    ],
)
def test_fourier_finite_pinned(mid, p, a, s0, want):
    # the seed-0 benchmark characters, pinned to the residue-cell sum's values
    got = fourier_finite(get_model(mid), p, tuple(map(F, a)), s0)
    assert abs(got - want) <= 1e-14 * want, got


def test_fourier_finite_past_the_float_range():
    # at s = 1.6 the shells shrink like 7^{-2.8 j}, so those past the float
    # range of p^{jk} (j > 182) add nothing: valuations 180 and 200 agree
    E6 = get_model("E6")
    at180 = fourier_finite(E6, 7, (7**180, 0), 1.6)
    assert repr(at180) == "(1.0042329510715917+0j)"
    assert fourier_finite(E6, 7, (7**200, 0), 1.6) == at180
    # at s = 0.3 the shells grow like 7^{1.1 j}, and valuation 400 passes
    # the float range
    with pytest.raises(NumericError):
        fourier_finite(E6, 7, (7**400, 0), 0.3)


def test_fourier_finite_running_power_matches_per_shell_powers():
    # the shells' integer weights p^{jk} - p^{(j-1)k} were once raised to
    # their powers afresh at each shell j; carrying the running power gives
    # the same integers, so the same bits
    def per_shell(p, k, t, b):
        lnp = math.log(p)
        v = min(padic(p).valuation(c) for c in b if c != 0)
        total = 1 + 0j
        for j in range(1, v + 1):
            total += density._times_power(p ** (j * k) - p ** ((j - 1) * k), -(t * j), lnp)
        total -= density._times_power(p ** (v * k), -(t * (v + 1)), lnp)
        return total

    cases = [(p, p**v) for p in (2, 7) for v in range(61)] + [(7, 7**1000)]
    for mid in ("E2", "E4", "E6"):
        m = get_model(mid)
        for s0 in (1.6, 1.4 + 0.5j):
            smap = s_vector(m, s0)
            for p, c in cases:
                a = (F(3 * c),) + (F(0),) * (m.dim - 1)
                want = math.prod(
                    per_shell(p, len(idx), smap[alpha], tuple(a[i] for i in idx))
                    for alpha, idx in m.norm_coords.items()
                    if alpha not in m.divisors.removed
                )
                got = fourier_finite(m, p, a, s0)
                assert repr(got) == repr(complex(want)), (mid, s0, p, c)


def test_char_bound_decay():
    # |1 - H^_p(a;s) prod(...)| * p^{3/2} bounded over p <= 100, stable
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    for mid in ("E1", "E2"):
        m = get_model(mid)
        smap = {a: m.divisors.rho_of(a) - 0.5 + 0.1 + 0.0j for a in m.divisors.labels}
        for a in (F(1), F(6)):
            vals = [char_bound_quantity(m, p, (a,), smap) * p**1.5 for p in primes]
            c_half = max(vals[: len(vals) // 2])
            c_full = max(vals)
            assert c_full < 10.0
            if c_full > 1e-12:
                assert c_full <= 2.0 * max(c_half, 1e-12)


# ---------------------------------------------------------------------------
# Euler products and the constant


def test_euler_product_tail_invariant():
    for mid in ("E2", "E4", "E6"):
        m = get_model(mid)
        e1 = euler_product(m, 1.4, [R], cutoff=1000)
        e2 = euler_product(m, 1.4, [R], cutoff=2000)
        assert abs(e1.corrected - e2.corrected) <= 2.0 * e1.tail_estimate + 1e-12


def test_euler_product_matches_prime_loop():
    # the left-to-right product over scalar local factors it replaced
    cutoff = 2000
    for mid in ("E2", "E4", "E6"):
        m = get_model(mid)
        for fin in ((), (5,), (2, 3)):
            S = [R] + [Place.finite(p) for p in fin]
            for s0 in (1.05, 1.5, 1.5 + 0.4j):
                smap = s_vector(m, s0)
                ws = [1.0 + (smap[a] - m.divisors.rho_of(a)).real for a in m.divisors.kept]
                head = math.prod(zeta_S(w, S) for w in ws)
                partial = corrected = 1.0 + 0j
                for p in primes_upto(cutoff):
                    if p in fin:
                        continue
                    loc = denef_density(m, p, smap)
                    reg = loc
                    for w in ws:
                        reg *= 1.0 - p ** (-w)
                    partial *= loc
                    corrected *= reg
                e = euler_product(m, s0, S, cutoff=cutoff)
                assert abs(e.partial - partial) <= 1e-13 * abs(partial), (mid, fin, s0)
                assert abs(e.corrected - corrected * head) <= 1e-13 * abs(corrected * head), (mid, fin, s0)


def test_products_without_primes():
    # no prime outside S up to the cutoff: the empty product, pinned by repr
    Q2, Q3 = Place.finite(2), Place.finite(3)
    e = euler_product(get_model("E2"), 1.5, [R], cutoff=1)
    assert repr(e) == "EulerProductValue(cutoff=1, partial=(1+0j), corrected=(1.6449340668482264+0j), tail_estimate=0.0)"
    assert e.corrected == zeta_S(2.0, [R])
    e = euler_product(get_model("E2"), 1.5, [R, Q2, Q3], cutoff=3)
    assert repr(e) == "EulerProductValue(cutoff=3, partial=(1+0j), corrected=(1.096622711232151+0j), tail_estimate=0.0)"
    assert e.corrected == zeta_S(2.0, [R, Q2, Q3])
    assert repr(tau_adelic(get_model("E4"), [R], cutoff=1)) == "1.0"


def test_theta_values():
    cases = [
        ("E1", 2.0, 1, 1e-3),
        ("E3", 4.0, 1, 5e-3),
        ("E5", 4.0, 2, 1e-2),
        ("E4", 24 / math.pi**2, 2, 1e-2),
        ("E2", 12 / math.pi**2, 1, 1e-2),
        ("E6", 4 / 1.2020569031595943, 1, 1e-2),
    ]
    for mid, want, b, tol in cases:
        r = theta_constant(get_model(mid), [R], prime_cutoff=4000)
        assert r.b == b
        assert abs(r.theta - want) <= tol * want, (mid, r.theta, want)
        assert r.theta > 0


def test_theta_with_finite_place():
    # E1 over S = {real, 5}: residue 2 * (1 - 1/5)/log 5 at a double pole
    r = theta_constant(get_model("E1"), [R, Place.finite(5)], prime_cutoff=2000)
    want = 2.0 * (1 - 1 / 5) / math.log(5)
    assert r.b == 2
    assert abs(r.theta - want) < 1e-2 * want


def test_theta_independent_of_hash_seed():
    # E4's two labels form a frozenset whose order follows the string hash;
    # the factors of a face are multiplied in label order instead
    code = (
        "from heightzeta.catalog import get_model; from heightzeta.localfield import Place; "
        "from heightzeta.density import theta_constant; "
        "print(repr(theta_constant(get_model('E4'), [Place.real(), Place.finite(5)]).theta))"
    )
    src = str(Path(heightzeta.__file__).parents[1])
    out = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "4")
    ]
    assert out[0] == out[1] and float(out[0]) > 0, out


def test_theta_factorial_normalization():
    # E5 over S = {real, 3} has a pole of order 4; the 1/(b-1)! bookkeeping
    # is forced by the closed forms of both local factors
    r = theta_constant(get_model("E5"), [R, Place.finite(3)], prime_cutoff=2000)
    want = 4.0 * ((1 - 1 / 3) / math.log(3)) ** 2 / math.factorial(3)
    assert r.b == 4
    assert abs(r.theta - want) < 1e-3 * want


def test_tau_max_values():
    assert tau_max_boundary(get_model("E1"), R) == pytest.approx(2.0)
    assert tau_max_boundary(get_model("E3"), R) == pytest.approx(4.0)
    assert tau_max_boundary(get_model("E4"), R) == pytest.approx(8.0)
    assert tau_max_boundary(get_model("E5"), R) == pytest.approx(4.0)
    p5 = Place.finite(5)
    assert tau_max_boundary(get_model("E1"), p5) == pytest.approx((1 - 1 / 5) / math.log(5))
    for mid in ("E2", "E6"):  # nothing removed
        with pytest.raises(ConfigError):
            tau_max_boundary(get_model(mid), R)


def test_theta_closed_forms():
    # (Theta (b-1)!, b) from the residues at s = 1 of the local factors at the
    # places of S; the Euler factors of E1, E3 and E5 are all 1
    def closed(mid, primes):
        k = len(primes)
        if mid == "E1":
            return 2.0 * math.prod((1 - 1 / p) / math.log(p) for p in primes), 1 + k
        if mid == "E3":
            return 4.0 * math.prod((1 - p**-2) / (2 * math.log(p)) for p in primes), 1 + k
        return 4.0 * math.prod(((1 - 1 / p) / math.log(p)) ** 2 for p in primes), 2 + 2 * k

    for mid in ("E1", "E3", "E5"):
        for primes in ((), (5,), (7,), (2, 3), (2, 3, 5)):
            want, b = closed(mid, primes)
            want /= math.factorial(b - 1)
            r = theta_constant(get_model(mid), [R] + [Place.finite(p) for p in primes])
            assert r.b == b
            assert abs(r.theta - want) <= 1e-12 * want, (mid, primes, r.theta, want)
            # each Euler factor is exactly 1, so a longer product adds no rounding
            r = theta_constant(get_model(mid), [R] + [Place.finite(p) for p in primes], prime_cutoff=100_000)
            assert abs(r.theta - want) <= 1e-14 * want, (mid, primes, r.theta, want)
    want = 4.0 / float(mpmath.zeta(3))
    r = theta_constant(get_model("E6"), [R], prime_cutoff=10_000)
    assert abs(r.theta - want) <= 1e-8 * want, (r.theta, want)


def test_theta_cross_validation():
    # the two routes share the Euler product, so where the factored route's
    # missing 1/(b-1)! is 1 they agree to rounding
    for mid in ("E1", "E3", "E4", "E5"):
        m = get_model(mid)
        for primes in ((), (5,), (7,)):
            S = [R] + [Place.finite(p) for p in primes]
            if exponent_b(m, S) > 2:
                continue
            t1 = theta_constant(m, S, prime_cutoff=4000).theta
            t2 = theta_factored(m, S, cutoff=4000)
            assert abs(t1 - t2) <= 1e-12 * abs(t1), (mid, primes, t1, t2)


def test_theta_factored_block_models():
    # the boundary masses are products over the blocks, so the factored
    # route equals the pole route up to the (b-1)! it does not divide by
    # (ROADMAP item 1; its fix drops the factorial here)
    P2xP1 = {"H": (0, 1), "D": (2,)}
    models = [get_model(mid) for mid in ("E1", "E3", "E4", "E5")] + [
        CompactificationModel(name, blocks, removed=removed)
        for name, blocks, removed in [
            ("T3", T3, {"Dx", "Dy", "Dz"}),
            ("T3", T3, {"Dy", "Dz"}),
            ("T3", T3, {"Dz"}),
            ("P2xP1", P2xP1, {"H"}),
            ("P2xP1", P2xP1, {"D"}),
            ("P2xP1", P2xP1, {"H", "D"}),
        ]
    ]
    for m in models:
        for primes in ((), (5,), (2, 3)):
            S = [R] + [Place.finite(p) for p in primes]
            pole = theta_constant(m, S, prime_cutoff=4000)
            fact = theta_factored(m, S, cutoff=4000)
            want = math.factorial(pole.b - 1) * pole.theta
            assert abs(fact - want) <= 1e-12 * want, (m.id, sorted(m.divisors.removed), primes, fact, want)


def test_positivity():
    for mid in MODELS:
        m = get_model(mid)
        assert denef_density(m, 3, 1.7).real > 0
        assert arch_density(m, 0, 1.7).real > 0

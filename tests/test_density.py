import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from heightzeta.boundary import exponent_b
from heightzeta.catalog import MODELS, get_model
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


def test_denef_equals_oracle_grid():
    for mid in MODELS:
        m = get_model(mid)
        for p in (2, 3, 5, 7):
            for s0 in S_GRID:
                d = denef_density(m, p, s0)
                o = brute_density_oracle(m, p, s0, m=3)
                assert abs(d - o) < 1e-12, (mid, p, s0)


def test_oracle_depth_independence():
    m = get_model("E6")
    assert abs(brute_density_oracle(m, 3, 1.4, 2) - brute_density_oracle(m, 3, 1.4, 5)) < 1e-13


def test_oracle_outside_convergence():
    with pytest.raises(NonconvergentError):
        brute_density_oracle(get_model("E2"), 3, 0.45, 3)  # s_alpha = 0.9 <= 1


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


def test_arch_quadrature_matches_closed_forms():
    for mid, s0 in [("E1", 2.0), ("E2", 1.5), ("E3", 1.7), ("E4", 1.6), ("E5", 1.4), ("E6", 1.3)]:
        m = get_model(mid)
        c = arch_density(m, 0, s0)
        q = arch_density(m, 0, s0, method="quad")
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


def test_positivity():
    for mid in MODELS:
        m = get_model(mid)
        assert denef_density(m, 3, 1.7).real > 0
        assert arch_density(m, 0, 1.7).real > 0

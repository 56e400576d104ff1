import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightzeta import localfield
from heightzeta.errors import NonconvergentError, PoleError
from heightzeta.localfield import (
    BumpFunction,
    PhaseSum,
    Place,
    RadialBump,
    StepFunction,
    abs_value,
    fourier_test_fn,
    is_prime,
    padic,
    prime_array,
    prime_factors,
    primes_upto,
    psi,
    quad_complex,
    residue_c,
    tate_integral,
    zeta_local,
)

F = Fraction
R = Place.real()
C = Place.complex_()


def test_primes_upto_matches_is_prime():
    assert primes_upto(10**4) == [n for n in range(10**4 + 1) if is_prime(n)]
    assert (primes_upto(0), primes_upto(1), primes_upto(2)) == ([], [], [2])


def test_is_prime_matches_sieve():
    primes = set(primes_upto(10**5))
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == sorted(primes)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (10**9 + 7))
    # ten digits more than trial division can reach in a test
    assert Place.parse("1000000000000000003") == Place.finite(10**18 + 3)


def test_is_prime_above_the_miller_rabin_bound():
    # Baillie-PSW above 3.3e24, where trial division would take minutes.
    # 2^p - 1 for a prime p is a strong pseudoprime to base 2 when it is
    # composite, so 2^101 - 1, 2^103 - 1 and 2^109 - 1 pass Miller-Rabin
    # and fall to the strong Lucas test
    t0 = time.perf_counter()
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    assert is_prime(2**89 - 1)
    assert time.perf_counter() - t0 < 0.5
    assert [k for k in (89, 101, 103, 107, 109, 127) if is_prime(2**k - 1)] == [89, 107, 127]
    assert not is_prime((2**89 - 1) ** 2) and not is_prime(localfield._MR_BOUND)


def test_strong_lucas_against_the_sieve():
    # of the odd n below 1e5 with no factor in the Miller-Rabin bases, the
    # strong Lucas test passes the primes and exactly the strong Lucas
    # pseudoprimes (OEIS A217255)
    primes = set(primes_upto(10**5))
    passed = [n for n in range(43, 10**5, 2) if all(n % p for p in localfield._MR_BASES) and localfield._strong_lucas(n)]
    assert sorted(set(passed) - primes) == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    assert primes - set(passed) == {p for p in primes if p <= 41}


def test_prime_array_is_a_read_only_prefix(monkeypatch):
    """prime_array reads a prefix of one table per process, cut at n, in
    whatever order the sizes come; the table is read-only."""
    monkeypatch.setattr(localfield, "_SIEVED", [-1, np.zeros(0, dtype=np.int64)])
    for n in (100, 10, 1000, 0, 2, 97, 98, 10**5, 500):
        primes = prime_array(n)
        assert primes.dtype == np.int64 and primes.tolist() == [p for p in range(n + 1) if is_prime(p)], n
        with pytest.raises(ValueError):
            primes[:1] = 4
    assert localfield._SIEVED[0] == 10**5


def test_prime_factors_ascending_distinct_complete():
    assert list(prime_factors(1)) == []
    for n in range(1, 10**4 + 1):
        ps = list(prime_factors(n))
        assert ps == sorted(set(ps)) and all(is_prime(p) for p in ps), n
        assert math.prod(p ** padic(p).valuation(n) for p in ps) == n


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(6)
    with pytest.raises(ValueError):
        Place("finite", None)


def test_abs_value_examples():
    assert abs_value(F(1, 2), Place.finite(2)) == F(2)
    assert abs_value(1 + 1j, C) == pytest.approx(2.0)
    assert abs_value(-3, R) == 3
    assert abs_value(0, Place.finite(5)) == 0


def test_abs_value_multiplicative():
    rng = random.Random(7)
    P = Place.finite(3)
    for _ in range(50):
        x = F(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        y = F(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        assert abs_value(x * y, P) == abs_value(x, P) * abs_value(y, P)


def test_psi_examples():
    assert psi(Place.finite(2), F(1, 2)) == pytest.approx(-1.0)
    for x in [0, 3, F(7, 3)]:  # integral at p = 2
        assert psi(Place.finite(2), x) == pytest.approx(1.0)
    assert psi(R, F(1, 4)) == pytest.approx(-1j)
    assert psi(C, 0.25 + 17j) == pytest.approx(-1.0)  # depends on Re only


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    nx=st.integers(-200, 200),
    kx=st.integers(0, 4),
    ny=st.integers(-200, 200),
    ky=st.integers(0, 4),
)
def test_psi_character_property(p, nx, kx, ny, ky):
    place = Place.finite(p)
    x = F(nx, p**kx)
    y = F(ny, p**ky)
    assert abs(psi(place, x + y) - psi(place, x) * psi(place, y)) < 1e-12
    assert abs(abs(psi(place, x)) - 1.0) < 1e-12


def test_frac_part():
    ctx = padic(2)
    assert ctx.frac_part(F(1, 6)) == F(1, 2)
    assert ctx.frac_part(F(-1, 4)) == F(3, 4)
    assert ctx.frac_part(F(5)) == 0
    assert padic(3).frac_part(F(1, 6)) == F(2, 3)


def test_zeta_local_closed_forms():
    assert zeta_local(R, 2) == 1.0
    assert zeta_local(Place.finite(2), 1) == 2.0
    assert zeta_local(C, 2 * math.pi) == pytest.approx(1.0)
    assert zeta_local(Place.finite(3), 2) == float(F(9, 8))
    with pytest.raises(PoleError):
        zeta_local(R, 0)
    with pytest.raises(PoleError):
        zeta_local(Place.finite(5), 0)


def test_residue_c():
    assert residue_c(R) == 2.0
    assert residue_c(C) == pytest.approx(2 * math.pi)
    assert residue_c(Place.finite(5)) == pytest.approx(1 / math.log(5))


def test_product_formula_exact():
    # prod_v |x|_v = 1 over the real place and the primes of x, exactly
    rng = random.Random(0)
    for _ in range(1000):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        if num == 0:
            num = 1
        x = F(num, den)
        prod = abs(x)
        seen = set()
        for part in (abs(x.numerator), x.denominator):
            n = part
            f = 2
            while f * f <= n:
                if n % f == 0:
                    seen.add(f)
                    while n % f == 0:
                        n //= f
                f += 1
            if n > 1:
                seen.add(n)
        for p in seen:
            prod *= abs_value(x, Place.finite(p))
        assert prod == 1


def test_phasesum_merging():
    ps = PhaseSum()
    ps.add(F(1, 3), F(1, 4))
    ps.add(F(1, 3), F(1, 4))
    ps2 = PhaseSum()
    ps2.add(F(1, 3), F(1, 2))
    assert ps.value() == ps2.value()


# ---------------------------------------------------------------------------
# step functions


def test_step_value_and_refine():
    phi = StepFunction.indicator_coset(2, 1, 2)  # 1 + 4 Z_2
    assert phi.value_at(F(1)) == 1
    assert phi.value_at(F(5)) == 1
    assert phi.value_at(F(3)) == 0
    assert phi.value_at(F(1, 2)) == 0
    fine = phi.refine(2)
    for x in [F(1), F(5), F(3), F(1, 2), F(9)]:
        assert fine.value_at(x) == phi.value_at(x)


def test_bump_values_match_scalar():
    # the numpy evaluator against __call__, also on and next to the edges
    for c, rad, amp in ((0.0, 1.0, 1.0), (0.3, 1.5, 2.0), (1.0, 0.75, 0.7)):
        bump = BumpFunction.standard(c, rad, amp)
        lo, hi = bump.support
        edges = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), c]
        xs = np.concatenate([np.linspace(lo - 0.1, hi + 0.1, 2001), edges])
        want = np.array([bump(float(x)) for x in xs])
        assert np.all(np.abs(bump.values(xs) - want) <= 2 * np.spacing(want))
        assert want[-1] == amp and want[-5:-1].max() == 0.0


def test_bump_analytic_off_the_real_line():
    # the unmasked formula is the bump inside its support, and at complex z
    # its analytic continuation: a Cauchy integral over a circle about z
    # gives its value back
    bump = BumpFunction.standard(0.3, 1.5, 2.0)
    xs = np.linspace(-1.1, 1.7, 29)
    assert np.array_equal(bump.analytic(xs), bump.values(xs))
    z0, rho = 0.2 + 0.3j, 0.25
    theta = 2.0 * np.pi * np.arange(64) / 64
    ring = z0 + rho * np.exp(1j * theta)
    assert abs(np.mean(bump.analytic(ring)) - bump.analytic(z0)) < 1e-14


def _two_pass_quad_complex(f, a, b, *, points=None, weight=None, wvar=None, epsabs=1e-12, epsrel=1e-10, limit=400):
    """quad_complex without its node table: a real and an imaginary
    QUADPACK pass that each evaluate f afresh."""
    from scipy.integrate import quad

    kwargs = dict(epsabs=epsabs, epsrel=epsrel, full_output=1)
    if weight is None:
        kwargs.update(points=points, limit=limit)
    else:
        kwargs.update(weight=weight, wvar=wvar)
        if not math.isinf(b):
            kwargs["limit"] = limit
    re, e1 = quad(lambda t: complex(f(t)).real, a, b, **kwargs)[:2]
    im, e2 = quad(lambda t: complex(f(t)).imag, a, b, **kwargs)[:2]
    return complex(re, im), e1 + e2


def test_quad_complex_keeps_the_two_pass_bits():
    # the node table changes no bit of a value or an error estimate, with no
    # weight, the algebraic weight and the Fourier weights (QAWO and QAWF),
    # and a complex integrand runs once per node.  A float integrand takes
    # the real pass alone, with the bits of both passes
    nodes = []

    def wave(t):
        nodes.append(t)
        return cmath.exp(3j * t) / (1.0 + t * t)

    def tail(t):
        nodes.append(t)
        return cmath.exp(1j / t) / t**1.5

    cases = [
        (wave, 0.0, 3.0, {}),
        (wave, 0.0, 3.0, dict(points=[1.0], epsrel=1e-12)),
        (wave, 0.0, 1.0, dict(weight="alg", wvar=(-0.5, 0.0))),
        (wave, 0.0, 2.0, dict(weight="cos", wvar=7.0)),
        (wave, 0.5, 40.0, dict(weight="sin", wvar=7.0, epsabs=1e-14)),
        (tail, 1.0, math.inf, dict(weight="cos", wvar=5.0)),
        (tail, 1.0, math.inf, dict(weight="sin", wvar=5.0, epsabs=1e-14)),
    ]
    for f, a, b, kw in cases:
        nodes.clear()
        got = quad_complex(f, a, b, **kw)
        assert nodes and len(nodes) == len(set(nodes)), (a, b, kw)
        assert tuple(map(repr, got)) == tuple(map(repr, _two_pass_quad_complex(f, a, b, **kw))), (a, b, kw)
    real = lambda t: math.exp(-t) * math.cos(3.0 * t)
    for kw in ({}, dict(weight="alg", wvar=(-0.5, 0.0)), dict(weight="sin", wvar=7.0)):
        got = quad_complex(real, 0.0, 2.0, **kw)
        assert tuple(map(repr, got)) == tuple(map(repr, _two_pass_quad_complex(real, 0.0, 2.0, **kw))), kw


# ---------------------------------------------------------------------------
# Tate integrals


def test_tate_indicator_zp():
    phi = StepFunction.indicator_zp(3)
    for s in [1.0, 2.5, 0.7 + 1.3j]:
        got = tate_integral(Place.finite(3), phi, s)
        want = 1.0 / (1.0 - 3.0 ** (-complex(s).real) * cmath.exp(-1j * complex(s).imag * math.log(3)))
        assert abs(got - want) < 1e-12


def test_tate_units_constant_in_s():
    phi = StepFunction.indicator_units(5)
    vals = [tate_integral(Place.finite(5), phi, s) for s in [0.3, 1.0, 2.0 + 3j]]
    for v in vals:
        assert abs(v - 1.0) < 1e-12


def test_tate_refinement_invariance():
    phi = StepFunction(2, 1, 0, {0: 1.0, 1: 0.5 + 0.25j})
    for s in [0.8, 1.5 + 0.5j]:
        assert abs(tate_integral(Place.finite(2), phi, s) - tate_integral(Place.finite(2), phi.refine(2), s)) < 1e-12


def test_tate_rejects_nonpositive():
    with pytest.raises(NonconvergentError):
        tate_integral(R, BumpFunction.standard(), -0.5)


def _residue_limit(place, phi):
    eps = [0.1, 0.05, 0.02, 0.01]
    vals = [(complex(tate_integral(place, phi, e)) / zeta_local(place, e)).real for e in eps]
    return float(np.polyfit(eps, vals, 2)[-1])


def test_residue_law_five_functions():
    cases = [
        (Place.finite(3), StepFunction.indicator_zp(3), 1.0),
        (Place.finite(2), StepFunction(2, 2, 0, {0: 2.0, 1: 1.0, 2: 2.0, 3: 0.5}), 2.0),
        (Place.finite(5), StepFunction(5, 1, 1, {0: 1.5, 3: 1.0, 7: 2.0}), 1.5),
        (R, BumpFunction.standard(), 1.0),
        (R, BumpFunction.standard(0.3, 1.0, 0.7), BumpFunction.standard(0.3, 1.0, 0.7)(0.0)),
    ]
    for place, phi, expect in cases:
        got = _residue_limit(place, phi)
        assert abs(got - expect) < 1e-4, (place, got, expect)


def test_tate_complex_radial():
    from scipy.integrate import quad

    rb = RadialBump(BumpFunction.standard())
    got = tate_integral(C, rb, 2.0)
    ref = 4 * math.pi * quad(lambda r: r**3 * rb.profile(r), 0, 1)[0]
    assert abs(got - ref) < 1e-8


# ---------------------------------------------------------------------------
# Fourier transforms


def test_fourier_selfdual_zp():
    ft = fourier_test_fn(Place.finite(5), StepFunction.indicator_zp(5))
    for a, want in [(F(0), 1.0), (F(3), 1.0), (F(1, 5), 0.0), (F(7, 25), 0.0)]:
        assert abs(ft(a) - want) < 1e-15, a


def test_fourier_coset_brute():
    # transform of 1_{1+2Z_2} against the direct character sum mod 4
    place = Place.finite(2)
    ft = fourier_test_fn(place, StepFunction.indicator_coset(2, 1, 1))
    for a in [F(0), F(1, 2), F(1), F(3, 2)]:
        brute = sum(
            psi(place, a * c) * F(1, 4) for c in [F(1), F(3)]
        )
        assert abs(ft(a) - brute) < 1e-14
        assert abs(ft(a) - 0.5 * psi(place, a)) < 1e-14
    assert ft(F(1, 4)) == 0  # outside (1/2) Z_2


def test_fourier_inversion():
    # phi lives on 3^-1 Z_3, so its transform is constant on the cosets of
    # 3 Z_3 and vanishes off 3^-2 Z_3 (phi is constant mod 3^2); the second
    # transform is the psi sum over the 27 classes c + 3 Z_3, each of volume
    # 1/3, and psi(c x) is constant on a class for x in 3^-1 Z_3
    place = Place.finite(3)
    phi = StepFunction(3, 2, 1, {1: 1.0, 5: 2.0 - 1j, 14: 0.5j})
    ft = fourier_test_fn(place, phi)
    classes = [F(j, 9) for j in range(27)]
    for x in [F(1, 3), F(2, 3), F(4, 3), F(1), F(2), F(0)]:
        ff = sum(ft(c) * psi(place, c * x) for c in classes) / 3
        assert abs(ff - phi.value_at(-x)) < 1e-12


def test_fourier_real_matches_quadrature():
    bump = BumpFunction.standard()
    ft = fourier_test_fn(R, bump)
    xs = np.linspace(-1, 1, 40001)
    fvals = np.array([bump(float(x)) for x in xs])
    for a in np.linspace(-3.0, 3.0, 10):
        ref = np.trapezoid(fvals * np.exp(-2j * math.pi * a * xs), xs)
        assert abs(ft(a) - ref) < 1e-7

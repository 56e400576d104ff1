"""Oscillatory Igusa-type integrals in one and several variables.

Finite-place integrals are computed exactly: the integration domain is cut
into multiplicative shells, each unit-shell character sum is a finite sum
of roots of unity with exact rational phases, and the remaining small ball
is an exact geometric tail.  Shell sums exploit the classical vanishing
lemma for  int_{xi + p^n Z_p} psi(a x^d) dx,  which lets the enumeration
stop at residue depth ~ log_p|a|/2 instead of log_p|a|.

Archimedean integrals are adaptive quadrature: the domain is split at
eps = |a|^{-1/d}, and on the oscillatory side the substitution t = x^d
turns the phase into a linear one handled by QAWO/QAWF.  On the stationary
side [0, eps], for real s, QAWS takes x^{s-1} as an algebraic weight and
integrates the endpoint singularity exactly.  At the complex place the
test function is radial, so the angular integral is exact,
int_0^{2 pi} e^{-iX cos(d theta + alpha)} dtheta = 2 pi J_0(X), and what
remains is one radial integral against J_0(4 pi |a| r^d).
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DepthOverflowError, NonconvergentError
from .localfield import (
    BumpFunction,
    PhaseSum,
    Place,
    RadialBump,
    StepFunction,
    padic,
    quad_complex,
    quad_oscillatory,
    radial_j0_integral,
    zeta_local,
)

DEFAULT_MAX_LEVEL = 12  # residue refinement ceiling: at most ~p^12 classes
CLASS_BUDGET = 4_000_000


@dataclass
class OscillatoryResult:
    value: complex
    exact: bool
    error: float | None = None  # quadrature/tail certificate when not exact


@dataclass
class DecayReport:
    place: Place
    d: object
    s: object
    kappa: float
    abs_values: list[float]
    values: list[complex]
    observed: list[float]
    envelope: list[float]  # fitted_C * zeta_F(sigma) * min(1, |a|^-kappa)
    fitted_C: float
    fitted_exponent: float

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["abs_a", "re_I", "im_I", "envelope"])
            for a, v, e in zip(self.abs_values, self.values, self.envelope):
                w.writerow([a, v.real, v.imag, e])


# ---------------------------------------------------------------------------
# exact finite-place primitives


def schwartz_level(phi: StepFunction) -> int:
    """The least positive integer n such that phi is constant on every
    coset x + p^n Z_p (recomputed from the table, not read off)."""
    return phi.min_level()


def vanishing_threshold(p: int, d: int, phi: StepFunction) -> int:
    """T with  int_{Z_p minus pZ_p} phi(x) psi(a x^d) dx = 0  whenever
    |a|_p >= T, namely max(q^{n(phi)+c+1}, q^{2(c+1)}) with c = v_p(d)."""
    if phi.support_exp > 0:
        raise ValueError("threshold formula requires support inside Z_p")
    c = padic(p).valuation(d)
    n = schwartz_level(phi)
    return p ** max(n + c + 1, 2 * (c + 1))


def coset_phase_integral(
    p: int,
    xi,
    n: int,
    a,
    d: int,
    *,
    depth: int | None = None,
    max_abs_exp: int = DEFAULT_MAX_LEVEL,
) -> complex:
    """Exact  int_{xi + p^n Z_p} psi(a x^d) dx  for a unit xi, by direct
    enumeration of residue classes at a depth where the phase is constant.

    The value is 0 whenever p^{n+c} < |a|_p <= p^{2n} with c = v_p(d).
    ``depth`` may request a finer (never coarser) enumeration; the result
    is bit-identical since phases and weights are exact rationals.
    """
    xi = Fraction(xi)
    a = Fraction(a)
    ctx = padic(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if xi == 0 or ctx.valuation(xi) != 0:
        raise ValueError("xi must be a p-adic unit")
    m = max(0, -ctx.valuation(a)) if a != 0 else 0
    if m > max_abs_exp:
        raise DepthOverflowError(
            f"|a|_p = {p}^{m} exceeds the depth ceiling {p}^{max_abs_exp}"
        )
    M = max(n, m, depth or 0)
    if p ** (M - n) > CLASS_BUDGET:
        raise DepthOverflowError("coset enumeration exceeds the class budget")
    ps = PhaseSum()
    step = Fraction(p) ** n
    w = Fraction(1, p**M)
    for t in range(p ** (M - n)):
        x = xi + step * t
        ps.add(ctx.frac_part(a * x**d), w)
    return ps.value()


def _unit_shell_integral(
    p: int,
    aprime: Fraction,
    d: int,
    value_of: Callable[[Fraction], complex],
    lf: int,
    max_level: int,
) -> complex:
    """Exact  int_{Z_p^*} psi(a' u^d) g(u) du  for g locally constant at
    level lf.  Uses the coset vanishing lemma at depth
    n* = max(lf, ceil(m'/2)):  each unit coset contributes
    p^{-n*} psi(a' xi^d) g(xi) when m' <= n* + c, and the shell vanishes
    otherwise."""
    ctx = padic(p)
    c = ctx.valuation(d)
    m = max(0, -ctx.valuation(aprime)) if aprime != 0 else 0
    nstar = max(lf, (m + 1) // 2, 1)
    if m > nstar + c:
        return 0j
    if nstar > max_level or p**nstar > CLASS_BUDGET:
        raise DepthOverflowError(
            f"unit-shell sum needs depth {nstar} > ceiling {max_level} at p={p}"
        )
    ps = PhaseSum()
    w = Fraction(1, p**nstar)
    for xi in range(1, p**nstar):
        if xi % p == 0:
            continue
        xf = Fraction(xi)
        ps.add(ctx.frac_part(aprime * xf**d), w, value_of(xf))
    return ps.value()


# ---------------------------------------------------------------------------
# one-dimensional oscillatory integrals


def _osc_finite_1d(phi: StepFunction, a, d: int, s: complex, max_level: int) -> OscillatoryResult:
    p = phi.p
    ctx = padic(p)
    a = Fraction(a)
    lnp = math.log(p)
    m_phi = schwartz_level(phi)
    vmin = phi.support_min_valuation()
    m_a = max(0, -ctx.valuation(a)) if a != 0 else 0
    K = max(m_phi, -(-m_a // d), vmin)
    parts = []
    for v in range(vmin, K):
        aprime = a * Fraction(p) ** (v * d)
        lf = max(m_phi - v, 1)
        pv = Fraction(p) ** v
        U = _unit_shell_integral(p, aprime, d, lambda u: phi.value_at(pv * u), lf, max_level)
        if U != 0:
            parts.append(cmath.exp(-v * s * lnp) * U)
    v0 = phi.value_at(0)
    if v0 != 0:
        # shells v >= K: psi trivial and phi constant; geometric tail
        parts.append(v0 * (1.0 - 1.0 / p) * cmath.exp(-K * s * lnp) / (1.0 - cmath.exp(-s * lnp)))
    value = complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
    return OscillatoryResult(value, exact=True)


def decay_kappa(d, s) -> float:
    """kappa = min(1/2, Re(s_1)/d_1, ..., Re(s_n)/d_n)."""
    if isinstance(d, (tuple, list)):
        return min([0.5] + [complex(sj).real / dj for sj, dj in zip(s, d)])
    return min(0.5, complex(s).real / d)


def _osc_halfline(g, R: float, A: float, d: int, s: complex, epsrel: float):
    """int_0^R r^{s-1} e^{-2 pi i A r^d} g(r) dr  with the stationary
    region [0, eps], eps^d |A| = 1, integrated directly and the oscillatory
    remainder integrated after t = r^d.  For real s the stationary piece
    takes r^{s-1} as QUADPACK's algebraic weight.  For complex s the weight
    would leave the oscillating r^{i Im s} in the integrand, where QAWS came
    out up to 3e-7 off with an error estimate of 8e-10."""
    if R <= 0.0:
        return 0j, 0.0
    eps = R if A == 0.0 else min(R, abs(A) ** (-1.0 / d))
    if s.imag == 0.0:
        f, weight = (lambda r: cmath.exp(-2j * math.pi * A * r**d) * g(r)), dict(weight="alg", wvar=(s.real - 1.0, 0.0))
    else:
        f, weight = (lambda r: (r ** (s - 1.0)) * cmath.exp(-2j * math.pi * A * r**d) * g(r)), {}
    total, err = quad_complex(f, 0.0, eps, epsrel=epsrel, **weight)
    if eps < R:
        f = lambda t: (1.0 / d) * (t ** (s / d - 1.0)) * g(t ** (1.0 / d))
        val, e2 = quad_oscillatory(f, eps**d, R**d, 2.0 * math.pi * A, epsrel=epsrel)
        total += val
        err += e2
    return total, err


def _osc_real_1d(phi: BumpFunction, a, d: int, s: complex, epsrel: float) -> OscillatoryResult:
    a = float(a)
    lo, hi = phi.support
    parts = 0j
    err = 0.0
    if hi > 0.0:
        v, e = _osc_halfline(lambda r: complex(phi(r)), hi, a, d, s, epsrel)
        parts += v
        err += e
    if lo < 0.0:
        v, e = _osc_halfline(lambda r: complex(phi(-r)), -lo, a * (-1.0) ** d, d, s, epsrel)
        parts += v
        err += e
    return OscillatoryResult(parts, exact=False, error=err)


def _osc_complex_1d(phi: RadialBump, a, d: int, s: complex, epsrel: float) -> OscillatoryResult:
    # dz = 2 dA and |z|_C = r^2; the angular integral of
    # e^{-4 pi i |a| r^d cos(d theta + alpha)} is 2 pi J_0(4 pi |a| r^d)
    g = lambda r: 4.0 * math.pi * r ** (2.0 * s - 1.0) * phi.profile(r)
    val, err = radial_j0_integral(g, phi.radius, 4.0 * math.pi * abs(complex(a)), d, epsrel=epsrel)
    return OscillatoryResult(val, exact=False, error=err)


def osc_integral_1d(
    place: Place,
    phi,
    a,
    d: int,
    s,
    *,
    epsrel: float = 1e-9,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> OscillatoryResult:
    """int_F |x|^{s-1} psi(a x^d) Phi(x) dx, exact at finite places."""
    s = complex(s)
    if s.real <= 0:
        raise NonconvergentError("osc_integral_1d requires Re(s) > 0")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if place.is_finite:
        return _osc_finite_1d(phi, a, d, s, max_level)
    if place.kind == "real":
        return _osc_real_1d(phi, a, d, s, epsrel)
    return _osc_complex_1d(phi, a, d, s, epsrel)


# ---------------------------------------------------------------------------
# n-dimensional oscillatory integrals (n <= 3, product test functions)


def _osc_finite_nd(phis, a, d, s, max_level: int) -> OscillatoryResult:
    p = phis[0].p
    if any(phi.p != p for phi in phis):
        raise ValueError("all factors must live at the same prime")
    if any(phi.support_exp > 0 for phi in phis):
        raise ValueError("n-dimensional shells require support inside Z_p^n")
    ctx = padic(p)
    a = Fraction(a)
    n = len(phis)
    lnp = math.log(p)
    m_a = max(0, -ctx.valuation(a)) if a != 0 else 0
    levels = [schwartz_level(phi) for phi in phis]
    cuts = [max(levels[j], -(-m_a // d[j])) for j in range(n)]

    def tail_factor(j: int) -> complex:
        v0 = phis[j].value_at(0)
        if v0 == 0:
            return 0j
        return v0 * (1.0 - 1.0 / p) * cmath.exp(-cuts[j] * complex(s[j]) * lnp) / (
            1.0 - cmath.exp(-complex(s[j]) * lnp)
        )

    def shell_factor(j: int, v: int) -> complex:
        lf = max(levels[j] - v, 1)
        U = _unit_shell_integral(p, Fraction(0), 1, lambda u: phis[j].value_at(p**v * u), lf, max_level)
        return cmath.exp(-v * complex(s[j]) * lnp) * U

    total = 0j
    import itertools

    choices = [list(range(0, cuts[j])) + ["tail"] for j in range(n)]
    for cell in itertools.product(*choices):
        if "tail" in cell or a == 0 or sum(cell[j] * d[j] for j in range(n)) >= m_a:
            factors = []
            for j, c in enumerate(cell):
                factors.append(tail_factor(j) if c == "tail" else shell_factor(j, c))
            term = 1.0 + 0j
            for f in factors:
                term *= f
            total += term
            continue
        # joint oscillatory block over (Z_p^*)^n at exact depth
        aprime = a * Fraction(p) ** sum(cell[j] * d[j] for j in range(n))
        mprime = max(0, -ctx.valuation(aprime)) if aprime != 0 else 0
        lfs = [max(levels[j] - cell[j], 1) for j in range(n)]
        M = max([mprime] + lfs + [1])
        units = [u for u in range(1, p**M) if u % p != 0]
        if len(units) ** n > CLASS_BUDGET or M > max_level:
            raise DepthOverflowError("joint unit block exceeds the class budget")
        ps = PhaseSum()
        w = Fraction(1, p ** (n * M))
        pvs = [Fraction(p) ** cell[j] for j in range(n)]
        for tup in itertools.product(units, repeat=n):
            val = 1.0 + 0j
            for j in range(n):
                val *= phis[j].value_at(pvs[j] * tup[j])
            if val == 0:
                continue
            prod = Fraction(1)
            for j in range(n):
                prod *= Fraction(tup[j]) ** d[j]
            ps.add(ctx.frac_part(aprime * prod), w, val)
        scale = cmath.exp(-sum(cell[j] * complex(s[j]) for j in range(n)) * lnp)
        total += scale * ps.value()
    return OscillatoryResult(total, exact=True)


def _osc_arch_nd(phis, a, d, s, epsrel) -> OscillatoryResult:
    """Iterated quadrature: innermost coordinate via the 1-d machinery."""
    n = len(phis)
    if n == 1:
        return _osc_real_1d(phis[0], a, d[0], complex(s[0]), epsrel)

    inner_d, inner_s = d[0], complex(s[0])
    rest_phis, rest_d, rest_s = phis[1:], d[1:], s[1:]
    err_acc = [0.0]

    def outer_integrand(*coords) -> complex:
        aa = float(a)
        for x, dd in zip(coords, rest_d):
            aa *= x**dd
        inner = _osc_real_1d(phis[0], aa, inner_d, inner_s, max(epsrel, 1e-7))
        w = inner.value
        for x, phi_j, s_j in zip(coords, rest_phis, rest_s):
            w *= (abs(x) ** (complex(s_j) - 1.0)) * phi_j(x)
        return w

    if n == 2:
        lo, hi = rest_phis[0].support
        pts = [0.0] if lo < 0.0 < hi else None
        val, err = quad_complex(lambda y: outer_integrand(y), lo, hi, points=pts, epsrel=max(epsrel, 1e-6), limit=200)
        return OscillatoryResult(val, exact=False, error=err)
    if n == 3:
        lo2, hi2 = rest_phis[1].support

        def middle(z):
            lo1, hi1 = rest_phis[0].support
            pts = [0.0] if lo1 < 0.0 < hi1 else None
            v, _ = quad_complex(lambda y: outer_integrand(y, z), lo1, hi1, points=pts, epsrel=1e-5, limit=100)
            return v

        pts = [0.0] if lo2 < 0.0 < hi2 else None
        val, err = quad_complex(middle, lo2, hi2, points=pts, epsrel=1e-5, limit=100)
        return OscillatoryResult(val, exact=False, error=err)
    raise ValueError("osc_integral_nd supports n <= 3")


def osc_integral_nd(place: Place, phis: Sequence, a, d: Sequence[int], s: Sequence, **kw) -> OscillatoryResult:
    """int prod |x_j|^{s_j - 1} psi(a x_1^{d_1} ... x_n^{d_n}) Phi(x) dx
    for a product test function Phi = prod phi_j, n <= 3."""
    phis = tuple(phis)
    d = tuple(int(t) for t in d)
    s = tuple(complex(t) for t in s)
    if not 1 <= len(phis) <= 3 or len(d) != len(phis) or len(s) != len(phis):
        raise ValueError("need matching tuples with 1 <= n <= 3")
    if any(t.real <= 0 for t in s):
        raise NonconvergentError("osc_integral_nd requires Re(s_j) > 0")
    if place.is_finite:
        return _osc_finite_nd(phis, a, d, s, kw.get("max_level", DEFAULT_MAX_LEVEL))
    if place.kind == "real":
        return _osc_arch_nd(phis, a, d, s, kw.get("epsrel", 1e-8))
    raise ValueError("n-dimensional complex-place integrals are not provided")


# ---------------------------------------------------------------------------
# inverse phase:  eta_a(s) = int |x|^{s-1} psi(a / x^d) Phi(x) dx


def _inverse_finite(phi: StepFunction, a, d: int, s: complex, max_level: int) -> OscillatoryResult:
    p = phi.p
    ctx = padic(p)
    a = Fraction(a)
    lnp = math.log(p)
    m_phi = schwartz_level(phi)
    c = ctx.valuation(d)
    tmin = -phi.support_exp
    parts = []
    t = tmin
    while True:
        lf = max(m_phi - t, 1)
        adoubleprime = a * Fraction(p) ** (-t * d)
        mpp = max(0, -ctx.valuation(adoubleprime))
        if mpp >= max(lf + c + 1, 2 * (c + 1)):
            break  # this and all deeper shells vanish by the unit lemma
        pt = Fraction(p) ** t
        U = _unit_shell_integral(
            p, adoubleprime, d, lambda w: phi.value_at(pt / w), lf, max_level
        )
        if U != 0:
            parts.append(cmath.exp(-t * s * lnp) * U)
        t += 1
        if t > tmin + 500:
            raise DepthOverflowError("inverse-phase shell recursion did not terminate")
    value = complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
    return OscillatoryResult(value, exact=True)


def _smooth_step(t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    fa = math.exp(-1.0 / t)
    fb = math.exp(-1.0 / (1.0 - t))
    return fa / (fa + fb)


def _chi_cutoff(r: float) -> float:
    # 1 on r <= 1, 0 on r >= 2, smooth in between
    return _smooth_step(2.0 - r)


def dyadic_partition_bump(r: float) -> float:
    """theta(r) = chi(r) - chi(2r): supported in 1/2 < r < 2 with
    sum_n theta(2^n r) = 1 for r > 0 (the pinned dyadic partition)."""
    return _chi_cutoff(r) - _chi_cutoff(2.0 * r)


def _inverse_real(phi: BumpFunction, a, d: int, s: complex, tol: float, max_shells: int) -> OscillatoryResult:
    a = float(a)
    lo, hi = phi.support
    R = max(abs(lo), abs(hi))
    n_start = math.floor(-math.log2(R)) - 1
    partial = 0j
    shell_mags = []
    n = n_start
    flagged_err = 0.0
    while n < n_start + max_shells:
        scale = 2.0 ** (-n)
        omega = 2.0 * math.pi * a * (2.0 ** (d * n))
        # u > 0 piece and u < 0 piece (x = 1/u)
        vpos, e1 = quad_oscillatory(
            lambda t: _inv_shell_integrand(t, +1.0, phi, scale, s, d), 0.5**d, 2.0**d, omega
        )
        vneg, e2 = quad_oscillatory(
            lambda t: _inv_shell_integrand(t, -1.0, phi, scale, s, d),
            0.5**d,
            2.0**d,
            omega * ((-1.0) ** d),
        )
        eta_n = vpos + vneg
        flagged_err += e1 + e2
        partial += (2.0 ** (-n)) ** s * eta_n
        shell_mags.append((n, abs(eta_n)))
        # tail certificate from |eta_{a,n}| <= c 2^{-n} |a|^{-1/d}
        if len(shell_mags) >= 3:
            c_est = max(mag * 2.0**k for k, mag in shell_mags) * abs(a) ** (1.0 / d)
            ratio = 2.0 ** (-(s.real + 1.0))
            tail = c_est * abs(a) ** (-1.0 / d) * ratio ** (n + 1) / (1.0 - ratio)
            if tail < max(tol * abs(partial), 1e-13):
                return OscillatoryResult(partial, exact=False, error=tail + flagged_err)
        n += 1
    return OscillatoryResult(partial, exact=False, error=float("inf"))


def _inv_shell_integrand(t: float, sign: float, phi, scale: float, s: complex, d: int) -> complex:
    # after x = 1/u and t = u^d on the annulus (sign carries the u < 0 half)
    u = t ** (1.0 / d)
    du = (1.0 / d) * t ** (1.0 / d - 1.0)
    return u ** (-s - 1.0) * phi(scale / (sign * u)) * dyadic_partition_bump(u) * du


def inverse_phase_integral(place: Place, phi, a, d: int, s, *, tol: float = 1e-9, max_shells: int = 200, max_level: int = DEFAULT_MAX_LEVEL) -> OscillatoryResult:
    """eta_a(s) = int |x|^{s-1} psi(a / x^d) Phi(x) dx, computed as the
    shell series sum_n q^{-ns} eta_{a,n}(s); exact (finitely many shells)
    at finite places, truncated with a geometric tail certificate on R.
    Valid for Re(s) > -1."""
    s = complex(s)
    if a == 0:
        raise ValueError("a must be nonzero")
    if s.real <= -1.0:
        raise NonconvergentError("inverse_phase_integral requires Re(s) > -1")
    if place.is_finite:
        return _inverse_finite(phi, a, d, s, max_level)
    if place.kind == "real":
        return _inverse_real(phi, a, d, s, tol, max_shells)
    raise ValueError("complex-place inverse-phase integrals are not provided")


# ---------------------------------------------------------------------------
# decay reports


def fit_decay_exponent(abs_values, mags) -> float:
    pts = [
        (math.log(A), math.log(m))
        for A, m in zip(abs_values, mags)
        if m > 1e-14 and A > 1.0
    ]
    if len(pts) < 2:
        return math.inf
    xs = np.array([t[0] for t in pts])
    ys = np.array([t[1] for t in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return -float(slope)


def decay_report(place: Place, phi, d, s, abs_values, **kw) -> DecayReport:
    """Evaluate the oscillatory integral on a grid of |a| and compare with
    the envelope zeta_F(Re s) min(1, |a|^{-kappa})."""
    nd = isinstance(d, (tuple, list))
    kappa = decay_kappa(d, s)
    sigma = min(complex(t).real for t in s) if nd else complex(s).real
    avals, values = [], []
    for A in abs_values:
        if place.is_finite:
            p = place.prime
            k = max(1, round(math.log(A) / math.log(p)))
            a = Fraction(1, p**k)
            avals.append(float(p**k))
        else:
            a = float(A)
            avals.append(float(A))
        if nd:
            r = osc_integral_nd(place, phi, a, d, s, **kw)
        else:
            r = osc_integral_1d(place, phi, a, d, s, **kw)
        values.append(r.value)
    mags = [abs(v) for v in values]
    zf = abs(zeta_local(place, sigma))
    base = [zf * min(1.0, A ** (-kappa)) for A in avals]
    ratios = [m / b for m, b in zip(mags, base) if b > 0]
    fitted_C = max(ratios) if ratios else 0.0
    return DecayReport(
        place=place,
        d=d,
        s=s,
        kappa=kappa,
        abs_values=avals,
        values=values,
        observed=mags,
        envelope=[fitted_C * b for b in base],
        fitted_C=fitted_C,
        fitted_exponent=fit_decay_exponent(avals, mags),
    )

"""Oscillatory Igusa-type integrals in one and several variables.

Finite-place integrals are computed exactly: the integration domain is cut
into multiplicative shells, each unit-shell character sum is a finite sum
of roots of unity with exact rational phases, and the remaining small ball
is an exact geometric tail.  Shell sums exploit the classical vanishing
lemma for  int_{xi + p^n Z_p} psi(a x^d) dx,  which lets the enumeration
stop at residue depth ~ log_p|a|/2 instead of log_p|a|.  On Z_p^n the
integral is the same recursion over coordinates as on R^n below, each
level cached by the phase through which the inner coordinates see it.

Archimedean integrals.  On R each half-line of the support is split at
e1 = min(eps/2, R/4), eps = |a|^{-1/d}: the stationary panel [0, e1]
takes an interpolatory rule whose weights integrate x^{s-1} exactly, and
the rest, after t = x^d, which makes the phase linear, goes to a
Filon-type kernel, ``localfield._filon``: Legendre coefficients on
adaptive panels against the exact moments of e^{-i omega t}, so neither
the panels nor the cost grow with |a|, and every node of a round is one
numpy call.  The inverse phase psi(a / x^d), after t = |x|^-d, stays with
QUADPACK's QAWO; its tail to t = inf is a fixed rule on the
steepest-descent contour where 0 lies inside the support, and QAWF where
an end of the support is 0.  On R^n the integral is one recursion over
half-lines: every outer coordinate gets QUADPACK's algebraic weight
(QAWS), and the innermost transform, which depends on the outer
coordinates only through its frequency, is a Gauss-Legendre table built
once per call, with a Gauss-Jacobi panel at 0 for real s, and evaluated
in numpy at each frequency.  At the complex place the test function is
radial, so the angular integral is exact,
int_0^{2 pi} e^{-iX cos(d theta + alpha)} dtheta = 2 pi J_0(X), and what
remains is one radial integral against J_0(4 pi |a| r^d), by the same
stationary panel and kernel (``localfield.radial_j0_integral``).
"""

from __future__ import annotations

import cmath
import functools
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
    _descent_rule,
    _filon,
    _filon_edges,
    _phase,
    _stationary_panel,
    padic,
    quad_complex,
    quad_oscillatory,
    radial_j0_integral,
    zeta_local,
)

DEFAULT_MAX_LEVEL = 12  # residue refinement ceiling: at most ~p^12 classes
CLASS_BUDGET = 4_000_000
# the Gauss-Legendre table of the innermost n-d coordinate: 20 nodes per
# panel and the 14-node rule for its error, 16 2^k panels per half-line,
# and at complex s 60 geometric halvings of a first panel that starts at 0
_TABLE_NODES = (20, 14)
_leggauss = functools.cache(np.polynomial.legendre.leggauss)
_TABLE_PANELS = 16
_TABLE_GRADING = 60
# Above 2048 panels per half-line (|w| (R^d - r0^d) > 1024) the table cost
# more per frequency than the 1-d value did by QAWS plus QAWO, as measured
# when the cap was set: for the standard bump, d = 1,
# s = 1.15, 1.5 ms against 4.7 ms at 1024 panels, 2.1 against 5.5 at 2048,
# 5.7 against 5.3 at 4096; for the bump on (-1.2, 1.8), whose halves do not
# share nodes, 5.8 against 5.4 ms at 2048 (2 vCPUs, numpy 2.4.6)
_TABLE_MAX_PANELS = 2048


@dataclass
class OscillatoryResult:
    value: complex
    exact: bool
    error: float | None = None  # quadrature error estimate when not exact


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


# ---------------------------------------------------------------------------
# exact finite-place primitives


def schwartz_level(phi: StepFunction) -> int:
    """The least positive integer n such that phi is constant on every
    coset x + p^n Z_p (recomputed from the table, not read off)."""
    return phi.min_level()


def coset_phase_integral(
    p: int,
    xi,
    n: int,
    a,
    d: int,
    *,
    depth: int | None = None,
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
    if m > DEFAULT_MAX_LEVEL:
        raise DepthOverflowError(
            f"|a|_p = {p}^{m} exceeds the depth ceiling {p}^{DEFAULT_MAX_LEVEL}"
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
    if nstar > DEFAULT_MAX_LEVEL or p**nstar > CLASS_BUDGET:
        raise DepthOverflowError(
            f"unit-shell sum needs depth {nstar} > ceiling {DEFAULT_MAX_LEVEL} at p={p}"
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


def _osc_finite_1d(phi: StepFunction, a, d: int, s: complex) -> OscillatoryResult:
    if not any(phi.table.values()):
        return OscillatoryResult(0j, exact=True)
    p = phi.p
    ctx = padic(p)
    a = Fraction(a)
    lnp = math.log(p)
    m_phi = schwartz_level(phi)
    vmin = phi.support_min_valuation()
    m_a = max(0, -ctx.valuation(a)) if a != 0 else 0
    K = max(m_phi, -(-m_a // d), vmin)
    # p^-s exact at a real integer s: each weight and the tail round once (past 1074, p^-s is 0 in float)
    x = Fraction(p) ** -int(s.real) if s.imag == 0.0 and s.real.is_integer() and s.real <= 1074 else None
    parts = []
    for v in range(vmin, K):
        aprime = a * Fraction(p) ** (v * d)
        lf = max(m_phi - v, 1)
        pv = Fraction(p) ** v
        U = _unit_shell_integral(p, aprime, d, lambda u: phi.value_at(pv * u), lf)
        if U != 0:
            parts.append((cmath.exp(-v * s * lnp) if x is None else float(x**v)) * U)
    v0 = phi.value_at(0)
    # shells v >= K: psi trivial and phi constant; geometric tail
    if v0 != 0 and x is not None:
        parts.append(v0 * float((1 - Fraction(1, p)) * x**K / (1 - x)))
    elif v0 != 0:
        parts.append(v0 * (1.0 - 1.0 / p) * cmath.exp(-K * s * lnp) / (1.0 - cmath.exp(-s * lnp)))
    value = complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
    return OscillatoryResult(value, exact=True)


def decay_kappa(d, s) -> float:
    """kappa = min(1/2, Re(s_1)/d_1, ..., Re(s_n)/d_n)."""
    if isinstance(d, (tuple, list)):
        return min([0.5] + [complex(sj).real / dj for sj, dj in zip(s, d)])
    return min(0.5, complex(s).real / d)


def _power_weighted(f, R: float, s: complex, r0: float = 0.0, **kw):
    """int_{r0}^R r^{s-1} f(r) dr.  For real s and r0 = 0, r^{s-1} is
    QUADPACK's algebraic weight (QAWS), which integrates the endpoint
    singularity exactly.  For complex s the weight would leave the
    oscillating r^{i Im s} in the integrand, where QAWS came out up to 3e-7
    off with an error estimate of 8e-10, so r^{s-1} stays in the integrand
    under QAGS; so it does for r0 > 0, where it is smooth.  For real s
    there it is the real part of the same complex power, so a real f
    keeps a real integrand, which QUADPACK integrates in one pass."""
    if s.imag == 0.0 and r0 == 0.0:
        return quad_complex(f, 0.0, R, weight="alg", wvar=(s.real - 1.0, 0.0), **kw)
    if s.imag == 0.0:
        return quad_complex(lambda r: (r ** (s - 1.0)).real * f(r), r0, R, **kw)
    return quad_complex(lambda r: r ** (s - 1.0) * f(r), r0, R, **kw)


def _halflines(support) -> list[tuple[float, float, float]]:
    """The half-lines (sign, r0, R) of a support (lo, hi): |y| in
    [max(lo, 0), hi] with sign 1 and the mirrored [max(-hi, 0), -lo] with
    sign -1, each where it is not empty."""
    lo, hi = support
    return [(sg, max(a, 0.0), b) for sg, a, b in ((1.0, lo, hi), (-1.0, -hi, -lo)) if b > 0.0]


def _osc_real_1d(phi: BumpFunction, a, d: int, s: complex) -> OscillatoryResult:
    """int_R |x|^{s-1} e^{-2 pi i a x^d} phi(x) dx, summed over the
    half-lines (sign, r0, R) of phi's support, x = sign r, each a row of
    one ``_stationary_panel`` and one ``_filon`` call.  Where 0 lies
    inside the support, every half-line starts at r0 = 0, and [0, e1] is
    ``_stationary_panel`` on e^{-2 pi i A r^d} phi(sign r), A = a sign^d,
    with the weight r^{s-1}: e1 = min(eps/2, R/4) over the rows,
    eps^d |a| = 1, so the phase turns at most half a time and phi is
    analytic well past the panel.  Where 0 is an end of the support, phi
    vanishes there to all orders and there is no such panel.  The rest
    [lo, R], lo = e1 or r0, becomes t = r^d = T0 + L u, T0 = lo^d,
    L = R^d - T0, u in [0, 1], which puts the end of the support at u = 1
    on every row: ``_filon`` at the frequencies 2 pi A L on
    L t^{s/d-1} phi(sign t^{1/d}) / d, from the ``_filon_edges`` of the
    longest row (the finest near u = 0), times e^{-2 pi i A T0}.  A bump centred at 0 is even, so
    its mirrored half-line is the same integral at the frequency a (-1)^d:
    for even d it is the first row again, and for odd d and real s its
    conjugate; the first row is then computed alone."""
    a = float(a)
    halves = _halflines(phi.support)
    mirror = phi.center == 0.0 and (d % 2 == 0 or s.imag == 0.0)
    if mirror:
        halves = halves[:1]
    rows = np.array(halves)
    sign, R = rows[:, :1], rows[:, 2:]
    A, lo = a * sign**d, halves[0][1]
    value, err = 0.0, 0.0
    stationary = lo == 0.0 and 0.0 not in phi.support
    if stationary:
        if a:
            k = -2j * math.pi * A
            f, eps = (lambda r: np.exp(k * r**d) * phi.values(sign * r)), abs(a) ** (-1.0 / d)
        else:
            f, eps = (lambda r: phi.values(sign * r)), math.inf
        value, err, lo = _stationary_panel(f, min(0.5 * eps, 0.25 * float(R.min())), s)
    power, inv = s.real / d - 1.0 if s.imag == 0.0 else s / d - 1.0, 1.0 / d
    T0 = lo**d
    L = R**d - T0
    scale = L * inv

    def g(u):
        t = T0 + L * u
        return scale * t**power * phi.values(sign * (t if d == 1 else t**inv))

    edges = _filon_edges(T0 / float(L.max()), stationary)
    v, e = _filon(g, edges, (2.0 * math.pi * A * L).ravel() if a else 0.0)
    if a:
        v = v * _phase(2.0 * math.pi * A.ravel(), T0)
    value, err = complex((value + v).sum()), float((err + e).sum())
    if mirror:
        value, err = (2.0 * value if d % 2 == 0 else complex(2.0 * value.real, 0.0)), 2.0 * err
    return OscillatoryResult(value, exact=False, error=err)


def _osc_complex_1d(phi: RadialBump, a, d: int, s: complex) -> OscillatoryResult:
    # dz = 2 dA and |z|_C = r^2; the angular integral of
    # e^{-4 pi i |a| r^d cos(d theta + alpha)} is 2 pi J_0(4 pi |a| r^d).
    # For real s the radial integrand is real
    w, values = 2.0 * s - 1.0, phi.profile.values
    f = lambda r: 4.0 * math.pi * values(r)
    val, err = radial_j0_integral(f, w.real if s.imag == 0.0 else w, phi.radius, 4.0 * math.pi * abs(complex(a)), d)
    return OscillatoryResult(val, exact=False, error=err)


def _check_test_fns(place: Place, phis) -> None:
    """A finite place takes StepFunctions at its prime, R BumpFunctions and
    C a RadialBump; any other test function is a ValueError."""
    kind = StepFunction if place.is_finite else BumpFunction if place.kind == "real" else RadialBump
    for phi in phis:
        if not isinstance(phi, kind) or place.is_finite and phi.p != place.prime:
            at = f" at p = {place.prime}" if place.is_finite else ""
            raise ValueError(f"test functions at {place} are {kind.__name__}s{at}")


def osc_integral_1d(place: Place, phi, a, d: int, s) -> OscillatoryResult:
    """int_F |x|^{s-1} psi(a x^d) Phi(x) dx, exact at finite places."""
    s = complex(s)
    if s.real <= 0:
        raise NonconvergentError("osc_integral_1d requires Re(s) > 0")
    if d < 1:
        raise ValueError("d must be a positive integer")
    _check_test_fns(place, (phi,))
    if place.is_finite:
        return _osc_finite_1d(phi, a, d, s)
    if place.kind == "real":
        return _osc_real_1d(phi, a, d, s)
    return _osc_complex_1d(phi, a, d, s)


# ---------------------------------------------------------------------------
# n-dimensional oscillatory integrals (n <= 3, product test functions)


def _osc_finite_nd(phis, a, d, s) -> OscillatoryResult:
    """The recursion over coordinates of ``_osc_arch_nd``.  The coordinates
    below j live in Z_p, so they see y_j only through frac_part(b y_j^{d_j}),
    b the frequency of coordinate j, and each level is cached by that phase.
    Shell |y_j| = p^{-v} is enumerated at depth max(level(phi_j) - v,
    m - v d_j, 1), m = -v_p(b); the shells past both are one geometric tail
    at phase 0, and coordinate 0 is ``_osc_finite_1d``."""
    p = phis[0].p
    if any(phi.support_exp > 0 for phi in phis):
        raise ValueError("n-dimensional shells require support inside Z_p^n")
    ctx = padic(p)
    lnp = math.log(p)
    top = ctx.frac_part(Fraction(a))
    levels = [schwartz_level(phi) for phi in phis]
    m_a = -ctx.valuation(top) if top else 0
    depth, n = max(levels + [m_a]), len(phis)
    # the top level sees one phase and each level below it at most p^m_a, at
    # p^depth classes a phase or, at coordinate 0, p^max(level(phi_0), m_a / 2)
    inner = p ** max(levels[0], -(-m_a // 2))
    work = inner if n == 1 else p**depth + p**m_a * ((n - 2) * p**depth + inner)
    if depth > DEFAULT_MAX_LEVEL or work > CLASS_BUDGET:
        raise DepthOverflowError(f"n-d shell sum needs about {work} classes, past the ceiling or the class budget")

    @functools.cache
    def level(j: int, b: Fraction) -> complex:
        # the integral over y_0 .. y_j at the phase b
        if j == 0:
            return _osc_finite_1d(phis[0], b, d[0], s[0]).value
        m = -ctx.valuation(b) if b else 0
        K = max(levels[j], -(-m // d[j]))
        parts = []
        for v in range(K):
            L = max(levels[j] - v, m - v * d[j], 1)
            counts = {}
            for u in range(1, p**L):
                y = phis[j].value_at(p**v * u) if u % p else 0
                if y != 0:
                    key = (ctx.frac_part(b * (p**v * u) ** d[j]), y)
                    counts[key] = counts.get(key, 0) + 1
            scale = cmath.exp(-v * s[j] * lnp) / p**L
            parts += [scale * c * y * level(j - 1, phase) for (phase, y), c in counts.items()]
        v0 = phis[j].value_at(0)
        if v0 != 0:
            tail = (1.0 - 1.0 / p) * cmath.exp(-K * s[j] * lnp) / (1.0 - cmath.exp(-s[j] * lnp))
            parts.append(v0 * level(j - 1, Fraction(0)) * tail)
        return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))

    return OscillatoryResult(level(n - 1, top), exact=True)


def _tabulated_transform(phi: BumpFunction, d: int, s: complex):
    """w -> (value, err) of  int |r|^{s-1} e^{-2 pi i w r^d} phi(r) dr  over
    the half-lines of phi's support, by a Gauss-Legendre table.  Each
    half-line is cut into n = 16 2^k panels uniform in r^d, n the least
    with at most half a period of the phase per panel.  For real s, the
    first panel [0, e1] of a half-line that starts at 0 takes r^{s-1} as the
    weight of a Gauss-Jacobi rule, ``roots_jacobi(m, 0, s - 1)`` in
    r = e1 (1 + x)/2, built once per call.  For complex s, where that
    weight would leave the oscillating r^{i Im s} in the integrand (as in
    ``_power_weighted``), the panel is cut geometrically towards
    eps = 2^-60 times its width, which keeps r^{s-1} smooth on every panel,
    and [0, eps] adds phi(0) eps^s / s.  The nodes t = r^d and the weights
    times r^{s-1} phi(sign r) are tabulated once per n as cosine and sine
    weights; two half-lines of the same range share their nodes, since
    sin(-x) = -sin(x), and a value is two numpy dots.  The error is the
    distance to the 14-node rule on the same panels plus
    1e-15 (1 + |w| R^d) times the L1 mass of the terms, for the rounding
    of the phase.  Above _TABLE_MAX_PANELS panels the value is
    ``_osc_real_1d``'s."""
    halves = _halflines(phi.support)
    span = max(R**d - r0**d for _, r0, R in halves)
    Rd = max(R**d for _, _, R in halves)
    power = s.real - 1.0 if s.imag == 0.0 else s - 1.0
    rules = [_leggauss(m) for m in _TABLE_NODES]
    if s.imag == 0.0:
        from scipy.special import roots_jacobi

        jacobi = [roots_jacobi(m, 0.0, power) for m in _TABLE_NODES]
    tables = {}

    def table(n: int):
        nodes, cos_w, sin_w, const, mass = {}, {}, {}, 0j, 0.0
        for sign, r0, R in halves:
            edges = (r0**d + (R**d - r0**d) * np.arange(n + 1) / n) ** (1.0 / d)
            if r0 == 0.0 and s.imag != 0.0:
                edges = np.concatenate([edges[1] * 2.0 ** -np.arange(float(_TABLE_GRADING), 0.0, -1.0), edges[1:]])
                const += phi(0.0) * edges[0] ** s / s
            lo, hi = edges[:-1, None], edges[1:, None]
            r = [((lo + hi) / 2 + (hi - lo) / 2 * x).ravel() for x, _ in rules]
            w = [((hi - lo) / 2 * wq).ravel() * rq**power for (_, wq), rq in zip(rules, r)]
            if r0 == 0.0 and s.imag == 0.0:
                for (x, wj), rq, wq in zip(jacobi, r, w):
                    rq[: len(x)], wq[: len(x)] = edges[1] / 2 * (1.0 + x), (edges[1] / 2) ** s.real * wj
            w = [wq * phi.values(sign * rq) for wq, rq in zip(w, r)]
            weights = np.zeros((2, len(r[0]) + len(r[1])), w[0].dtype)
            weights[0, : len(r[0])], weights[1, len(r[0]) :] = w
            nodes[r0, R] = np.concatenate(r) ** d
            cos_w[r0, R] = cos_w.get((r0, R), 0.0) + weights
            sin_w[r0, R] = sin_w.get((r0, R), 0.0) + sign**d * weights
            mass += float(np.abs(w[0]).sum())
        t, c, sn = (np.concatenate(list(m.values()), axis=-1) for m in (nodes, cos_w, sin_w))
        return 2.0 * math.pi * t, c, sn, const, mass

    def transform(w: float) -> tuple[complex, float]:
        n = _TABLE_PANELS
        while n < 2.0 * abs(w) * span and n <= _TABLE_MAX_PANELS:
            n *= 2
        if n > _TABLE_MAX_PANELS:
            r = _osc_real_1d(phi, w, d, s)
            return r.value, r.error
        if n not in tables:
            tables[n] = table(n)
        t, c, sn, const, mass = tables[n]
        phase = w * t
        fine, coarse = c @ np.cos(phase) - 1j * (sn @ np.sin(phase))
        return complex(fine) + const, abs(fine - coarse) + 1e-15 * (1.0 + abs(w) * Rd) * mass

    return transform


def _osc_arch_nd(phis, a, d, s) -> OscillatoryResult:
    """Iterated quadrature over half-lines.  Alone, coordinate 0 is the
    1-d machinery, ``_osc_real_1d``; under an outer integral it is
    ``_tabulated_transform``, one Gauss-Legendre table evaluated by numpy
    at each frequency.  Each outer coordinate y_j with support (lo, hi) is
    split at 0 into |y_j| in [max(lo, 0), hi] and the mirrored
    [max(-hi, 0), -lo], with |y_j|^{s_j-1} as in ``_power_weighted``, so a
    support that misses 0 is integrated only where phi_j lives.  The
    coordinates below j see y_j, ..., y_{n-1} only through the frequency
    a prod_{k>=j} y_k^{d_k}, so each level is cached by it: the real and
    imaginary QUADPACK passes and, for even d_j, the two halves share
    their inner values.  The error is the outer QUADPACK estimate plus
    each inner level's largest estimate times the L1 mass
    prod int |phi_k| |y|^{Re s_k - 1} dy of the coordinates outside it."""
    n = len(phis)
    if n == 1:
        return _osc_real_1d(phis[0], a, d[0], s[0])
    kw = dict(epsrel=1e-6, limit=200) if n == 2 else dict(epsrel=1e-5, limit=100)
    halves = [_halflines(phi.support) for phi in phis]
    inner = _tabulated_transform(phis[0], d[0], s[0])
    cache, worst = {}, [0.0] * n

    def level(j: int, aa: float) -> complex:
        # the integral over y_0 .. y_j at frequency aa
        if (j, aa) not in cache:
            if j == 0:
                val, err = inner(aa)
            else:
                val, err = 0j, 0.0
                for sign, r0, R in halves[j]:
                    f = lambda y: level(j - 1, aa * (sign * y) ** d[j]) * phis[j](sign * y)
                    v, e = _power_weighted(f, R, s[j], r0, **kw)
                    val, err = val + v, err + e
            cache[j, aa] = val
            worst[j] = max(worst[j], err)
        return cache[j, aa]

    value, error, mass = level(n - 1, float(a)), worst[n - 1], 1.0
    for j in range(n - 1, 0, -1):
        mass_j = 0.0
        for sign, r0, R in halves[j]:
            mass_j += _power_weighted(lambda y: abs(phis[j](sign * y)), R, complex(s[j].real), r0)[0].real
        mass *= mass_j
        error += worst[j - 1] * mass
    return OscillatoryResult(value, exact=False, error=error)


def osc_integral_nd(place: Place, phis: Sequence, a, d: Sequence[int], s: Sequence) -> OscillatoryResult:
    """int prod |x_j|^{s_j - 1} psi(a x_1^{d_1} ... x_n^{d_n}) Phi(x) dx
    for a product test function Phi = prod phi_j, n <= 3."""
    phis = tuple(phis)
    d = tuple(int(t) for t in d)
    s = tuple(complex(t) for t in s)
    if not 1 <= len(phis) <= 3 or len(d) != len(phis) or len(s) != len(phis):
        raise ValueError("need matching tuples with 1 <= n <= 3")
    if any(t.real <= 0 for t in s):
        raise NonconvergentError("osc_integral_nd requires Re(s_j) > 0")
    _check_test_fns(place, phis)
    if place.is_finite:
        return _osc_finite_nd(phis, a, d, s)
    if place.kind == "real":
        return _osc_arch_nd(phis, a, d, s)
    raise ValueError("n-dimensional complex-place integrals are not provided")


# ---------------------------------------------------------------------------
# inverse phase:  eta_a(s) = int |x|^{s-1} psi(a / x^d) Phi(x) dx


def _inverse_finite(phi: StepFunction, a, d: int, s: complex) -> OscillatoryResult:
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
        U = _unit_shell_integral(p, adoubleprime, d, lambda w: phi.value_at(pt / w), lf)
        if U != 0:
            parts.append(cmath.exp(-t * s * lnp) * U)
        t += 1
        if t > tmin + 500:
            raise DepthOverflowError("inverse-phase shell recursion did not terminate")
    value = complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
    return OscillatoryResult(value, exact=True)


def _inverse_real(phi: BumpFunction, a, d: int, s: complex) -> OscillatoryResult:
    """Each half-line y in [r0, R] of phi's support, x = sign y, is split at
    y*^d = |A|, A = a sign^d, y* clamped to [r0, R].  On [y*, R] the phase
    stays within one turn; it is integrated in v = log y, which resolves
    the feature at y*.  On [r0, y*], t = y^-d makes the phase linear,
    e^{-i omega t} with omega = 2 pi A, under
    g(t) = t^{-s/d-1} phi(sign t^{-1/d}) / d:
    - a support that misses 0 (r0 > 0) gives QAWO on [y*^-d, r0^-d];
    - where 0 lies strictly inside the support, at distance e from its
      nearer end, g is analytic in t off [0, e^-d].  QAWO takes
      [T0, T1], T0 = y*^-d and T1 = max(T0, (2/e)^d), and [T1, inf) is
      one dot with ``_descent_rule`` on the steepest-descent path
      t = T1 - i sgn(omega) y/|omega|, where |sign t^{-1/d}| <= e/2 and phi
      is ``BumpFunction.analytic``.  Its error is the distance to the
      14-node rule plus 1e-15 (1 + |omega| T1) times the L1 mass of the
      terms, for the rounding of the phase.  The path's frequency
      |omega| T1 >= |omega| T0 = 2 pi max(1, |A| / R^d) is never below 1,
      so it needs none of ``density._power_tail``'s split;
    - where an end of the support is 0, phi has an essential singularity
      at t = inf, and [T0, inf) stays with QAWF, which works to an
      absolute tolerance only."""
    a = float(a)
    power = -s.real / d - 1.0 if s.imag == 0.0 else -s / d - 1.0
    lo, hi = phi.support
    edge = min(-lo, hi)  # > 0 where 0 lies strictly inside the support
    total, err = 0j, 0.0
    for sign, r0, R in _halflines(phi.support):
        A = a * sign**d
        ystar = min(max(abs(A) ** (1.0 / d), r0), R)
        if ystar < R:
            f = lambda v: cmath.exp(s * v - 2j * math.pi * A * math.exp(-d * v)) * phi(sign * math.exp(v))
            val, e = quad_complex(f, math.log(ystar), math.log(R), epsabs=1e-14)
            total, err = total + val, err + e
        if ystar > r0:
            g = lambda t: (1.0 / d) * t**power * phi(sign * t ** (-1.0 / d))
            omega, T0 = 2.0 * math.pi * A, ystar**-d
            if r0 > 0.0:
                top = r0**-d
            elif edge > 0.0:
                top = max(T0, (2.0 / edge) ** d)
            else:
                top = math.inf
            if top > T0:
                val, e = quad_oscillatory(g, T0, top, omega, epsabs=1e-14)
                total, err = total + val, err + e
            if r0 == 0.0 and edge > 0.0:
                val, e = _descent_tail(phi, sign, top, omega, d, power)
                total, err = total + val, err + e
    return OscillatoryResult(total, exact=False, error=err)


def _descent_tail(phi: BumpFunction, sign: float, T: float, omega: float, d: int, power) -> tuple[complex, float]:
    """int_T^inf t^power phi(sign t^{-1/d}) e^{-i omega t} dt / d on the
    path t = T - i sgn(omega) y/|omega|, y >= 0, where e^{-i omega t} is
    e^{-i omega T} e^{-y}; (value, err) as in ``_inverse_real``."""
    step = -1j * math.copysign(1.0, omega) / abs(omega)

    def terms(m: int) -> np.ndarray:
        y, w = _descent_rule(m)
        t = T + step * y
        return w * (1.0 / d) * t**power * phi.analytic(sign * t ** (-1.0 / d))

    fine, coarse = terms(20), terms(14)
    total, mass = complex(fine.sum()), float(np.abs(fine).sum())
    value = step * cmath.exp(-1j * omega * T) * total
    return value, abs(step) * (abs(total - complex(coarse.sum())) + 1e-15 * (1.0 + abs(omega) * T) * mass)


def inverse_phase_integral(place: Place, phi, a, d: int, s) -> OscillatoryResult:
    """eta_a(s) = int |x|^{s-1} psi(a / x^d) Phi(x) dx: exact at finite
    places, as the shell series sum_n q^{-ns} eta_{a,n}(s) with finitely
    many nonzero shells; on R one oscillatory integral in t = |x|^-d per
    half-line, with the sum of the QUADPACK error estimates.  Valid for
    Re(s) > -1."""
    s = complex(s)
    if a == 0:
        raise ValueError("a must be nonzero")
    if s.real <= -1.0:
        raise NonconvergentError("inverse_phase_integral requires Re(s) > -1")
    _check_test_fns(place, (phi,))
    if place.is_finite:
        return _inverse_finite(phi, a, d, s)
    if place.kind == "real":
        return _inverse_real(phi, a, d, s)
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


def decay_report(place: Place, phi, d, s, abs_values) -> DecayReport:
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
            r = osc_integral_nd(place, phi, a, d, s)
        else:
            r = osc_integral_1d(place, phi, a, d, s)
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

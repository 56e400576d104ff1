"""Local Fourier transforms of heights, explicit stratum-count densities
with an independent residue-cell oracle, regularized Euler products, and
the predicted leading constant.

Two independent routes compute the local density at a finite place:

* ``denef_density`` evaluates the closed stratum-count formula
  q^{-dim} sum_A #D_A^0(F_q) prod_{alpha in A} (q-1)/(q^{s_alpha - rho_alpha + 1} - 1).

* ``brute_density_oracle`` integrates the height directly: the domain is
  cut into valuation cells, the integrand is certified constant on each
  cell by probing it at several exact rational points, and the unbounded
  directions are summed as certified geometric series.  It never touches
  stratum counts, so agreement with the formula is a genuine cross-check.

The leading constant is the normalized pole coefficient
lim (s-1)^b H^(0; s lambda) / (b-1)!  evaluated on an epsilon grid with
Richardson extrapolation.  The Euler product over p outside S, regularized
by zeta convergence factors, is one array evaluation of the stratum-count
formula over the primes, multiplied left to right; ``threads`` has no effect.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import zeta as _riemann_zeta

from .boundary import divisor_coefficients, ep_rank, exponent_b
from .catalog import CompactificationModel
from .errors import NonconvergentError, NumericError, PoleError
from .localfield import Place, padic, primes_upto, quad_complex, residue_c

TWO_PI = 2.0 * math.pi


@dataclass
class EulerProductValue:
    cutoff: int
    partial: complex  # plain product of local factors up to the cutoff
    corrected: complex  # with zeta convergence factors restored
    tail_estimate: float


@dataclass
class ThetaResult:
    model: str
    S: tuple
    theta: float
    b: int
    estimates: list[float]
    unstable: bool
    euler_tail: float


# ---------------------------------------------------------------------------
# s-vectors


def s_vector(model: CompactificationModel, s0) -> dict:
    """The log-anticanonical direction: s_alpha = lambda_alpha * s0."""
    return {a: model.divisors.lam(a) * complex(s0) for a in model.divisors.labels}


def _s_map(model, s) -> dict:
    if isinstance(s, dict):
        return {a: complex(v) for a, v in s.items()}
    return s_vector(model, s)


# ---------------------------------------------------------------------------
# the stratum-count formula


def denef_density(model: CompactificationModel, p, s, restrict: bool = True):
    """The local height Fourier transform at the trivial character, from
    finite-field stratum counts.  With ``restrict`` the integral runs over
    the integral points (strata inside the removed components excluded);
    without it, over all of X(Q_p) -- the form used at places in S.  ``p``
    is a prime, or an integer array of primes for one value per prime.
    """
    smap = _s_map(model, s)
    q = np.asarray(p, dtype=np.int64)
    lnq = np.log(q)
    total = np.zeros(q.shape, dtype=complex)
    for A in [frozenset()] + model.incidence_faces():
        if restrict and A & model.divisors.removed:
            continue
        cnt = model.stratum_counts(q, A)
        if not np.any(cnt):
            continue
        term = np.broadcast_to(cnt, q.shape).astype(complex)
        for alpha in A:
            w = smap[alpha] - model.divisors.rho_of(alpha) + 1
            denom = np.exp(w * lnq) - 1.0
            pole = np.abs(denom) < 1e-13
            if np.any(pole):
                raise PoleError(f"local density pole at p={q[pole][0]}, alpha={alpha}")
            term *= (q - 1) / denom
        total += term
    total *= 1.0 / q.astype(float) ** model.dim  # 1 / exact q^dim rounds like scalar q ** -dim
    return complex(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# the independent oracle: certified valuation-cell summation


_ZP = ("zp",)


def _probe_reps(p: int, cell):
    """Exact rational probe points covering a cell of one coordinate."""
    if cell == _ZP:
        return [Fraction(0), Fraction(1), Fraction(p)]
    _, k = cell  # shell |x| = p^k, k >= 1
    units = [1, p + 1] + ([p - 1] if p > 2 else [3])
    return [Fraction(u, p**k) for u in units]


class _CellProber:
    """Certified evaluation of the height exponents on valuation cells."""

    def __init__(self, model, p: int, restrict: bool):
        self.model = model
        self.p = p
        self.ctx = padic(p)
        self.restrict = restrict
        self.place = Place.finite(p)
        self.cache: dict = {}

    def exponents(self, cells) -> tuple | None:
        """Per-component norm exponents e_alpha (||f_alpha|| = p^{-e}) on
        the product cell, certified constant by probing every combination
        of per-coordinate representatives; None when the cell is excluded
        by the integrality condition."""
        key = tuple(cells)
        if key in self.cache:
            return self.cache[key]
        reps = [_probe_reps(self.p, c) for c in cells]
        seen = None
        for pt in itertools.product(*reps):
            if self.restrict and not self.model.is_integral(self.place, pt):
                val = None
            else:
                val = tuple(
                    -self.ctx.valuation(self.model.local_height(self.place, a, pt)) for a in self.model.divisors.labels
                )
            if seen is None:
                seen = ("set", val)
            elif seen != ("set", val):
                raise NumericError(
                    f"integrand not constant on cell {cells} at p={self.p}; increase the depth"
                )
        self.cache[key] = seen[1]
        return seen[1]


def _cell_volume(p: int, cell) -> Fraction:
    if cell == _ZP:
        return Fraction(1)
    _, k = cell
    return Fraction(p) ** (k - 1) * (p - 1)


def _char_weight(p: int, cell, j: int | None) -> Fraction | None:
    """int over the cell of psi(a_i x) dx (j = v_p(a_i), None for a_i = 0);
    None marks a vanishing cell."""
    if cell == _ZP:
        return Fraction(1)
    _, k = cell
    if j is None:
        return _cell_volume(p, cell)
    if k <= j:
        return _cell_volume(p, cell)
    if k == j + 1:
        return -(Fraction(p) ** j)
    return None


def _padic_cell_sum(model, p: int, smap: dict, m: int, restrict: bool, a=None) -> complex:
    """Shared engine behind the oracle and the finite-place character
    transform.  Coordinates are cut into Z_p, the shells |x| = p^k, and a
    geometric tail; with a character the shell weights become exact
    character sums and the unbounded directions only survive along the
    kernel of the character."""
    if m < 2:
        raise ValueError("depth m >= 2 required")
    ctx = padic(p)
    n = model.dim
    labels = model.divisors.labels
    lnp = math.log(p)
    prober = _CellProber(model, p, restrict)

    js = None
    if a is not None:
        js = [ctx.valuation(t) if t != 0 else None for t in a]

    def hval(evec) -> complex:
        acc = 0j
        for alpha, e in zip(labels, evec):
            acc += smap[alpha] * e
        return cmath.exp(-acc * lnp)

    # per-coordinate cell menus; "tail" covers shells k >= m
    menus = []
    for i in range(n):
        cells = [_ZP]
        if js is not None and js[i] is not None:
            cells += [("shell", k) for k in range(1, js[i] + 2)]
        else:
            cells += [("shell", k) for k in range(1, m)]
            cells += ["tail"]
        menus.append(cells)

    def fixed_weight(i, cell) -> Fraction | None:
        if js is None or js[i] is None:
            return _cell_volume(p, cell) if cell != _ZP else Fraction(1)
        return _char_weight(p, cell, js[i])

    def tail_sum(tail_coords: tuple, start: int, fixed: dict) -> complex:
        """Sum over shells k_i >= start for i in tail_coords, others fixed;
        certified geometric via the diagonal self-similarity."""

        def block(assign: dict) -> tuple | None:
            cells = []
            for i in range(n):
                if i in assign:
                    cells.append(("shell", assign[i]))
                else:
                    cells.append(fixed[i])
            return prober.exponents(tuple(cells))

        base = {i: start for i in tail_coords}
        e0 = block(base)
        if e0 is None:
            return 0j
        e1 = block({i: start + 1 for i in tail_coords})
        e2 = block({i: start + 2 for i in tail_coords})
        d1 = tuple(x - y for x, y in zip(e1, e0))
        d2 = tuple(x - y for x, y in zip(e2, e1))
        if d1 != d2:
            raise NumericError("tail is not geometric; increase the depth m")
        ratio = cmath.exp(-sum(smap[alpha] * d for alpha, d in zip(labels, d1)) * lnp)
        scale = ratio * p ** len(tail_coords)
        if abs(scale) >= 1.0 - 1e-12:
            raise NonconvergentError("outside the convergence region of the local density")

        # boundary layer: at least one tail coordinate sits at k = start
        layer = 0j
        items = tuple(tail_coords)
        for r in range(1, len(items) + 1):
            for U in itertools.combinations(items, r):
                rest = tuple(i for i in items if i not in U)
                pinned = dict(fixed)
                w = Fraction(1)
                for i in U:
                    pinned[i] = ("shell", start)
                    w *= _cell_volume(p, ("shell", start))
                if rest:
                    layer += float(w) * tail_sum(rest, start + 1, pinned)
                else:
                    evec = prober.exponents(tuple(pinned[i] for i in range(n)))
                    if evec is not None:
                        layer += float(w) * hval(evec)
        return layer / (1.0 - scale)

    total = 0j
    finite_menus = [[c for c in menu if c != "tail"] for menu in menus]
    has_tail = [("tail" in menu) for menu in menus]
    for combo in itertools.product(*[fm + (["tail"] if ht else []) for fm, ht in zip(finite_menus, has_tail)]):
        tail_coords = tuple(i for i, c in enumerate(combo) if c == "tail")
        fixed = {i: c for i, c in enumerate(combo) if c != "tail"}
        w = Fraction(1)
        dead = False
        for i, cell in fixed.items():
            wi = fixed_weight(i, cell)
            if wi is None or wi == 0:
                dead = True
                break
            w *= wi
        if dead:
            continue
        if tail_coords:
            total += float(w) * tail_sum(tail_coords, m, fixed)
            continue
        evec = prober.exponents(tuple(combo))
        if evec is None:
            continue
        total += float(w) * hval(evec)
    return total


def brute_density_oracle(model, p: int, s, m: int = 3, restrict: bool = True) -> complex:
    """Direct residue-cell integration of the local height; independent of
    the stratum-count formula.  Requires depth m >= 2."""
    return _padic_cell_sum(model, p, _s_map(model, s), m, restrict, a=None)


def fourier_finite(model, p: int, a, s, m: int = 3) -> complex:
    """Exact local Fourier transform int delta prod ||f||^{s} psi(<a,x>) dx
    at a finite place.  Vanishes outside the unit character lattice Z_p^n
    (the height is invariant under translation by G(Z_p))."""
    if isinstance(a, (int, Fraction)):
        a = (a,)
    a = tuple(Fraction(t) for t in a)
    if len(a) != model.dim:
        raise ValueError("character dimension mismatch")
    if all(t == 0 for t in a):
        return denef_density(model, p, s, restrict=True)
    ctx = padic(p)
    if any(t != 0 and ctx.valuation(t) < 0 for t in a):
        return 0j
    return _padic_cell_sum(model, p, _s_map(model, s), m, restrict=True, a=a)


def char_bound_quantity(model, p: int, a, s) -> float:
    """|1 - H^_p(a; s) prod_{alpha kept, d_alpha(a)=0} (1 - p^{-(1+s_alpha-rho_alpha)})|,
    the quantity whose p^{-1-eps} decay controls the nontrivial Euler products."""
    smap = _s_map(model, s)
    d = divisor_coefficients(model, a)
    val = fourier_finite(model, p, a, smap)
    for alpha in model.divisors.kept:
        if d[alpha] == 0:
            w = 1.0 + smap[alpha] - model.divisors.rho_of(alpha)
            val *= 1.0 - cmath.exp(-w * math.log(p))
    return abs(1.0 - val)


# ---------------------------------------------------------------------------
# archimedean densities


def _box(M: float, b: float) -> float:
    """int_0^M cos(b x) dx."""
    return math.sin(b * M) / b if b != 0.0 else M


def _cos_transform(f, lo: float, b: float) -> complex:
    """int_lo^inf f(x) cos(b x) dx: one QAWF cosine call per real part of
    f, or plain quadrature at b = 0, where the cosine weight is wrong.
    The tolerance is one digit tighter than the quad_complex default: at
    1e-10 the outer transform of _arch_joint_max, whose integrand is itself
    a transform, lands anywhere from 1e-12 to 6e-11 off, depending on a."""
    tol = dict(epsrel=1e-11, epsabs=1e-13)
    if b == 0.0:
        return quad_complex(f, lo, math.inf, **tol)[0]
    return quad_complex(f, lo, math.inf, weight="cos", wvar=b, **tol)[0]


def _arch_transform_max1d(a: Sequence[float], w: complex) -> complex:
    """int max(1,|x|)^{-w} psi(a1 x) dx on R, a = (a1,).  The integrand is
    even, so this is 2 int_0^inf max(1,x)^{-w} cos(2 pi a1 x) dx, split at
    x = 1."""
    if a[0] == 0.0:
        return 2.0 + 2.0 / (w - 1.0)
    b = TWO_PI * abs(a[0])
    return 2.0 * _box(1.0, b) + 2.0 * _cos_transform(lambda x: x ** (-w), 1.0, b)


def _arch_joint_max(a: Sequence[float], w: complex) -> complex:
    """int max(1,|x|,|y|)^{-w} psi(a1 x + a2 y) dx dy on R^2, as the cosine
    transform 4 int_0^inf int_0^inf max(1,x,y)^{-w} cos(b1 x) cos(b2 y)
    dx dy with b_i = 2 pi |a_i|."""
    b1, b2 = TWO_PI * abs(a[0]), TWO_PI * abs(a[1])
    if b1 == 0.0 and b2 == 0.0:
        return 4.0 + 8.0 / (w - 2.0)
    if b2 == 0.0:
        # the integrand is symmetric in x and y; a zero frequency is cheaper
        # on the inner integral, which is then not oscillatory
        b1, b2 = b2, b1

    def inner(y: float) -> complex:
        # the transform in x is closed-form on [0, M], M = max(1, y)
        M = max(1.0, y)
        return M ** (-w) * _box(M, b1) + _cos_transform(lambda x: x ** (-w), M, b1)

    # inner(y) is constant on [0, 1]
    return 4.0 * (inner(1.0) * _box(1.0, b2) + _cos_transform(inner, 1.0, b2))


def _quad_max1d(w: float) -> float:
    """Direct quadrature of int max(1,|x|)^{-w} dx (verification path)."""
    from scipy.integrate import quad as _quad

    head, _ = _quad(lambda x: 1.0, -1.0, 1.0)
    tail, _ = _quad(lambda x: x ** (-w), 1.0, math.inf)
    return head + 2.0 * tail


def _quad_joint_max(w: float) -> float:
    """Direct quadrature of int max(1,|x|,|y|)^{-w} dx dy on the
    compactified square (verification path)."""
    import warnings

    from scipy.integrate import IntegrationWarning, dblquad

    def integrand(u, v):
        x = u / (1.0 - u * u)
        y = v / (1.0 - v * v)
        jac = (1.0 + u * u) / (1.0 - u * u) ** 2 * (1.0 + v * v) / (1.0 - v * v) ** 2
        return max(1.0, abs(x), abs(y)) ** (-w) * jac

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(integrand, -1.0, 1.0, -1.0, 1.0, epsabs=1e-10, epsrel=1e-9)
    return val


# block size -> (transform of max(1, |x_i|)^{-w}, direct quadrature at a = 0)
_BLOCK_TRANSFORMS = {1: (_arch_transform_max1d, _quad_max1d), 2: (_arch_joint_max, _quad_joint_max)}


def arch_density(model, a, s0, method: str = "auto") -> complex:
    """H^_inf(a; s0*lambda): the archimedean height transform, the product
    over labels alpha of the transform of max(1, |x_i| : i in the block of
    alpha)^{-lambda_alpha s0} at the block of a.  Each is closed-form at a
    zero block; ``method='quad'`` replaces them at a = 0 by direct
    quadrature (the cross-check path)."""
    s0 = complex(s0)
    if not isinstance(a, (tuple, list)):
        a = (0.0,) * model.dim if a is None or a == 0 else (a,)
    avec = [float(t) for t in a]
    if len(avec) != model.dim:
        raise ValueError(f"{model.id} expects a character of dimension {model.dim}")
    blocks = [(model.divisors.lam(alpha) * s0, idx) for alpha, idx in model.norm_coords.items()]
    if method == "quad" and not any(avec):
        return complex(math.prod(_BLOCK_TRANSFORMS[len(idx)][1](w.real) for w, idx in blocks))
    return math.prod(_BLOCK_TRANSFORMS[len(idx)][0]([avec[i] for i in idx], w) for w, idx in blocks)


# ---------------------------------------------------------------------------
# Euler products and the constant


def zeta_S(w: float, S: Sequence[Place]) -> float:
    """Riemann zeta with the Euler factors at the finite places of S removed."""
    if w <= 1.0:
        raise PoleError("zeta_S requires w > 1")
    val = float(_riemann_zeta(w))
    for v in S:
        if v.is_finite:
            val *= 1.0 - v.prime ** (-w)
    return val


def _primes_off(S: Sequence[Place], cutoff: int) -> np.ndarray:
    """The primes p <= cutoff that are not finite places of S, ascending."""
    primes = np.array(primes_upto(cutoff), dtype=np.int64)
    return primes[~np.isin(primes, [v.prime for v in S if v.is_finite])]


def _running_product(factors: np.ndarray) -> np.ndarray:
    """1, f_0, f_0 f_1, ...: entry k multiplies the first k factors in order."""
    return np.multiply.accumulate(np.concatenate(([1.0], factors)))


def euler_product(model, s0, S: Sequence[Place], cutoff: int = 10_000, threads: int = 1) -> EulerProductValue:
    """Regularized product of the restricted local densities over the
    primes outside S: the zeta factors zeta_S(1 + s_alpha - rho_alpha)
    (kept components) are divided out of each local factor and restored
    globally.  The local factors come from one array evaluation of
    ``denef_density`` over the primes, multiplied left to right;
    ``threads`` is accepted for interface stability and has no effect."""
    s0 = complex(s0)
    smap = s_vector(model, s0)
    ws = [1.0 + (smap[alpha] - model.divisors.rho_of(alpha)).real for alpha in model.divisors.kept]
    if any(w <= 1.0 for w in ws):
        raise NonconvergentError("Euler product evaluated outside its convergence region")
    primes = _primes_off(S, cutoff)
    loc = denef_density(model, primes, smap, restrict=True)
    reg = loc
    for w in ws:
        reg = reg * (1.0 - primes ** (-w))
    partial = complex(_running_product(loc)[-1])
    running = _running_product(reg)
    corrected = complex(running[-1])
    half = complex(running[np.searchsorted(primes, cutoff // 2, side="right")])
    head = math.prod(zeta_S(w, S) for w in ws)
    tail_estimate = abs(corrected - half) * abs(head)
    return EulerProductValue(cutoff, partial, corrected * head, tail_estimate)


def _extrapolate_to_zero(eps: Sequence[float], vals: Sequence[float], order: int = 2) -> tuple[float, float]:
    eps = list(eps)
    vals = list(vals)
    if len(eps) < order + 1:
        raise ValueError("need at least order+1 grid points")
    main = float(np.polyfit(eps[-(order + 1) :], vals[-(order + 1) :], order)[-1])
    alt = float(np.polyfit(eps[: order + 1], vals[: order + 1], order)[-1])
    return main, abs(main - alt)


def theta_constant(
    model,
    S: Sequence[Place],
    *,
    prime_cutoff: int = 10_000,
    eps_grid: Sequence[float] = (0.1, 0.05, 0.02, 0.01),
    threads: int = 1,
) -> ThetaResult:
    """The leading constant: lim_{s->1+} (s-1)^b H^(0; s lambda) / (b-1)!
    by Richardson extrapolation on the epsilon grid."""
    b = exponent_b(model, S)
    ests = []
    tail = 0.0
    for eps in eps_grid:
        s0 = 1.0 + eps
        val = complex(arch_density(model, 0, s0))
        for v in S:
            if v.is_finite:
                val *= denef_density(model, v.prime, s_vector(model, s0), restrict=False)
        ep = euler_product(model, s0, S, cutoff=prime_cutoff, threads=threads)
        tail = max(tail, ep.tail_estimate)
        val *= ep.corrected
        ests.append((eps**b) * val.real / math.factorial(b - 1))
    theta, spread = _extrapolate_to_zero(eps_grid, ests, order=2)
    unstable = spread > 0.01 * abs(theta)
    return ThetaResult(model.id, tuple(str(v) for v in S), theta, b, ests, unstable, tail)


# ---------------------------------------------------------------------------
# boundary residue measures and the factorized constant


def _line_mass(place: Place, e: int) -> float:
    """int max(1,|w|)^{-e} dw over the completion, e >= 2."""
    if place.kind == "real":
        return 2.0 + 2.0 / (e - 1.0)
    p = place.prime
    return (1.0 - p ** (-float(e))) / (1.0 - p ** (1.0 - float(e)))


def tau_max_boundary(model, place: Place) -> float:
    """Mass of the boundary residue measure at a place of S: the sum over
    maximal faces A of prod_{alpha in A} c_v u_v / (rho_alpha - 1) times
    the stratum integral (a point mass, or a chart line integral of the
    residual density).  u_v is the unit-sphere volume correction, 1 at the
    real place and (1 - 1/q) at a finite place."""
    cv = residue_c(place)
    uv = 1.0 if place.is_archimedean else 1.0 - 1.0 / place.prime
    total = 0.0
    for face, density_exp in model.boundary_charts():
        if not model.has_rational_points(face, place):
            continue
        w = 1.0
        for alpha in face:
            w *= cv * uv / (model.divisors.rho_of(alpha) - 1)
        if density_exp is not None:
            w *= _line_mass(place, density_exp)
        total += w
    return total


def tau_adelic(model, S: Sequence[Place], cutoff: int = 10_000) -> float:
    """Regularized volume of the integral adelic points off S with respect
    to the log-boundary-twisted measure; the Picard-rank many zeta factors
    are removed locally and restored through the residue of zeta_S."""
    r = ep_rank(model)
    primes = _primes_off(S, cutoff)
    loc = denef_density(model, primes, s_vector(model, 1.0), restrict=True).real
    prod = float(_running_product((1.0 - 1.0 / primes) ** r * loc)[-1])
    residue = math.prod(1.0 - 1.0 / v.prime for v in S if v.is_finite)
    return (residue**r) * prod


def theta_factored(model, S: Sequence[Place], cutoff: int = 10_000) -> float:
    """The constant as the product form: prod 1/rho_alpha (kept) times the
    adelic volume times the boundary masses at the places of S."""
    val = 1.0
    for alpha in model.divisors.kept:
        val /= model.divisors.rho_of(alpha)
    val *= tau_adelic(model, S, cutoff)
    for v in S:
        val *= tau_max_boundary(model, v)
    return val

"""Local Fourier transforms of heights, explicit stratum-count densities
with an independent residue-cell oracle, regularized Euler products, and
the predicted leading constant.

The local height transforms are read off the blocks: ``arch_density`` at
the real place, and ``fourier_finite`` at a finite place and a nonzero
character, are products over the labels of one closed-form transform per
block, for a block P^k of any size k.

Two independent routes compute the local density at a finite place:

* ``denef_density`` evaluates the closed stratum-count formula
  q^{-dim} sum_A #D_A^0(F_q) prod_{alpha in A} (q-1)/(q^{s_alpha - rho_alpha + 1} - 1).

* ``brute_density_oracle`` integrates the height directly: the domain is
  cut into valuation cells, the integrand is certified constant on each
  cell by probing it at several exact rational points, and the unbounded
  directions are summed as certified geometric series.  It never touches
  stratum counts, so agreement with the formula is a genuine cross-check.
  The cells are certified once per model, prime and integrality flag and
  reused for every s and depth; the convergence check runs on every call.

The leading constant is the normalized pole coefficient
lim (s-1)^b H^(0; s lambda) / (b-1)!, read at s = 1: the zeta factors
contribute their residues, the regularized Euler product its value at
s = 1, and the local factors at the places of S times (s-1)^m the mean of
that analytic function over a small circle about s = 1.  The Euler product
over p outside S, regularized by zeta convergence factors, is one array
evaluation of the stratum-count formula over the primes, multiplied left
to right, and the factors at the primes of S one more, over those primes
and the nodes of the circle; ``threads`` has no effect.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boundary import divisor_coefficients, ep_rank, exponent_b
from .catalog import CompactificationModel
from .errors import ConfigError, NonconvergentError, NumericError, PoleError
from .localfield import Place, _descent_rule, is_prime, padic, prime_array, quad_complex, residue_c

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
    euler_tail: float


# ---------------------------------------------------------------------------
# s-vectors


def s_vector(model: CompactificationModel, s0) -> dict:
    """The log-anticanonical direction: s_alpha = lambda_alpha * s0, for a
    scalar s0 or elementwise over an array of them."""
    s0 = complex(s0) if np.isscalar(s0) else np.asarray(s0, dtype=complex)
    return {a: model.divisors.lam(a) * s0 for a in model.divisors.labels}


def _s_map(model, s) -> dict:
    if isinstance(s, dict):
        return {a: complex(v) if np.isscalar(v) else np.asarray(v, dtype=complex) for a, v in s.items()}
    return s_vector(model, s)


# ---------------------------------------------------------------------------
# the stratum-count formula


def denef_density(model: CompactificationModel, p, s, restrict: bool = True):
    """The local height Fourier transform at the trivial character, from
    finite-field stratum counts.  With ``restrict`` the integral runs over
    the integral points (strata inside the removed components excluded);
    without it, over all of X(Q_p) -- the form used at places in S.  ``p``
    is a prime or an integer array of primes and ``s`` an s0 or an array of
    them: the value has their broadcast shape, a Python complex for scalars.
    The stratum counts are formed in float, so any prime and dimension
    work: they are exact integers below 2^53, and past it carry a few ulp
    of rounding, as their scaling by p^-dim does anyway."""
    q = np.asarray(p, dtype=float)
    smap = _s_map(model, s)
    lnq = np.log(q)
    qdim = q**model.dim
    total = np.zeros(np.broadcast(q, *smap.values()).shape, dtype=complex)
    for A in [frozenset()] + model.incidence_faces():
        if restrict and A & model.divisors.removed:
            continue
        cnt = model.stratum_counts(q, A)
        if not np.any(cnt):
            continue
        # scaled in float before it turns complex: a count of q^dim gives exactly 1
        term = (np.broadcast_to(cnt, q.shape) / qdim).astype(complex)
        for alpha in (a for a in model.divisors.labels if a in A):
            w = smap[alpha] - model.divisors.rho_of(alpha) + 1
            denom = np.exp(w * lnq) - 1.0
            pole = np.abs(denom) < 1e-13
            if np.any(pole):
                at, s_at = (np.broadcast_to(x, pole.shape)[pole][0] for x in (q, smap[alpha]))
                raise PoleError(f"local density pole at p={int(at)}, s_{alpha}={s_at}, alpha={alpha}")
            term = term * ((q - 1) / denom)
        total += term
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


# one prober per model, prime and integrality flag, as ``padic`` keeps one
# context per prime: a cell's exponents depend on neither s nor the depth, so
# each cell is certified once and serves every later call (a cell that fails
# its check is not stored, and fails again).  The key is the blocks and the
# removed set, not the model id, which several models share.
_PROBERS: dict[tuple, _CellProber] = {}


def _prober(model, p: int, restrict: bool) -> _CellProber:
    blocks = tuple((alpha, tuple(idx)) for alpha, idx in model.norm_coords.items())
    key = (blocks, model.divisors.removed, p, restrict)
    prober = _PROBERS.get(key)
    if prober is None:
        prober = _PROBERS[key] = _CellProber(model, p, restrict)
    return prober


def _cell_volume(p: int, cell) -> Fraction:
    if cell == _ZP:
        return Fraction(1)
    _, k = cell
    return Fraction(p) ** (k - 1) * (p - 1)


def brute_density_oracle(model, p: int, s, m: int = 3, restrict: bool = True) -> complex:
    """Direct residue-cell integration of the local height; independent of
    the stratum-count formula.  Each coordinate is cut into Z_p, the shells
    |x| = p^k for 1 <= k < m, and a tail of the shells k >= m, summed as a
    certified geometric series.  Requires depth m >= 2."""
    if m < 2:
        raise ValueError("depth m >= 2 required")
    smap = _s_map(model, s)
    n = model.dim
    labels = model.divisors.labels
    lnp = math.log(p)
    prober = _prober(model, p, restrict)

    def hval(evec) -> complex:
        acc = 0j
        for alpha, e in zip(labels, evec):
            acc += smap[alpha] * e
        return cmath.exp(-acc * lnp)

    def tail_sum(tail_coords: tuple, start: int, fixed: dict) -> complex:
        """Sum over shells k_i >= start for i in tail_coords, others fixed;
        certified geometric via the diagonal self-similarity."""

        def block(assign: dict) -> tuple | None:
            return prober.exponents(tuple(("shell", assign[i]) if i in assign else fixed[i] for i in range(n)))

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
    menu = [_ZP] + [("shell", k) for k in range(1, m)] + ["tail"]
    for combo in itertools.product(menu, repeat=n):
        tail_coords = tuple(i for i, c in enumerate(combo) if c == "tail")
        fixed = {i: c for i, c in enumerate(combo) if c != "tail"}
        w = math.prod(_cell_volume(p, cell) for cell in fixed.values())
        if tail_coords:
            total += float(w) * tail_sum(tail_coords, m, fixed)
            continue
        evec = prober.exponents(tuple(combo))
        if evec is None:
            continue
        total += float(w) * hval(evec)
    return total


# ---------------------------------------------------------------------------
# finite-place character transforms


def _times_power(n: int, x: complex, lnp: float) -> complex:
    """n p^x for an integer n >= 1, as the int times e^{x log p}; past the
    float range of n (or of p^x), as e^{log n + x log p}.  NumericError
    where the value itself passes the float range."""
    try:
        return n * cmath.exp(x * lnp)
    except OverflowError:
        pass
    try:
        return cmath.exp(math.log(n) + x * lnp)
    except OverflowError:
        raise NumericError(f"an integer of {n.bit_length()} bits times p^({x}) passes the float range") from None


def _finite_block_transform(p: int, k: int, t: complex, b: tuple) -> complex:
    """int over Q_p^k of max(1, |x|)^{-t} psi(<b, x>) dx for b in Z_p^k.
    The ball |x| <= p^j carries p^{jk} while b is trivial on it, j <= v with
    v the least valuation of b, and nothing after; so the transform is the
    unit ball plus the shells j = 1..v, minus p^{vk} at shell v + 1, summed
    in that order, each shell through ``_times_power``.  At b = 0 it is the
    geometric series 1 + (1 - p^-k) r/(1 - r), r = p^{k-t}, which needs
    |r| < 1."""
    lnp = math.log(p)
    vals = [padic(p).valuation(c) for c in b if c != 0]
    if not vals:
        r = cmath.exp((k - t) * lnp)
        if abs(r) >= 1.0:
            raise NonconvergentError(f"the local transform at p={p} diverges: |p^(k-t)| >= 1")
        return 1.0 + (1.0 - p**-k) * r / (1.0 - r)
    v = min(vals)
    total = 1 + 0j
    pk = p**k
    prev, cur = 1, pk  # p^{(j-1)k} and p^{jk}
    for j in range(1, v + 1):
        total += _times_power(cur - prev, -(t * j), lnp)
        prev, cur = cur, cur * pk
    total -= _times_power(prev, -(t * (v + 1)), lnp)
    if not cmath.isfinite(total):
        raise NumericError(f"the local transform at p={p} passes the float range")
    return total


def fourier_finite(model, p: int, a, s):
    """Exact local Fourier transform int delta prod ||f||^{s} psi(<a,x>) dx
    at a finite place.  It vanishes outside the unit character lattice
    Z_p^n (the height is invariant under translation by G(Z_p)).  Inside
    it, and at a != 0, it is the product over the kept labels of the closed
    form of ``_finite_block_transform`` on their blocks: a removed block
    integrates psi over Z_p^k, which gives 1.  At a = 0 it is
    ``denef_density``.  An array ``s`` (or map of them) gives the array of
    the scalar values, one call each."""
    if isinstance(a, (int, Fraction)):
        a = (a,)
    a = tuple(Fraction(t) for t in a)
    if len(a) != model.dim:
        raise ValueError("character dimension mismatch")
    if all(t == 0 for t in a):
        return denef_density(model, p, s, restrict=True)
    smap = _s_map(model, s)
    if any(isinstance(v, np.ndarray) for v in smap.values()):
        cols = np.broadcast_arrays(*smap.values())
        vals = [fourier_finite(model, p, a, dict(zip(smap, sv))) for sv in zip(*(c.ravel() for c in cols))]
        return np.array(vals, dtype=complex).reshape(cols[0].shape)
    ctx = padic(p)
    if any(t != 0 and ctx.valuation(t) < 0 for t in a):
        return 0j
    removed = model.divisors.removed
    return complex(
        math.prod(
            _finite_block_transform(p, len(idx), smap[alpha], tuple(a[i] for i in idx))
            for alpha, idx in model.norm_coords.items()
            if alpha not in removed
        )
    )


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


# the frequency below which a power tail is split (see _power_tail)
_SPLIT_FREQ = 1.0
# a block transform's divided difference of sine tails loses about
# log10(b2 / b1) digits: 1e-11 of the value at b1 = 1e-4 b2, 2e-10 at 1e-5 b2
_JOINT_MIN_RATIO = 1e-4


def _power_tail(w: complex, b: float, kind: str) -> complex:
    """int_1^inf x^{-w} cos(b x) dx (kind "cos") or x^{-w} sin(b x) dx
    (kind "sin") for b > 0; at b = 0 the cosine tail 1/(w - 1).  At a
    frequency f >= 1 the contour turns to x = 1 +- iy/f (steepest descent:
    Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44, 2006),
      int_1^inf x^{-w} e^{+-ifx} dx = (+-i e^{+-if}/f) int_0^inf (1 +- iy/f)^{-w} e^{-y} dy,
    one numpy dot with ``_descent_rule``; cos and sin are the half sum and
    difference of the two sides (for real w, the - side is the conjugate).
    Below _SPLIT_FREQ the range is split at X = _SPLIT_FREQ / b, since a
    rotated sine tail at b < 1 loses log10(1/b) digits (3.9e-8 at b = 1e-7,
    w = 18): [X, inf) is X^{1-w} times the tail at b X, and [1, X] is taken
    in log x by QUADPACK to 1e-13 b absolute (the sine tail is O(b), and the
    block transform divides it by a frequency).  NonconvergentError where
    the integral diverges: Re w <= 0 (Re w <= 1 at b = 0)."""
    if w.real <= (1.0 if b == 0.0 else 0.0):
        raise NonconvergentError(f"the power tail of x^-({w}) at frequency {b} diverges")
    if b == 0.0:
        return 1.0 / (w - 1.0)
    X = max(1.0, _SPLIT_FREQ / b)
    f, (y, weights) = b * X, _descent_rule()
    side = lambda sg: sg * 1j * cmath.exp(sg * 1j * f) / f * complex(weights @ (1.0 + sg * 1j / f * y) ** -w)
    plus = side(1.0)
    minus = side(-1.0) if w.imag else plus.conjugate()
    tail = (plus + minus) / 2 if kind == "cos" else (plus - minus) / 2j
    if X == 1.0:
        return tail
    trig = math.cos if kind == "cos" else math.sin
    head = quad_complex(
        lambda u: cmath.exp((1.0 - w) * u) * trig(b * math.exp(u)), 0.0, math.log(X), epsrel=1e-11, epsabs=1e-13 * b
    )[0]
    return head + X ** (1.0 - w) * tail


def _arch_block_transform(a: Sequence[float], w) -> complex:
    """int over R^k of max(1, |x|)^{-w} psi(<a, x>) dx, k = len(a), with
    b_1 <= ... <= b_k the frequencies 2 pi |a_i|.  Where coordinate j
    attains max(1, |x|) = y, each other one integrates to 2 sin(b_i y)/b_i
    (to 2y at b_i = 0, a power lower), so the transform is 2^k times
      prod_i sin(b_i)/b_i + sum_j int_1^inf y^{-w} cos(b_j y) prod_{i != j} sin(b_i y)/b_i dy.
    Over the m nonzero others c, cos(B) prod sin(c_i) is (-1)^(m//2) 2^-m
    sum_e (prod e) trig(B + e.c) over the sign vectors e, with the sine for
    odd m and the cosine for even m: 2^m power tails, and a sine at
    frequency 0 gives 0.  Each division by a c loses digits; where the n
    nonzero frequencies below b_k have a product under _JOINT_MIN_RATIO
    b_k^n, fewer than ten would be left, and NumericError is raised.  The
    terms are added in a fixed order (the cube ascending, j descending, the
    + sign vector first); a sign is a subtraction, never a product with -1."""
    k = len(a)
    if not any(a):
        return 2.0**k + 2.0**k * k / (w - k)
    b = sorted(TWO_PI * abs(t) for t in a)
    below = [c for c in b[:-1] if c > 0.0]
    if math.prod(below) < _JOINT_MIN_RATIO * b[-1] ** len(below):
        raise NumericError(f"character {tuple(a)} is too close to an axis for the block transform")
    tails = {}  # each tail once per call
    total = math.prod(math.sin(c) / c if c else 1.0 for c in b)
    for j in reversed(range(k)):
        others = b[:j] + b[j + 1 :]
        c = [x for x in others if x > 0.0]
        wj, kind, term = w - (len(others) - len(c)), "sin" if len(c) % 2 else "cos", None
        for signs in itertools.product((False, True), repeat=len(c)):
            f, neg = b[j], sum(signs) % 2 == 1
            for minus, x in zip(signs, c):
                f = f - x if minus else f + x
            if f < 0.0:
                f, neg = -f, neg != (kind == "sin")
            if f > 0.0 or kind == "cos":
                if (wj, f, kind) not in tails:
                    tails[wj, f, kind] = _power_tail(wj, f, kind)
                val = tails[wj, f, kind]
                term = (-val if neg else val) if term is None else (term - val if neg else term + val)
        if c:
            term = term / (2.0 ** len(c) * math.prod(c))
        total += -term if len(c) // 2 % 2 else term
    return 2.0**k * total


def arch_density(model, a, s0) -> complex:
    """H^_inf(a; s0*lambda): the archimedean height transform, the product
    over labels alpha of the transform of max(1, |x_i| : i in the block of
    alpha)^{-lambda_alpha s0} at the block of a, ``_arch_block_transform``
    for a block of any size.  Each is closed-form at a zero block."""
    s0 = complex(s0)
    if not isinstance(a, (tuple, list)):
        a = (0.0,) * model.dim if a is None or a == 0 else (a,)
    avec = [float(t) for t in a]
    if len(avec) != model.dim:
        raise ValueError(f"{model.id} expects a character of dimension {model.dim}")
    return math.prod(
        _arch_block_transform([avec[i] for i in idx], model.divisors.lam(alpha) * s0)
        for alpha, idx in model.norm_coords.items()
    )


# ---------------------------------------------------------------------------
# Euler products and the constant


def zeta_S(w: float, S: Sequence[Place]) -> float:
    """Riemann zeta with the Euler factors at the finite places of S removed."""
    if w <= 1.0:
        raise PoleError("zeta_S requires w > 1")
    from scipy.special import zeta

    return math.prod([float(zeta(w))] + [1.0 - v.prime ** (-w) for v in S if v.is_finite])


def _euler_pass(model, smap: dict, S: Sequence[Place], cutoff: int) -> tuple[np.ndarray, complex, complex]:
    """The one pass over the primes p <= cutoff off S: their restricted
    local densities at ``smap``, and the running product of those times
    each kept label's factor 1 - p^-w, w = 1 + s_alpha - rho_alpha, up to
    the cutoff and up to half of it, multiplied left to right (entry k of
    ``running`` is the product of the first k factors).  The primes are a
    prefix of the one read-only prime table of the process
    (``prime_array``), which is sieved again only past its end."""
    primes = prime_array(cutoff)
    primes = primes[~np.isin(primes, [v.prime for v in S if v.is_finite])]
    loc = reg = denef_density(model, primes, smap, restrict=True)
    for alpha in model.divisors.kept:
        reg = reg * (1.0 - primes ** (-(1.0 + (smap[alpha] - model.divisors.rho_of(alpha)).real)))
    running = np.multiply.accumulate(np.concatenate(([1.0], reg)))
    return loc, complex(running[-1]), complex(running[np.searchsorted(primes, cutoff // 2, side="right")])


def euler_product(model, s0, S: Sequence[Place], cutoff: int = 10_000, threads: int = 1) -> EulerProductValue:
    """Regularized product of the restricted local densities over the
    primes outside S: the zeta factors zeta_S(1 + s_alpha - rho_alpha)
    (kept components) are divided out of each local factor and restored
    globally.  The local factors and their running product come from
    ``_euler_pass``, the one array evaluation of ``denef_density`` over
    the primes that ``tau_adelic`` and ``theta_constant`` share;
    ``threads`` is accepted for interface stability and has no effect."""
    s0 = complex(s0)
    smap = s_vector(model, s0)
    ws = [1.0 + (smap[alpha] - model.divisors.rho_of(alpha)).real for alpha in model.divisors.kept]
    if any(w <= 1.0 for w in ws):
        raise NonconvergentError("Euler product evaluated outside its convergence region")
    loc, corrected, half = _euler_pass(model, smap, S, cutoff)
    partial = complex(np.multiply.accumulate(np.concatenate(([1.0], loc)))[-1])
    head = math.prod(zeta_S(w, S) for w in ws)
    tail_estimate = abs(corrected - half) * abs(head)
    return EulerProductValue(cutoff, partial, corrected * head, tail_estimate)


# (s-1)^m H_inf(s) prod_{p in S} H_p(s) is analytic in the disc of radius
# 1/(k+1) about s = 1, k the largest kept block P^k: its nearest other
# singularity is that block's pole at s = k/(k+1) (2^k k/((k+1) s - k) at
# the real place).  The trapezoid mean over |s - 1| = min(_CONTOUR_RADIUS,
# 0.1/(k+1)) is then its value at s = 1 to about 0.09^16 = 2e-17 relative
# for the catalog's P^2 and about 0.1^16 for a larger block.
_CONTOUR_RADIUS = 0.03
_CONTOUR_NODES = 16


def theta_constant(model, S: Sequence[Place], *, prime_cutoff: int = 10_000) -> ThetaResult:
    """The leading constant lim_{s->1} (s-1)^b H^(0; s lambda) / (b-1)!,
    read at s = 1 itself.  Split (s-1)^b H into the local factors at the
    places of S times (s-1)^m, m = b - rank Pic, each kept zeta factor
    (s-1) zeta_S(w_alpha(s)), and the regularized product over the primes
    off S.  The last two are analytic at s = 1, with the values tau_adelic
    (the residues prod_{p in S} (1 - 1/p) included) and 1/rho_alpha; the
    first is analytic near s = 1, its value there its mean over 16 nodes on
    a circle, with the factors at the primes of S one ``denef_density``
    array.  ``euler_tail`` is Theta times the relative change of the product
    between half the prime cutoff and the cutoff.  A cutoff below the least
    prime off S, which leaves the product empty, raises ConfigError."""
    in_S = {v.prime for v in S}
    first = next(p for p in itertools.count(2) if is_prime(p) and p not in in_S)
    if prime_cutoff < first:
        raise ConfigError(f"prime cutoff {prime_cutoff} is below {first}, the smallest prime off S")
    b = exponent_b(model, S)
    m = b - ep_rank(model)
    r = min(_CONTOUR_RADIUS, 0.1 / (1 + max((len(model.norm_coords[a]) for a in model.divisors.kept), default=0)))
    zs = [r * cmath.exp(2j * math.pi * k / _CONTOUR_NODES) for k in range(_CONTOUR_NODES)]
    primes = [v.prime for v in S if v.is_finite]
    local = denef_density(model, np.array(primes)[:, None], np.array(zs) + 1.0, restrict=False) if primes else ()
    mean = 0j
    for k, z in enumerate(zs):
        val = z**m * arch_density(model, 0, 1.0 + z)
        for row in local:
            val *= complex(row[k])
        mean += val
    _, full, half = _euler_pass(model, s_vector(model, 1.0), S, prime_cutoff)
    residue = math.prod(1.0 - 1.0 / v.prime for v in S if v.is_finite) ** ep_rank(model)
    tau, half = residue * full.real, residue * half.real
    theta = tau * (mean.real / _CONTOUR_NODES) / math.factorial(b - 1)
    for alpha in model.divisors.kept:
        theta /= model.divisors.rho_of(alpha)
    return ThetaResult(model.id, tuple(str(v) for v in S), theta, b, abs(theta * (1.0 - half / tau)))


# ---------------------------------------------------------------------------
# boundary residue measures and the factorized constant


def _projective_volume(place: Place, m: int) -> float:
    """vol(P^m) = int_{F^m} max(1,|w|)^{-(m+1)} dw over the completion:
    the block transform at a = 0 on R, and on Q_p the unit box plus the
    shells |w| = p^j, of volume p^{jm} - p^{(j-1)m}."""
    e = float(m + 1)
    if place.kind == "real":
        return _arch_block_transform((0.0,) * m, e)
    return (1.0 - place.prime ** (-e)) / (1.0 - place.prime ** (m - e))


def tau_max_boundary(model, place: Place) -> float:
    """Mass of the boundary residue measure at a place of S: the product
    of c_v u_v / (rho_alpha - 1) over the removed labels alpha, times the
    volume of the maximal boundary stratum, itself a product over the
    blocks: P^{k-1} at infinity of a removed block P^k, and all of P^k for
    a kept one.  u_v is the unit-sphere volume correction, 1 at the real
    place and (1 - 1/q) at a finite place."""
    removed = model.divisors.removed
    if not removed:
        raise ConfigError(f"{model.id} removes nothing; no boundary measure")
    cv = residue_c(place)
    uv = 1.0 if place.is_archimedean else 1.0 - 1.0 / place.prime
    mass = 1.0
    for alpha, idx in model.norm_coords.items():
        k = len(idx)
        if alpha in removed:
            mass *= cv * uv / (model.divisors.rho_of(alpha) - 1)
            k -= 1
        mass *= _projective_volume(place, k)
    return mass


def tau_adelic(model, S: Sequence[Place], cutoff: int = 10_000) -> float:
    """Regularized volume of the integral adelic points off S with respect
    to the log-boundary-twisted measure; the Picard-rank many zeta factors
    are removed locally (at s = 1 each kept label's factor in
    ``_euler_pass`` is 1 - 1/p) and restored through the residue of zeta_S."""
    _, full, _ = _euler_pass(model, s_vector(model, 1.0), S, cutoff)
    return math.prod(1.0 - 1.0 / v.prime for v in S if v.is_finite) ** ep_rank(model) * full.real


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

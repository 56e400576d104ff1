"""Local Fourier transforms of heights, explicit stratum-count densities
with an independent residue-cell oracle, regularized Euler products, and
the predicted leading constant.

The local height transforms are read off the blocks: ``arch_density`` at
the real place, and ``fourier_finite`` at a finite place and a nonzero
character, are products over the labels of one closed-form transform per
block.

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
from scipy.special import zeta as _riemann_zeta

from .boundary import divisor_coefficients, ep_rank, exponent_b
from .catalog import CompactificationModel
from .errors import ConfigError, NonconvergentError, NumericError, PoleError
from .localfield import Place, is_prime, padic, primes_upto, quad_complex, residue_c

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
    """
    smap = _s_map(model, s)
    q = np.asarray(p, dtype=np.int64)
    lnq = np.log(q)
    qdim = q.astype(float) ** model.dim
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
                raise PoleError(f"local density pole at p={at}, s_{alpha}={s_at}, alpha={alpha}")
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


def _box(M: float, b: float) -> float:
    """int_0^M cos(b x) dx."""
    return math.sin(b * M) / b if b != 0.0 else M


# QUADPACK's Fourier weight on [1, inf) returns wrong values with no error
# flag below a frequency of about 2e-3: the cosine tail of x^{-18} at
# b = 1.8e-3 comes out near 0 instead of 1/17, with an error estimate of 7e-15
_QAWF_MIN_FREQ = 1.0
# the joint transform's divided difference of sine tails loses about
# log10(b2 / b1) digits: 1e-11 of the value at b1 = 1e-4 b2, 2e-10 at 1e-5 b2
_JOINT_MIN_RATIO = 1e-4


def _power_tail(w: complex, b: float, kind: str) -> complex:
    """int_1^inf x^{-w} cos(b x) dx (kind "cos") or x^{-w} sin(b x) dx
    (kind "sin") for b > 0, by QAWF.  Below the frequency _QAWF_MIN_FREQ
    the range is split at X = _QAWF_MIN_FREQ / b: on [1, X] the phase b x
    stays below _QAWF_MIN_FREQ and the integral is taken in u = log x
    without a weight, and [X, inf) is X^{1-w} int_1^inf t^{-w}
    trig(_QAWF_MIN_FREQ t) dt.  QAWF works to an absolute tolerance alone:
    1e-13 on the unscaled t^{-w}, one digit tighter than the quad_complex
    default.  It must not be tightened further, or QAWF runs out of cycles
    (at 1e-17 the cosine tail of t^{-1.1-2i} comes out 3e-3 off).  The head
    gets the absolute tolerance 1e-13 b, because the sine tail is O(b) and
    the joint transform divides it by a frequency.  The integral diverges
    for Re w <= 0, and NonconvergentError is raised there."""
    if w.real <= 0.0:
        raise NonconvergentError(f"the power tail of x^-({w}) diverges: Re w <= 0")
    X = max(1.0, _QAWF_MIN_FREQ / b)
    tail = quad_complex(lambda t: t ** (-w), 1.0, math.inf, weight=kind, wvar=b * X, epsrel=1e-11, epsabs=1e-13)[0]
    if X == 1.0:
        return tail
    trig = math.cos if kind == "cos" else math.sin
    head = quad_complex(
        lambda u: cmath.exp((1.0 - w) * u) * trig(b * math.exp(u)), 0.0, math.log(X), epsrel=1e-11, epsabs=1e-13 * b
    )[0]
    return head + X ** (1.0 - w) * tail


def _arch_transform_max1d(a: Sequence[float], w: complex) -> complex:
    """int max(1,|x|)^{-w} psi(a1 x) dx on R, a = (a1,).  The integrand is
    even, so this is 2 int_0^inf max(1,x)^{-w} cos(2 pi a1 x) dx, split at
    x = 1."""
    if a[0] == 0.0:
        return 2.0 + 2.0 / (w - 1.0)
    b = TWO_PI * abs(a[0])
    return 2.0 * _box(1.0, b) + 2.0 * _power_tail(w, b, "cos")


def _arch_joint_max(a: Sequence[float], w: complex) -> complex:
    """int max(1,|x|,|y|)^{-w} psi(a1 x + a2 y) dx dy on R^2, as the cosine
    transform 4 int_0^inf int_0^inf max(1,x,y)^{-w} cos(b1 x) cos(b2 y)
    dx dy, with b1 <= b2 the two frequencies 2 pi |a_i| (the integrand is
    symmetric in x and y).

    The order of integration is exchanged so that the inner integral is
    the closed-form one: where y >= max(1, x) the height is y^{-w}, and the
    x-integral over [0, y] is sin(b1 y)/b1; likewise with x and y swapped.
    With the unit square this gives
      sin(b1) sin(b2)/(b1 b2) + int_1^inf y^{-w} sin(b1 y)/b1 cos(b2 y) dy
                              + int_1^inf x^{-w} sin(b2 x)/b2 cos(b1 x) dx,
    and by the product-to-sum identities, with S(b) the sine transform of
    x^{-w} on [1, inf),
      sin(b1) sin(b2)/(b1 b2) + (S(b2+b1) - S(b2-b1))/(2 b1)
                              + (S(b2+b1) + S(b2-b1))/(2 b2).
    At b1 = 0 the first integral is the cosine transform of y^{1-w}.
    Ordering b1 <= b2 keeps both frequencies b2 -+ b1 nonnegative, and
    names the frequency whose divided difference cancels: for
    0 < b1 < _JOINT_MIN_RATIO b2 it would leave fewer than ten good digits,
    and the transform raises NumericError instead."""
    b1, b2 = sorted(TWO_PI * abs(t) for t in a)
    if b2 == 0.0:
        return 4.0 + 8.0 / (w - 2.0)
    if 0.0 < b1 < _JOINT_MIN_RATIO * b2:
        raise NumericError(f"character {tuple(a)} is too close to an axis for the joint transform")
    sines = {b: _power_tail(w, b, "sin") for b in {b2 + b1, b2 - b1} if b > 0.0}
    s_sum, s_diff = sines[b2 + b1], sines.get(b2 - b1, 0.0)
    first = _power_tail(w - 1.0, b2, "cos") if b1 == 0.0 else (s_sum - s_diff) / (2.0 * b1)
    return 4.0 * (_box(1.0, b1) * _box(1.0, b2) + first + (s_sum + s_diff) / (2.0 * b2))


# block size -> the transform of max(1, |x_i|)^{-w} on that block
_BLOCK_TRANSFORMS = {1: _arch_transform_max1d, 2: _arch_joint_max}


def arch_density(model, a, s0) -> complex:
    """H^_inf(a; s0*lambda): the archimedean height transform, the product
    over labels alpha of the transform of max(1, |x_i| : i in the block of
    alpha)^{-lambda_alpha s0} at the block of a.  Each is closed-form at a
    zero block.  Only blocks P^1 and P^2 have a transform; a larger block
    raises ConfigError."""
    s0 = complex(s0)
    if not isinstance(a, (tuple, list)):
        a = (0.0,) * model.dim if a is None or a == 0 else (a,)
    avec = [float(t) for t in a]
    if len(avec) != model.dim:
        raise ValueError(f"{model.id} expects a character of dimension {model.dim}")
    for idx in model.norm_coords.values():
        if len(idx) not in _BLOCK_TRANSFORMS:
            raise ConfigError(f"{model.id}: no real-place transform for a block of size {len(idx)}; sizes 1 and 2 have one")
    return math.prod(
        _BLOCK_TRANSFORMS[len(idx)]([avec[i] for i in idx], model.divisors.lam(alpha) * s0)
        for alpha, idx in model.norm_coords.items()
    )


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


def _euler_pass(model, smap: dict, S: Sequence[Place], cutoff: int) -> tuple[np.ndarray, complex, complex]:
    """The one pass over the primes p <= cutoff off S: their restricted
    local densities at ``smap``, and the running product of those times
    each kept label's factor 1 - p^-w, w = 1 + s_alpha - rho_alpha, up to
    the cutoff and up to half of it, multiplied left to right (entry k of
    ``running`` is the product of the first k factors)."""
    primes = np.array(primes_upto(cutoff), dtype=np.int64)
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
# 1/3 about s = 1: the nearest other singularity of any catalog factor is the
# pole of the kept P^2 block, 12 s/(3 s - 2), at s = 2/3.  The trapezoid mean
# over the circle |s - 1| = _CONTOUR_RADIUS is then its value at s = 1 to
# about (0.03 / (1/3))^16 = 0.09^16, or 2e-17 relative.
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
    zs = [_CONTOUR_RADIUS * cmath.exp(2j * math.pi * k / _CONTOUR_NODES) for k in range(_CONTOUR_NODES)]
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
    the unit box plus the shells |w| = r > 1, of volume m 2^m r^{m-1} dr
    on R and p^{jm} - p^{(j-1)m} at r = p^j."""
    e = float(m + 1)
    if place.kind == "real":
        return 2.0**m + 2.0**m * m / (e - m)
    p = place.prime
    return (1.0 - p ** (-e)) / (1.0 - p ** (m - e))


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

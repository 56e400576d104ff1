"""Exact and numeric arithmetic on the completions of Q, and the one
integer kernel of the package (the prime sieve, trial factoring and a
Miller-Rabin primality test, exact below 3.3e24 and Baillie-PSW above).

The three kinds of places are the real place, the complex place (used only
by the one-dimensional oscillatory theory) and the finite places Q_p.
p-adic numbers are exact rationals throughout: every p-adic integral in
this package reduces to a finite sum over residue classes plus an exact
geometric tail, so no truncated digit expansions appear anywhere.
Additive characters are evaluated as e^{2 pi i t} with t an exact rational
phase; sums of such terms are accumulated through :class:`PhaseSum` so
that a computation repeated at a finer residue level reproduces the same
float bit for bit.

Normalizations.  Haar measure satisfies vol(|x| <= 1) = 2 at the real
place, 2*pi at the complex place and 1 at a finite place over Q; at the
complex place |.| is the *square* of the usual modulus, so that
vol(a*E) = |a| vol(E) holds at every place.  The multiplicative measure is
dx/|x| at archimedean places and (1 - 1/q)^{-1} dx/|x| at finite places.
The additive character is psi(x) = e^{2 pi i x_p} at Q_p (x_p the p-power
fractional part), e^{-2 pi i x} on R and e^{-4 pi i Re(x)} on C.
Tate integrals and the Fourier transforms of test functions, at every
place, are ``oscillatory.osc_integral_1d`` at special arguments (a = 0,
d = 1, and d = s = 1), imported at call time since that module imports
this one.  scipy is imported by the functions that call it (QUADPACK,
J_0 and the Hankel function), so importing the package does not load it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ConfigError, PoleError

TWO_PI = 2.0 * math.pi

Rational = Fraction | int


# ---------------------------------------------------------------------------
# integer arithmetic: the one prime sieve and the one factoring routine


_SIEVED: list = [-1, np.zeros(0, dtype=np.int64)]  # the largest n sieved and its primes


def prime_array(n: int) -> np.ndarray:
    """The primes p <= n, n >= 0, in ascending order, as a read-only int64
    array: a prefix, cut by searchsorted, of the one table the process
    keeps, sieved again (Eratosthenes) only when n passes the largest n
    asked for."""
    if n > _SIEVED[0]:
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        primes = np.flatnonzero(sieve).astype(np.int64)
        primes.flags.writeable = False
        _SIEVED[:] = n, primes
    primes = _SIEVED[1]
    return primes[: np.searchsorted(primes, n, side="right")]


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, n >= 0, in ascending order, as a list."""
    return prime_array(n).tolist()


def prime_factors(n: int) -> Iterator[int]:
    """The distinct primes dividing n >= 1, in ascending order, by trial
    division."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        yield n


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to all of _MR_BASES


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of odd n > 41 with no factor
    in _MR_BASES, on Selfridge's parameters: D the first of 5, -7, 9, -11,
    ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = k 2^r, n
    passes when U_k = 0 or V_{k 2^j} = 0 for some j < r (mod n)."""
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D shares a factor with n < |D|^2
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k, r = n + 1, 0
    while k % 2 == 0:
        k, r = k // 2, r + 1
    half = lambda x: (x if x % 2 == 0 else x + n) // 2 % n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 for P = 1
    for bit in bin(k)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime.  Below 3.3e24 the strong
    probable-prime (Miller-Rabin) test to the first 13 primes as bases,
    which no composite there passes, so the answer is exact.  Above it the
    Baillie-PSW test, Miller-Rabin to base 2 and a strong Lucas test
    (``_strong_lucas``): no composite is known to pass both, and each
    takes O(log n) multiplications of n-digit integers."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    n = int(n)  # pow's modulus takes no numpy integer
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES if n < _MR_BOUND else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True, order=True)
class Place:
    """A completion of Q: "real", "complex", or "finite" with a prime."""

    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in ("real", "complex", "finite"):
            raise ValueError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite":
            if self.prime is None or not is_prime(self.prime):
                raise ValueError(f"{self.prime!r} is not a prime")
        elif self.prime is not None:
            raise ValueError("archimedean places carry no prime")

    @classmethod
    def real(cls) -> "Place":
        return cls("real")

    @classmethod
    def complex_(cls) -> "Place":
        return cls("complex")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls("finite", p)

    @classmethod
    def parse(cls, text) -> "Place":
        """The place a name stands for: "real", "inf" or "oo" is the real
        place, "complex" or "C" the complex place, and a prime p (as text or
        an int) is Q_p.  Anything else raises ConfigError."""
        text = str(text)
        if text in ("real", "inf", "oo"):
            return cls.real()
        if text in ("complex", "C"):
            return cls.complex_()
        try:
            return cls.finite(int(text))
        except ValueError:
            raise ConfigError(f"unknown place {text!r}: use real, complex or a prime") from None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_archimedean(self) -> bool:
        return self.kind != "finite"

    def __str__(self):
        return self.kind if self.is_archimedean else f"Q_{self.prime}"


# ---------------------------------------------------------------------------
# exact p-adic arithmetic on rationals


@dataclass(frozen=True)
class PadicContext:
    """Valuation, absolute value, residue reduction and character phases
    for one prime, acting on exact rationals."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def valuation(self, x: Rational) -> int:
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("valuation of 0")
        num, den, p = x.numerator, x.denominator, self.p
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    def abs(self, x: Rational) -> Fraction:
        """|x|_p = p^{-v_p(x)}, exactly."""
        if x == 0:
            return Fraction(0)
        return Fraction(self.p) ** (-self.valuation(x))

    def frac_part(self, x: Rational) -> Fraction:
        """The p-primary component of x mod 1: the unique rational in
        [0, 1) with p-power denominator congruent to x modulo the other
        primary components."""
        x = Fraction(x)
        den = x.denominator
        k = 0
        while den % self.p == 0:
            den //= self.p
            k += 1
        if k == 0:
            return Fraction(0)
        pk = self.p**k
        inv = pow(den, -1, pk)
        return Fraction((x.numerator * inv) % pk, pk)

    def reduce(self, x: Rational, e: int) -> int:
        """Representative of a p-integral rational modulo p^e, in [0, p^e)."""
        x = Fraction(x)
        pe = self.p**e
        if x.denominator % self.p == 0:
            raise ValueError(f"{x} is not p-integral at p={self.p}")
        return (x.numerator * pow(x.denominator, -1, pe)) % pe


_CONTEXTS: dict[int, PadicContext] = {}


def padic(p: int) -> PadicContext:
    ctx = _CONTEXTS.get(p)
    if ctx is None:
        ctx = _CONTEXTS[p] = PadicContext(p)
    return ctx


# ---------------------------------------------------------------------------
# basic place-wise operations


def abs_value(x, place: Place):
    """Normalized absolute value; exact Fraction at finite places (and at
    the real place for rational input), square of the modulus on C."""
    if place.is_finite:
        return padic(place.prime).abs(Fraction(x))
    if place.kind == "real":
        return abs(Fraction(x)) if isinstance(x, (int, Fraction)) else abs(x)
    z = complex(x)
    return z.real * z.real + z.imag * z.imag


def psi(place: Place, x) -> complex:
    """The standard additive character of the place, |psi| = 1."""
    if place.is_finite:
        t = padic(place.prime).frac_part(Fraction(x))
        return cmath.exp(2j * math.pi * float(t))
    if place.kind == "real":
        return cmath.exp(-2j * math.pi * float(x))
    return cmath.exp(-4j * math.pi * complex(x).real)


def zeta_local(place: Place, s):
    """The local zeta value: 2/s (real), 2*pi/s (complex),
    1/(1 - q^{-s}) (finite).  Exact rational arithmetic is used when s is
    an int or Fraction.  Raises PoleError at the poles."""
    if place.kind == "real":
        if s == 0:
            raise PoleError("zeta_R has a pole at s = 0")
        if isinstance(s, (int, Fraction)):
            return float(Fraction(2) / Fraction(s))
        return 2.0 / complex(s)
    if place.kind == "complex":
        if s == 0:
            raise PoleError("zeta_C has a pole at s = 0")
        if isinstance(s, (int, Fraction)):
            return TWO_PI / float(s)
        return TWO_PI / complex(s)
    q = place.prime
    if isinstance(s, (int, Fraction)):
        qs = Fraction(q) ** Fraction(s) if Fraction(s).denominator == 1 else None
        if qs is not None:
            if qs == 1:
                raise PoleError(f"zeta_{place} has a pole at s = {s}")
            return float(qs / (qs - 1))
        s = float(s)
    denom = 1.0 - cmath.exp(-complex(s) * math.log(q))
    if abs(denom) < 1e-14:
        raise PoleError(f"zeta_{place} has a pole at s = {s}")
    return 1.0 / denom


def residue_c(place: Place) -> float:
    """Residue at s = 0 of the ball zeta integral: 2, 2*pi, or 1/log q."""
    if place.kind == "real":
        return 2.0
    if place.kind == "complex":
        return TWO_PI
    return 1.0 / math.log(place.prime)


# ---------------------------------------------------------------------------
# exact accumulation of root-of-unity sums


class PhaseSum:
    """Sum of terms  weight * value * e^{2 pi i phase}  with exact rational
    weights and phases.

    Terms are merged on the (phase, value) pair, so the same computation
    carried out on a finer residue decomposition produces the *identical*
    dictionary (the split weights re-add exactly) and hence the identical
    float; evaluation order is fixed by sorting the keys.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict[tuple[Fraction, complex], Fraction] = {}

    def add(self, phase: Fraction, weight: Fraction, value: complex = 1.0 + 0j):
        if value == 0:
            return
        key = (phase, complex(value))
        self._terms[key] = self._terms.get(key, Fraction(0)) + weight

    def value(self) -> complex:
        res, ims = [], []
        for (phase, val), w in sorted(
            self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag)
        ):
            z = float(w) * val * cmath.exp(2j * math.pi * float(phase))
            res.append(z.real)
            ims.append(z.imag)
        return complex(math.fsum(res), math.fsum(ims))


# ---------------------------------------------------------------------------
# test functions


@dataclass
class StepFunction:
    """Locally constant, compactly supported function on Q_p.

    The support is contained in p^{-support_exp} Z_p and the function is
    constant on cosets x + p^level Z_p.  ``table`` maps the class index j
    to the value on  j * p^{-support_exp} + p^level Z_p,  for j in
    [0, p^{support_exp + level}); absent keys mean 0.
    """

    p: int
    level: int
    support_exp: int
    table: dict[int, complex]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.level + self.support_exp < 0:
            raise ValueError("level must be at least -support_exp")
        n = self.p ** (self.support_exp + self.level)
        for j in self.table:
            if not 0 <= j < n:
                raise ValueError(f"class index {j} out of range [0, {n})")

    # -- constructors -------------------------------------------------

    @classmethod
    def indicator_zp(cls, p: int) -> "StepFunction":
        return cls(p, 0, 0, {0: 1.0 + 0j})

    @classmethod
    def indicator_coset(cls, p: int, center: Rational, n: int) -> "StepFunction":
        """Indicator of center + p^n Z_p."""
        c = Fraction(center)
        ctx = padic(p)
        k = max(0, -ctx.valuation(c)) if c != 0 else 0
        if n + k < 0:
            raise ValueError("coset is larger than its support ball")
        j = ctx.reduce(c * Fraction(p) ** k, k + n)
        return cls(p, n, k, {j: 1.0 + 0j})

    @classmethod
    def indicator_units(cls, p: int) -> "StepFunction":
        return cls(p, 1, 0, {j: 1.0 + 0j for j in range(1, p)})

    # -- structure ----------------------------------------------------

    def class_rep(self, j: int) -> Fraction:
        return Fraction(j, 1) * Fraction(self.p) ** (-self.support_exp)

    def classes(self) -> Iterator[tuple[Fraction, complex]]:
        """Yield (representative, value) over the nonzero classes."""
        for j, v in sorted(self.table.items()):
            if v != 0:
                yield self.class_rep(j), v

    def value_at(self, x: Rational) -> complex:
        x = Fraction(x)
        ctx = padic(self.p)
        if x != 0 and ctx.valuation(x) < -self.support_exp:
            return 0j
        j = ctx.reduce(x * Fraction(self.p) ** self.support_exp, self.support_exp + self.level)
        return complex(self.table.get(j, 0))

    def refine(self, extra: int = 1) -> "StepFunction":
        """The same function re-expressed at level + extra."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        p, k, m = self.p, self.support_exp, self.level
        block = p ** (k + m)
        table = {}
        for j, v in self.table.items():
            if v == 0:
                continue
            for t in range(p**extra):
                table[j + t * block] = v
        return StepFunction(p, m + extra, k, table)

    def min_level(self) -> int:
        """Least n >= 1 such that the function is constant on all cosets
        x + p^n Z_p.  Computed from the table, never read off the stored
        level."""
        p, k, m = self.p, self.support_exp, self.level
        lower = max(1, -k)
        for n in range(lower, max(m, lower)):
            if k + n < 0:
                continue
            groups: dict[int, complex] = {}
            ok = True
            block = p ** (k + n)
            for j in range(p ** (k + m)):
                v = complex(self.table.get(j, 0))
                r = j % block
                if r in groups:
                    if groups[r] != v:
                        ok = False
                        break
                else:
                    groups[r] = v
            if ok:
                return n
        return max(m, lower)

    def support_min_valuation(self) -> int:
        """Smallest valuation attained on the (nonzero) support, or the
        stored level when only the zero class is hit."""
        ctx = padic(self.p)
        best = None
        for rep, _ in self.classes():
            if rep == 0:
                v = self.level  # the zero class starts at valuation >= level
            else:
                v = ctx.valuation(rep)
            best = v if best is None else min(best, v)
        if best is None:
            raise ValueError("zero function has empty support")
        return best


@dataclass
class BumpFunction:
    """The smooth test function  amplitude * exp(1 - 1/(1 - u^2))  with
    u = (x - center)/radius, supported on (center - radius, center + radius)."""

    center: float = 0.0
    radius: float = 1.0
    amplitude: float = 1.0

    @classmethod
    def standard(cls, center: float = 0.0, radius: float = 1.0, amplitude: float = 1.0) -> "BumpFunction":
        return cls(center, radius, amplitude)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, x: float) -> float:
        c, r = self.center, self.radius
        u = x - c
        if x <= c - r or x >= c + r or abs(u) >= r:
            return 0.0
        w = 1.0 - (u * u) / (r * r)
        return self.amplitude * math.exp(1.0 - 1.0 / w)

    def values(self, x: np.ndarray) -> np.ndarray:
        """The bump at every point of ``x``, as __call__ but in numpy."""
        lo, hi = self.support
        inside = (x > lo) & (x < hi) & (np.abs(x - self.center) < self.radius)
        out = np.zeros(np.shape(x))
        out[inside] = self.analytic(x[inside])
        return out

    def analytic(self, z):
        """amplitude * exp(1 - 1/(1 - u^2)) at real or complex z, a number
        or an array, without the support mask: inside the support the bump,
        off the real line its analytic continuation, which is analytic
        away from the two ends of the support."""
        u = z - self.center
        return self.amplitude * np.exp(1.0 - 1.0 / (1.0 - (u * u) / (self.radius * self.radius)))


@dataclass
class RadialBump:
    """Rotation-invariant bump on C, given by a radial profile."""

    profile: BumpFunction

    def __call__(self, z: complex) -> float:
        return self.profile(abs(z))

    @property
    def radius(self) -> float:
        return self.profile.support[1]


# ---------------------------------------------------------------------------
# quadrature helpers (QUADPACK behind a complex-valued facade)


def quad_complex(f, a, b, *, points=None, weight=None, wvar=None, epsabs=1e-12, epsrel=1e-10, limit=400):
    """Adaptive integral of a complex-valued function; returns (value, err).

    With ``weight`` "cos" or "sin" the integrand is f(t) cos(wvar t) or
    f(t) sin(wvar t), integrated by QAWO (QAWF when b is infinite).  The
    Fourier weights are inaccurate at wvar = 0, so callers integrate that
    case without a weight.  With ``weight`` "alg" and ``wvar`` (alpha, beta)
    the integrand is f(t) (t - a)^alpha (b - t)^beta, integrated by QAWS.

    f is first evaluated at the middle of [a, b] (at a when b is infinite).
    A complex value there gives a real and an imaginary QUADPACK pass that
    read one ``functools.cache`` of f, C code, so f runs once per node and
    the bits are those of two passes that each evaluate f afresh.  A float
    value gives the real pass alone, on f itself, since the imaginary part
    is 0: a table would cost more than it saves on one pass."""
    from scipy.integrate import quad

    kwargs = dict(epsabs=epsabs, epsrel=epsrel, full_output=1)
    if weight is None:
        kwargs.update(points=points, limit=limit)
    else:
        kwargs.update(weight=weight, wvar=wvar)
        if not math.isinf(b):
            kwargs["limit"] = limit
    table = functools.cache(f)
    if not isinstance(table(a if math.isinf(b) else 0.5 * (a + b)), complex):
        val, err, *_ = quad(f, a, b, **kwargs)
        return complex(val), err
    re, e1, *_ = quad(lambda t: table(t).real, a, b, **kwargs)
    im, e2, *_ = quad(lambda t: table(t).imag, a, b, **kwargs)
    return complex(re, im), e1 + e2


def quad_oscillatory(f, a, b, omega, *, epsabs=1e-12, epsrel=1e-10, limit=400):
    """Integral of f(t) e^{-i omega t} over [a, b] (b may be inf) with the
    oscillation handled by QAWO/QAWF; returns (value, err).  The cos and sin
    passes of ``quad_complex`` read one ``functools.cache`` of f, so a node
    of both runs f once; the bits are those of four passes that each
    evaluate f afresh."""
    kw = dict(epsabs=epsabs, epsrel=epsrel, limit=limit)
    if omega == 0.0:
        return quad_complex(f, a, b, **kw)
    table = functools.cache(f)
    (c, e1), (s, e2) = (quad_complex(table, a, b, weight=weight, wvar=omega, **kw) for weight in ("cos", "sin"))
    return complex(c.real + s.imag, c.imag - s.real), e1 + e2


@functools.cache
def _descent_rule(m: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights times e^{-y} for int_0^inf g(y) e^{-y} dy: m-point
    Gauss-Legendre on the panels 0, 1/4, 1/2, 1, 2, ..., 32, 48, 64 (e^-64 = 2e-28).
    The steepest-descent tails of ``density._power_tail`` and
    ``oscillatory._inverse_real`` are dots with it."""
    edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0])
    x, wq = np.polynomial.legendre.leggauss(m)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel()
    return y, ((hi - lo) / 2 * wq).ravel() * np.exp(-y)


def radial_j0_integral(g, R: float, X: float, d: int = 1, *, epsrel: float = 1e-10):
    """int_0^R g(r) J_0(X r^d) dr for X >= 0; returns (value, err).

    The range is split at X r^d = 1.  The near side is integrated with J_0
    itself.  On the far side t = r^d, and J_0(Xt) = Re(H(t) e^{iXt}) with
    H(t) = hankel1e(0, Xt) smooth, so G(t) Re H and G(t) Im H, G(t) =
    g(t^{1/d}) t^{1/d-1}/d, go under the QAWO cosine and sine weights at
    frequency X.  Both passes read one ``functools.cache`` of the two
    products, so g and H run once per far-side node.  A float-valued g
    makes each pass a single real QUADPACK pass (see ``quad_complex``)."""
    from scipy.special import hankel1e, j0

    rho = R if X * R**d <= 1.0 else X ** (-1.0 / d)
    total, err = quad_complex(lambda r: g(r) * j0(X * r**d), 0.0, rho, epsrel=epsrel)
    if rho < R:

        @functools.cache
        def node(t):
            G, H = g(t ** (1.0 / d)) * t ** (1.0 / d - 1.0) / d, hankel1e(0, X * t)
            return G * H.real, G * H.imag

        c, e1 = quad_complex(lambda t: node(t)[0], rho**d, R**d, weight="cos", wvar=X, epsrel=epsrel)
        s, e2 = quad_complex(lambda t: node(t)[1], rho**d, R**d, weight="sin", wvar=X, epsrel=epsrel)
        total += c - s
        err += e1 + e2
    return total, err


# ---------------------------------------------------------------------------
# Tate integrals


def tate_integral(place: Place, phi, s) -> complex:
    """zeta(Phi, |.|^s) = integral of Phi(x) |x|^s d^x, which is
    ``osc_integral_1d`` at a = 0, d = 1, divided by 1 - 1/q at a finite
    place since d^x = (1 - 1/q)^{-1} dx/|x| there.  Exact for a
    StepFunction at a finite place.  Requires Re(s) > 0."""
    from .oscillatory import osc_integral_1d

    value = osc_integral_1d(place, phi, 0, 1, s).value
    return value if place.is_archimedean else value / (1.0 - 1.0 / place.prime)


# ---------------------------------------------------------------------------
# Fourier transforms of test functions


class ArchFourierTransform:
    """The Fourier transform a -> int phi(x) psi(a x) dx of a test function
    at any place: ``osc_integral_1d`` at d = s = 1, exact at a finite
    place.  A test function that does not fit the place raises ValueError
    when the transform is evaluated."""

    def __init__(self, place: Place, phi):
        self.place = place
        self.phi = phi

    def __call__(self, a) -> complex:
        from .oscillatory import osc_integral_1d

        return osc_integral_1d(self.place, self.phi, a, 1, 1).value


def fourier_test_fn(place: Place, phi) -> ArchFourierTransform:
    """Fourier transform f -> f^(a) = int f(x) psi(ax) dx, as an evaluator
    in a."""
    return ArchFourierTransform(place, phi)

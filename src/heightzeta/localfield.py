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
        """The bump at every point of ``x``, as __call__ but in numpy: the
        bits of ``analytic`` where 1 - u^2 > 0, u = (x - center)/radius,
        and 0 elsewhere; the support test of __call__ differs from that
        only at points whose value underflows to 0."""
        u = x - self.center
        q = 1.0 - (u * u) / (self.radius * self.radius)
        inside = q > 0.0
        return np.where(inside, self.amplitude * np.exp(1.0 - 1.0 / np.where(inside, q, 1.0)), 0.0)

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


_FILON_TOL = 1e-13  # of a panel's last two Legendre coefficients, against the mean of |g|


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1]: numpy's nodes after one
    Newton step, and w = 2 / ((1 - x^2) P_n'(x)^2), both in numpy's
    longdouble (x87 extended precision on x86).  At n = 20 and 80 they
    are within an ulp of 40-digit values; numpy's and scipy's weights are
    up to 1e-12 off at n = 80."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for step in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1)
        if step == 0:
            x = x - p1 / dp
    return x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 20 Gauss-Legendre nodes x and weights w on [-1, 1], and the
    matrix M that takes values at x to Legendre coefficients, c = v @ M,
    exact for polynomials of degree < 20.  M is the inverse of the
    transposed Vandermonde matrix P_k(x_j), which takes a constant to
    c_k = 0, k > 0, within 5e-16; (k + 1/2) w_j P_k(x_j) leaves 1.6e-14."""
    x, w = _gauss_legendre(20)
    return x, w, np.linalg.inv(np.polynomial.legendre.legvander(x, 19)).T


@functools.cache
def _moment_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of ``_legendre_moments``: the 40 positive nodes X of the
    80-node Gauss-Legendre rule with twice their weights times P_k(X),
    k < 20, and the coefficients (k + m)! / (m! (k - m)!) of the terminating
    Hankel expansion."""
    x, w = _gauss_legendre(80)
    k = np.arange(20)
    hankel = np.array([[math.comb(i + m, m) * math.perm(i, m) if m <= i else 0 for m in k] for i in k], float)
    return x[40:], np.polynomial.legendre.legvander(x[40:], 19) * 2.0 * w[40:, None], hankel.T


def _legendre_moments(kappa: np.ndarray) -> np.ndarray:
    """mu_k(kappa) = int_{-1}^{1} P_k(x) e^{-i kappa x} dx = 2 (-i)^k j_k(kappa)
    for k < 20, one row per kappa >= 0, within 1.1e-15.  Up to kappa = 60,
    the 80-node Gauss-Legendre rule, where e^{-i kappa x} is a polynomial
    of degree 140 to 1e-34: the cosine part for even k, the sine part for
    odd k.  Above it, k + 1 integrations by parts, which end since P_k is
    a polynomial: with z = i/kappa, Q_k = e^{i kappa} sum_m
    (k + m)!/(m! (k - m)!) (z/2)^m and mu_k = z (conj(Q_k) - (-1)^k Q_k);
    the terms of that sum reach at most 6 times its value there."""
    X, V, hankel = _moment_rule()
    odd = np.arange(20) % 2 == 1
    mu = np.empty((kappa.size, 20), complex)
    small = kappa <= 60.0
    if small.any():
        phase = kappa[small, None] * X
        mu[small] = np.where(odd, -1j * (np.sin(phase) @ V), np.cos(phase) @ V)
    if not small.all():
        x = kappa[~small, None]
        Q = np.exp(1j * x) * (np.cumprod(np.broadcast_to(0.5j / x, (x.size, 20)), axis=1) / (0.5j / x)) @ hankel
        mu[~small] = 1j / x * np.where(odd, Q.conj() + Q, Q.conj() - Q)
    return mu


def _filon(g, edges, omega) -> tuple[np.ndarray, np.ndarray]:
    """int g(t) e^{-i omega t} dt over [edges[0], edges[-1]] for a numpy g
    that takes an array of t and returns m rows of values along it (a
    single row may be a 1-d array), omega one frequency or one per row;
    returns (value, err), each of shape (m,).

    A Filon-type rule (Iserles & Norsett 2005).  Each panel [c - h, c + h],
    starting from the panels between ``edges``, takes g at the 20
    Gauss-Legendre nodes, all panels of a round in one call of g, and its
    Legendre coefficients c_k by one 20x20 matrix.  A panel is bisected
    while the tail |c_18| + |c_19| of a row is above both _FILON_TOL times
    the mean of |g| over the range and 2^-46 times its largest |g|, the
    rounding of the coefficients, at most 40 times; so the panels do not
    depend on omega.  Each panel adds h e^{-i omega c} sum_k c_k
    mu_k(omega h) (``_legendre_moments``, ``_phase``), exact for g of
    degree < 20 at every frequency.  The error is h times, over the panels,
    the tail times max_k |mu_k|, plus 2^-49 |sum_k c_k mu_k| for the rounding
    of the sum and the phase, plus 2^-47 min(1, 60/kappa) sum_k |c_k| for
    that of the moments."""
    x, w, M = _legendre_rule()
    c, h = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    parts, tol = [], None
    for depth in range(41):
        vals = g((h[:, None] * x + c[:, None]).ravel()).reshape(-1, c.size, 20)
        coef, size = vals @ M, np.abs(vals)
        if tol is None:
            tol = _FILON_TOL * float((size @ w @ h).sum()) / (edges[-1] - edges[0])
        tail = np.abs(coef[..., 18:]).sum(axis=-1)
        split = (tail > np.maximum(2.0**-46 * size.max(axis=-1), tol)).any(axis=0)
        if depth == 40 or not split.any():
            parts.append((c, h, coef, tail))
            break
        keep = ~split
        parts.append((c[keep], h[keep], coef[:, keep], tail[:, keep]))
        c, h = c[split], h[split] / 2
        c, h = np.concatenate([c - h, c + h]), np.concatenate([h, h])
    if len(parts) > 1:
        c, h, coef, tail = (np.concatenate(part, axis=-1 if i < 2 else 1) for i, part in enumerate(zip(*parts)))
    omega = np.reshape(omega, (-1, 1))
    if not omega.any():
        sums = 2.0 * coef[..., 0]
        return sums @ h, (2.0 * tail + 2.0**-49 * np.abs(sums)) @ h
    kappa = np.abs(omega) * h
    mu = _legendre_moments(kappa.ravel()).reshape(kappa.shape + (20,))
    sums = (coef * np.where(omega[..., None] < 0.0, mu.conj(), mu)).sum(axis=-1)
    rounding = 2.0**-49 * np.abs(sums) + 2.0**-47 * np.minimum(1.0, 60.0 / kappa) * np.abs(coef).sum(axis=-1)
    return (sums * _phase(omega, c)) @ h, (tail * np.abs(mu).max(axis=-1) + rounding) @ h


def _stationary_panel(f, e1: float, s: complex):
    """int_0^{e1} r^{s-1} f(r) dr for a numpy f analytic on [0, e1], which
    may return rows of values as ``_filon``'s g; returns (value, err, e1),
    value and err one per row, e1 halved while the last two Legendre
    coefficients of f on [0, e1] sum to more than _FILON_TOL times max |f|
    on some row, at most 40 times.  The rule is interpolatory on the 20
    nodes of ``_legendre_rule`` mapped to [0, 1]: its weights are M times
    the moments
    int_0^1 u^{s-1} P_k(2u - 1) du = prod_{i=1}^{k} (s - i)/(s + i) / s,
    k < 20, which hold for complex s as well.  At s = 0.3 it is within
    4e-16 of a 40-digit value, as the Gauss-Jacobi rule is.  The error is
    the tail times the largest moment plus 2^-50 of the L1 mass of the
    terms, both times |e1^s|."""
    x, _, M = _legendre_rule()
    s = s.real if s.imag == 0.0 else s
    moments = [1.0 / s]
    for k in range(1, 20):
        moments.append(moments[-1] * (s - k) / (s + k))
    weights = M @ moments
    for _ in range(40):
        values = f((x + 1.0) * (0.5 * e1))
        tail = np.abs(values @ M[:, 18:]).sum(axis=-1)
        if (tail <= _FILON_TOL * np.abs(values).max()).all():
            break
        e1 /= 2.0
    terms, scale = values * weights, e1**s
    err = abs(scale) * (tail * max(map(abs, moments)) + 2.0**-50 * np.abs(terms).sum(axis=-1))
    return terms.sum(axis=-1) * scale, err, e1


# eight equal panels on [0, 1], the last halved six times towards 1, and
# with the first halved the same way towards 0
_TO_END = np.concatenate([[0.0], np.arange(1.0, 8.0) / 8.0, 1.0 - 2.0 ** np.arange(-4.0, -10.0, -1.0), [1.0]])
_TO_BOTH_ENDS = np.concatenate([[0.0], 2.0 ** np.arange(-9.0, -3.0), _TO_END[1:]])


def _filon_edges(lo_ratio: float, power_at_zero: bool) -> np.ndarray:
    """The first panels of ``_filon`` on a range [lo, hi] scaled to [0, 1],
    hi the end of a bump's support: eight equal panels, the last one
    halved six times towards 1, where the bump's essential singularity is.
    The first is halved the same way towards 0, another end of the
    support, or, for an integrand with a power of t, singular at 0 < lo,
    cut at lo_ratio (2^{k/2} - 1), lo_ratio = lo / (hi - lo), while that is
    below 1/8."""
    if not power_at_zero:
        return _TO_BOTH_ENDS
    if lo_ratio * (2.0**0.5 - 1.0) > 0.125:
        return _TO_END
    head = lo_ratio * (2.0 ** np.arange(0.0, math.log2(1.0 + 0.125 / lo_ratio), 0.5) - 1.0)
    return np.concatenate([head, _TO_END[1:]])


def _phase(omega: float, t: np.ndarray) -> np.ndarray:
    """e^{-i omega t} with omega t rounded once less: the product is split
    exactly, p + e = omega t (Dekker), and the phase is e^{-ip} (1 - ie).
    Rounded, omega t would be off by up to 2^-53 |omega t|, which at
    |omega t| = 6e3 is 7e-13 of each panel's contribution."""
    split = 134217729.0  # 2^27 + 1
    hi = omega * split
    hi -= hi - omega
    t_hi = t * split
    t_hi -= t_hi - t
    p = omega * t
    e = ((hi * t_hi - p) + hi * (t - t_hi) + (omega - hi) * t_hi) + (omega - hi) * (t - t_hi)
    return np.exp(-1j * p) * (1.0 - 1j * e)


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


def radial_j0_integral(f, w, R: float, X: float, d: int = 1):
    """int_0^R r^w f(r) J_0(X r^d) dr for X >= 0, Re w > -1 and a numpy f,
    real or complex, analytic on [0, R) and vanishing at R to all orders;
    returns (value, err).

    The range is split at rho, X rho^d = 1, below which J_0(X r^d) does
    not oscillate: [0, e1],
    e1 = min(rho, R/4), is ``_stationary_panel`` on f J_0 with the weight
    r^w, and [e1, rho] is ``_filon`` at omega = 0 on r^w f J_0.  On the far
    side t = r^d, and J_0(Xt) = Re(H(t) e^{iXt}) with H(t) = hankel1e(0, Xt)
    smooth, so with G(t) = t^{(w+1)/d-1} f(t^{1/d}) / d it is ``_filon`` at
    omega = -X: the real part of its integral of G H for real G, and for
    complex G half the integral of G H plus half the conjugate of that of
    conj(G) H.  Each round of panels calls f and H once, on all its nodes."""
    from scipy.special import hankel1e, j0

    rho = R if X * R**d <= 1.0 else X ** (-1.0 / d)
    near = lambda r: f(r) * j0(X * r**d)
    total, err, e1 = _stationary_panel(near, min(rho, 0.25 * R), w + 1.0)
    total, err = complex(total), float(err)
    if e1 < rho:
        v, e = _filon(lambda r: r**w * near(r), e1 + (rho - e1) * _filon_edges(e1 / (rho - e1), True), 0.0)
        total, err = total + complex(v[0]), err + float(e[0])
    if rho < R:
        power = (w + 1.0) / d - 1.0

        def far(t):
            G, H = t**power * f(t ** (1.0 / d)) / d, hankel1e(0, X * t)
            return G * H if np.isrealobj(G) else np.stack([G * H, G.conj() * H])

        lo, hi = rho**d, R**d
        v, e = _filon(far, lo + (hi - lo) * _filon_edges(lo / (hi - lo), True), -X)
        total += v[0].real if v.size == 1 else (v[0] + v[1].conjugate()) / 2
        err += float(e.mean())
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

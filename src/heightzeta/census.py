"""Exact counts of S-integral points of bounded height, height-ball
volumes, log-power asymptotic fits, the Poisson-summation cross-check,
and equidistribution tables.

A model is a product of blocks P^k, so N(B) is a Dirichlet convolution of
one height count per block on n = floor(B): S-unit sums for a removed
block, a Moebius sum for a kept one.  One block is Python integer
arithmetic (a kept one reads its small quotients off an int64 sieve head),
a convolution int64 arrays; the budget, and the head's size, bound every
int64 value below 2^63, so no point is miscounted and no result depends on
a thread count.

The Jordan totients J_k and the kept blocks' cumulative counts are one
read-only int64 table per k in the process, the largest asked for, and
every caller reads a prefix of it: counts and volumes share one sieve, and
a count repeated in the process sieves nothing.  Their values are exact, so
a prefix equals a fresh table, and a count reads P(T) straight off a table
only where T (2T + 1)^k < 2^63.  Each table holds 8 bytes per entry, 24 MB
at E2's budget top T = 3e6.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, update_wrapper
from itertools import combinations
from math import isqrt
from typing import Sequence

import numpy as np

from .catalog import CompactificationModel
from .density import arch_density, fourier_finite, s_vector
from .errors import BudgetExceededError, ConfigError, NumericError
from .localfield import Place, prime_factors, primes_upto

NODE_CAP = 3_000_000  # budget of one count job, in steps of 0.2 to 2 us (2 vCPUs)


@dataclass
class CountTable:
    model_id: str
    S: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)  # B, N, V, seconds

    def add(self, B, N, V, seconds):
        self.rows.append({"B": _float_B(B), "N": int(N), "V": float(V), "seconds": seconds})

    def Bs(self):
        return [r["B"] for r in self.rows]

    def Ns(self):
        return [r["N"] for r in self.rows]


@dataclass
class AsymptoticFit:
    b: int
    theta_hat: float
    secondary: float | None
    residual_rms: float
    half_width: float


@dataclass
class PoissonCheck:
    lhs: float
    rhs: float
    gap: float
    lhs_tail: float
    rhs_tail: float


# ---------------------------------------------------------------------------
# exact integer arithmetic


def iroot(n, k: int):
    """floor(n^(1/k)) for integers n >= 0 and k >= 1, without floats; on an
    int64 array, the float root corrected by one step."""
    if isinstance(n, np.ndarray) and k > 1:
        r = np.floor(n ** (1.0 / k)).astype(np.int64)
        return r - (r**k > n) + ((r + 1) ** k <= n)
    if k == 2:
        return isqrt(n)
    if k == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # above the root, since n < 2^bit_length
    while True:  # integer Newton steps decrease to the floor of the root
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class _PrefixTables:
    """Decorates build(n, k), an int64 array over 0..n whose entries do not
    depend on n, with one read-only table per k: the largest built so far,
    of which a call reads the prefix [: n + 1], built again only past its end."""

    def __init__(self, build):
        update_wrapper(self, build)
        self.build, self.tables = build, {}

    def __call__(self, n: int, k: int) -> np.ndarray:
        t = self.tables.get(k)
        if t is None or len(t) <= n:
            t = self.tables[k] = self.build(n, k)
            t.flags.writeable = False
        return t[: n + 1]

    def reaches(self, n: int, k: int) -> bool:
        return len(self.tables.get(k, ())) > n


@_PrefixTables
def _jordan_upto(n: int, k: int) -> np.ndarray:
    """Jordan's totient J_k(0..n) = m^k prod_{p | m} (1 - p^-k) as int64
    (k = 1 is Euler phi): the primes up to sqrt(n) by slices, which also
    multiply up each index's part s over those primes, then the at most one
    prime P above sqrt(n): J_k(m) = P^k J_k(s) - J_k(s), a gather of J at s.
    Every value is at most n^k, which the callers keep below 2^63: a kept
    block's table by _kept_head or the convolution's guard in _work, the
    volumes with k <= 2 and n below 3e6 by the budget.  The values are exact,
    so the one table per k that the process keeps (the largest n asked for;
    24 MB at E2's budget top n = 3e6) serves each smaller n as its prefix."""
    idx = np.arange(n + 1, dtype=np.int64)
    J = idx**k
    small = np.ones(n + 1, dtype=np.int64)
    for p in primes_upto(isqrt(n)):
        J[p::p] -= J[p::p] // p**k
        pk = p
        while pk <= n:
            small[pk::pk] *= p
            pk *= p
    small[small == idx] = 0  # no prime above sqrt(n); J[0] = 0
    small[0] = 0
    J -= J[small]
    return J


# ---------------------------------------------------------------------------
# height counts and their convolutions


def _sf_primes(S: Sequence[Place]) -> tuple[int, ...]:
    return tuple(sorted(v.prime for v in S if v.is_finite))


def _s_power_denoms(primes: list[int], bound: Fraction | int) -> list[tuple[int, tuple[int, ...]]]:
    """All e = prod p^{k_p} <= bound with their prime supports."""
    out = [(1, ())]
    for p in primes:
        cur = list(out)
        out = []
        for e, supp in cur:
            out.append((e, supp))
            pe = e * p
            while pe <= bound:
                out.append((pe, supp + (p,)))
                pe *= p
    return sorted(set(out))


class _SUnits:
    """The S-unit denominators e <= n, sorted within groups of equal prime
    support, each support with its squarefree divisors d and mu(d); built
    once per count."""

    def __init__(self, primes: list[int], n: int):
        groups: dict[tuple[int, ...], list[int]] = {}
        for e, supp in _s_power_denoms(primes, n):
            groups.setdefault(supp, []).append(e)
        self._groups = [
            (es, [(math.prod(c), (-1) ** r) for r in range(len(supp) + 1) for c in combinations(supp, r)])
            for supp, es in groups.items()
        ]

    def count(self, q, j: int = 1):
        """sum_{e <= q} sum_{d | rad e} mu(d) (2 floor(q/d) + 1)^j, the points of
        Z[1/S]^j of height max(e, |m_i|) <= q, e their common denominator
        (A_S(q) for j = 1), at an int or at each entry of an int64 array."""
        total = 0
        for es, divs in self._groups:
            c = bisect_right(es, q) if isinstance(q, int) else np.asarray(es).searchsorted(q, "right")
            total += c * sum(mu * (2 * (q // d) + 1) ** j for d, mu in divs)
        return total


def count_sintegers(B: Fraction, primes: list[int]) -> int:
    """#{x in Z[1/S] : prod_v max(1,|x|_v) <= B}; the height of m/e in
    lowest terms is max(e, |m|)."""
    B = Fraction(B)
    if B < 1:
        return 0
    n = math.floor(B)
    return _SUnits(primes, n).count(n)


@_PrefixTables
def _kept_table(T: int, k: int) -> np.ndarray:
    """#P^k(Q) of height <= h for h = 0..T: sum_j c_j J_j(m) points have height
    m, c_j the coefficients of m (2m + 1)^k - (m - 1)(2m - 1)^k (4 Phi - 1 if k = 1).
    Its values are at most T (2T + 1)^k, the points m/e with |m_i|, e <= T,
    which its callers keep below 2^63 (_kept_head, _kept_count and _work).
    Like the J_j it reads, it is one cumulative table per k in the process,
    read as prefixes (24 MB at E2's budget top T = 3e6)."""
    up = [math.comb(k, i) << i for i in range(k + 1)]  # (2m + 1)^k = sum_i up_i m^i
    c = [(-1) ** (k - j) * up[j] + (1 + (-1) ** (k - j)) * up[j - 1] for j in range(1, k + 1)]
    g = sum(cj * _jordan_upto(T, j) for j, cj in enumerate(c, 1))
    g[1] += (-1) ** k  # c_0 J_0, J_0(m) = [m = 1]
    return np.cumsum(g)


def _kept_head(T: int, k: int) -> tuple[int, float]:
    """The size L of the sieve head of _kept_count(T, k) and that count's
    steps: L about T^(2/3), less where an int64 value could reach
    2 3^k T (L + 1)^k >= 2^63 (k >= 3 near the budget top), for L + T/sqrt(L)
    steps; no head, and the plain recursion's T^(3/4) steps, where those are
    fewer (below T = 2^12 at full size).  So a head has L > sqrt(T)."""
    L = min(iroot(T * T, 3), iroot((2**63 - 1) // (2 * 3**k * T), k) - 1)
    steps, plain = L + T / math.sqrt(L) if L > 0 else math.inf, float(min(T, 2**1000)) ** 0.75
    return (L, steps) if steps < plain else (0, plain)


def _kept_count(T: int, k: int) -> int:
    """#P^k(Q) of height <= T: P(T) = sum_{d <= T} mu(d) f(floor(T/d)) with
    f(t) = t (2t + 1)^k, without a Moebius sieve.  P solves f(v) =
    sum_{g <= v} P(floor(v/g)) for every v, and only the values v =
    floor(T/g) are needed.  P(0..L) is read off one _kept_table(L, k), the
    head (L from _kept_head); the O(T^(1/3)) values above L are solved in
    increasing order in O(sqrt v) steps each, O(T^(2/3)) in all
    (Deleglise-Rivat, Helfgott-Thompson): the g with floor(v/g) > L in
    Python integers, one run of equal quotients at a time, the others as
    two int64 gathers from the head: each g up to sqrt(v), then each
    quotient q below sqrt(v) times its number of g.  Both gather P(q) at
    q <= L only, so each int64 sum is at most sum_{g: floor(v/g) <= L}
    f(floor(v/g)) <= f(L) + v int_1^(L+1) (3u)^k du/u <= 2 3^k T (L + 1)^k
    < 2^63.  With no head (L = 0) this is the plain recursion over every
    value, O(T^(3/4)) steps.  Once the process holds every J_j, j <= k, up
    to T (a volume at the same B sieved them), P(T) is read off
    _kept_table(T, k) instead, where T (2T + 1)^k < 2^63 keeps its int64
    values exact; above that bound the recursion runs as if the tables were
    not there."""
    if T * (2 * T + 1) ** k < 2**63 and all(_jordan_upto.reaches(T, j) for j in range(1, k + 1)):
        return int(_kept_table(T, k)[T])
    L = _kept_head(T, k)[0]
    head = _kept_table(L, k) if L else None
    r = isqrt(T)
    P: dict[int, int] = {}
    for v in sorted({T // g for g in range(1, min(r, T // (L + 1)) + 1)} | set(range(L + 1, r + 1))):
        acc, g = v * (2 * v + 1) ** k, 2
        while g <= v:
            q = v // g
            if q <= L:
                break
            top = v // q
            acc -= (top - g + 1) * P[q]
            g = top + 1
        if L:  # the g from here on have v // g <= L, and L > sqrt(v)
            rv = isqrt(v)
            qs = np.arange(1, v // (rv + 1) + 1)
            acc -= int(head[v // np.arange(g, rv + 1)].sum()) + int((v // qs - v // (qs + 1)) @ head[qs])
        P[v] = acc
    return P[T]


def _convolve(n: int, lam: int, C_X, A_Y) -> int:
    """sum_{h >= 1} (C_X(h) - C_X(h-1)) A_Y(floor(n/h^lam)): the points with
    H(x)^lam H(y) <= n, from cumulative height counts mapping int64 arrays.
    Each h <= n^(1/(lam+1)) is a term; above, one term per floor(n/h^lam)."""
    r = iroot(n, lam + 1)
    q = np.arange(n // (r + 1) ** lam, 0, -1, dtype=np.int64)  # floor(n/h^lam) for h > r, decreasing
    h = np.concatenate([np.arange(r + 1, dtype=np.int64), iroot(n // q, lam)])  # 0..r, then the last h of each q
    return int(np.diff(C_X(h)) @ A_Y(np.concatenate([n // h[1 : r + 1] ** lam, q])))


def _count(blocks: tuple, n: int, primes: tuple[int, ...]) -> int:
    """N(B) for n = floor(B) >= 1: the points whose block heights satisfy
    prod h_alpha^lambda_alpha <= n.  A removed P^k counts Z[1/S]^k by common
    S-unit denominator, a kept one all of P^k(Q), integral everywhere, by
    sum_{d <= h} mu(d) t (2t + 1)^k, t = floor(h/d).  One block is counted in
    Python integers (_kept_count if kept), more by convolving each into the
    count of the rest."""
    tops = [iroot(n, lam) for _, lam, _ in blocks]
    units = _SUnits(primes, max((T for T, b in zip(tops, blocks) if b[2]), default=0))
    if len(blocks) == 1:
        (k, _, removed), T = blocks[0], tops[0]
        return units.count(T, k) if removed else _kept_count(T, k)
    C = [(lambda h, k=k: units.count(h, k)) if rem else _kept_table(T, k).__getitem__
         for (k, _, rem), T in zip(blocks, tops)]

    def rest(i: int, q: np.ndarray) -> np.ndarray:  # the blocks i.. at each q
        if i == len(blocks) - 1:
            return C[i](iroot(q, blocks[i][1]))
        return np.array([_convolve(v, blocks[i][1], C[i], lambda t: rest(i + 1, t)) for v in q.tolist()])

    return _convolve(n, blocks[0][1], C[0], lambda q: rest(1, q))


@lru_cache
def _work(blocks: tuple, primes: tuple, n: int) -> float:
    """The work of enumerate_points plus volume_V, read off the blocks: with
    heights T = floor(n^(1/lambda)) and D denominators (1..T if kept, else
    S-units, at most a simplex volume), volume_V loops over D^k tuples per
    removed and T per kept block, both list the S-units, a lone kept block
    is the steps of _kept_count from _kept_head (about 2 T^(2/3) with a head
    of T^(2/3), T^(3/4) without) and a convolution 3^#S array steps per point;
    its int64 values stay below prod D (2T + 1)^k, else the work is inf."""
    logs = [math.log(p) for p in primes]
    tops = [iroot(n, lam) for _, lam, _ in blocks]
    D = [(math.log(T) + sum(logs)) ** len(logs) / (math.factorial(len(logs)) * math.prod(logs)) if rem
         else float(min(T, 2**1000)) for (_, _, rem), T in zip(blocks, tops)]
    work = math.prod(d**k if rem else d for d, (k, _, rem) in zip(D, blocks))
    work += 12 * max((d for d, (_, _, rem) in zip(D, blocks) if rem), default=0)
    if len(blocks) == 1:
        return work if blocks[0][2] else work + _kept_head(tops[0], blocks[0][0])[1]
    if sum(math.log(d) + k * math.log(2 * T + 1) for d, T, (k, _, _) in zip(D, tops, blocks)) >= 63 * math.log(2):
        return math.inf
    return work + 3 ** len(logs) * math.prod(2 * n ** (1 / (lam + 1)) for _, lam, _ in blocks[:-1])


def _check_budget(model: CompactificationModel, S: Sequence[Place], B: Fraction) -> tuple[tuple, tuple, int]:
    """The blocks (k, lambda, removed) of each factor P^k by decreasing
    lambda, the primes of S and n = floor(B), if their _work is in NODE_CAP."""
    div, primes, n = model.divisors, _sf_primes(S), max(math.floor(B), 1)
    blocks = tuple(sorted(((len(model.norm_coords[a]), div.lam(a), a in div.removed) for a in div.labels),
                          key=lambda b: -b[1]))
    if _work(blocks, primes, n) > NODE_CAP:
        raise BudgetExceededError(f"B = {_shown(B)} exceeds the count budget for {model.id}")
    return blocks, primes, n


def enumerate_points(model: CompactificationModel, S: Sequence[Place], B, threads: int = 1) -> int:
    """Exact N(B) = #{x in G(Q), S-integral, H(x; lambda) <= B}.

    ``threads`` is accepted for interface stability; the count runs in
    one thread and does not depend on it."""
    B = Fraction(B)
    if B < 1:
        return 0
    blocks, primes, n = _check_budget(model, S, B)
    return _count(blocks, n, primes)


# ---------------------------------------------------------------------------
# height-ball volumes


def _shown(B: Fraction) -> str:
    """B for a message; float(B) overflows past 1e308."""
    return f"{float(B):g}" if B < 1e300 else f"~1e{len(str(math.floor(B))) - 1}"


def _float_B(B) -> float:
    B = Fraction(B)
    try:
        return float(B)
    except OverflowError:
        raise NumericError(f"B = {_shown(B)} is past the float range of volumes and count tables") from None


def _sum_left(terms: np.ndarray) -> float:
    """The float sum of terms added left to right, as a Python loop adds
    them (np.sum adds pairwise, with other roundings)."""
    return float(np.cumsum(terms)[-1])


def volume_V(model: CompactificationModel, S: Sequence[Place], B) -> float:
    """Adelic volume of the height ball H <= B (integral off S): closed forms
    over finite-place denominators, phi(e) for an S-unit e and J_2(d) for E6's
    common d.  Per model, since a sum read off the blocks would add other
    floats in another order, and the volumes are pinned to the bit: E4's and
    E6's terms are numpy arrays built with the operations of the loops they
    replaced and added in the same order."""
    B = Fraction(B)
    Bf = _float_B(B)
    if Bf < 1:
        return 0.0
    _check_budget(model, S, B)
    mid, n = model.id, math.floor(B)
    if mid == "E2":
        T = math.sqrt(Bf)
        ds = np.arange(1, int(T) + 1)
        phis = _jordan_upto(int(T), 1)[1:].astype(float)
        return 2.0 * T * float(np.sum(phis / ds))
    if mid == "E6":
        T = iroot(n, 3)
        t = Bf ** (1.0 / 3.0) / np.arange(1, T + 1, dtype=float)
        # the loop's float test, which drops d = T when B is a perfect cube
        return _sum_left((_jordan_upto(T, 2)[1:] * 4.0 * t * t)[t >= 1.0])
    # phi(e) from the prime support of e; E3's F = lcm(e1, e2) needs e^2 <= B
    denoms = [
        (e, e // math.prod(supp) * math.prod(p - 1 for p in supp))
        for e, supp in _s_power_denoms(_sf_primes(S), isqrt(n) if mid == "E3" else n)
    ]
    if mid == "E1":
        return 2.0 * Bf * sum(phi / e for e, phi in denoms)
    if mid == "E3":
        # the real box has side 2 sqrt(B)/F in each coordinate
        total = 0.0
        for e1, phi1 in denoms:
            for e2, phi2 in denoms:
                F = math.lcm(e1, e2)
                if F * F <= n:
                    total += phi1 * phi2 * 4.0 * Bf / (F * F)
        return total
    if mid == "E5":
        total = 0.0
        for e1, phi1 in denoms:
            for e2, phi2 in denoms:
                T = Bf / (e1 * e2)
                if T < 1.0:  # and for every later e2
                    break
                total += phi1 * phi2 * (4.0 * T + 4.0 * T * math.log(T))
        return total
    if mid == "E4":
        T = int(math.sqrt(Bf))
        phis = _jordan_upto(T, 1)[1:].astype(float)
        # the pairs (e, d), d = 1..D_e for each e in turn; d^2 e > n + 3 past D_e
        D = np.array([min(T, isqrt(n // e) + 1) for e, _ in denoms])
        e = np.repeat([e for e, _ in denoms], D)
        d = np.arange(1, len(e) + 1) - np.repeat(np.cumsum(D) - D, D)
        Teff = Bf / (d * d * e).astype(float)
        terms = phis[d - 1] * np.repeat([float(phi) for _, phi in denoms], D) * (8.0 * Teff - 4.0 * np.sqrt(Teff))
        return _sum_left(terms[Teff >= 1.0])  # each e's loop over d stopped at Teff < 1
    raise ConfigError(f"volume_V does not support {mid}")


def count_table(model, S, Bs, threads: int = 1, with_volume: bool = True) -> CountTable:
    table = CountTable(model.id, tuple(str(v) for v in S))
    for B in Bs:
        t0 = time.perf_counter()
        N = enumerate_points(model, S, B, threads)
        V = volume_V(model, S, B) if with_volume else float("nan")
        table.add(B, N, V, time.perf_counter() - t0)
    rows = sorted(table.rows, key=lambda r: r["B"])
    for r1, r2 in zip(rows, rows[1:]):
        if r2["N"] < r1["N"]:
            raise NumericError(
                f"counts must be nondecreasing in B: N({r1['B']:g}) = {r1['N']} > N({r2['B']:g}) = {r2['N']}"
            )
    return table


# ---------------------------------------------------------------------------
# asymptotic fits


def fit_asymptotic(table: CountTable, b: int) -> AsymptoticFit:
    """Least squares for N(B)/B against (log B)^{b-1}, (log B)^{b-2}
    (b >= 2), or the plain mean over the top half of the grid (b = 1).
    Raises NumericError when the b >= 2 fit does not follow the data."""
    Bs = np.array(table.Bs(), dtype=float)
    Ns = np.array(table.Ns(), dtype=float)
    if len(Bs) < 5:
        raise ConfigError("need at least 5 grid rows to fit")
    y = Ns / Bs
    t = np.log(Bs)
    if b == 1:
        top = y[len(y) // 2 :]
        theta = float(np.mean(top))
        resid = y - theta
        rms = float(np.sqrt(np.mean((resid / max(theta, 1e-12)) ** 2)))
        hw = 1.96 * float(np.std(top) / math.sqrt(len(top)))
        return AsymptoticFit(1, theta, None, rms, hw)
    X = np.column_stack([t ** (b - 1), t ** (b - 2)])
    coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    resid = y - fitted
    rms = float(np.sqrt(np.mean((resid / np.maximum(np.abs(fitted), 1e-12)) ** 2)))
    if rms > float(np.sqrt(np.mean(y**2))):
        # the residual is relative to the fitted curve: above the data's own
        # rms, that curve runs near zero on the grid and describes nothing
        raise NumericError(f"the b = {b} fit does not follow the data (residual rms {rms:.3g})")
    dof = max(1, len(y) - 2)
    sigma2 = float(resid @ resid) / dof
    cov00 = sigma2 * np.linalg.inv(X.T @ X)[0, 0]
    return AsymptoticFit(b, float(coef[0]), float(coef[1]), rms, 1.96 * math.sqrt(max(cov00, 0.0)))


def fit_residual_rms(table: CountTable, b: int) -> float:
    """Absolute residual rms of the b-model fit of N/B (for model
    comparison at fixed data)."""
    Bs = np.array(table.Bs(), dtype=float)
    y = np.array(table.Ns(), dtype=float) / Bs
    t = np.log(Bs)
    if b == 1:
        return float(np.sqrt(np.mean((y - np.mean(y)) ** 2)))
    X = np.column_stack([t ** (b - 1), t ** (b - 2)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(np.sqrt(np.mean((y - X @ coef) ** 2)))


# ---------------------------------------------------------------------------
# Poisson cross-check (models E1 and E2, S = {real place})


def poisson_crosscheck(model, s: float, A: int, *, height_cutoff: int = 300_000) -> PoissonCheck:
    """Compare the direct height sum with the character-side sum truncated
    at ||a|| <= A.  Supported for the one-dimensional models.  The
    archimedean transform is even in a, so it is computed once per |a|."""
    s = float(s)
    if model.id == "E1":
        if s <= 1.0:
            raise ConfigError("need s > 1")
        ns = np.arange(1, height_cutoff + 1, dtype=float)
        lhs = 1.0 + 2.0 * float(np.sum(ns ** (-s)))
        lhs_tail = 2.0 * height_cutoff ** (1.0 - s) / (s - 1.0)
        arch = [arch_density(model, a, s).real for a in range(max(A, 0) + 1)]
        vals = [(a, arch[abs(a)]) for a in range(-A, A + 1)]  # finite factors are all 1
        rhs = math.fsum(v for _, v in vals)
        rhs_tail = _rhs_tail(vals, A)
        return PoissonCheck(lhs, rhs, abs(lhs - rhs), lhs_tail, rhs_tail)
    if model.id == "E2":
        w = 2.0 * s
        if w <= 2.0:
            raise ConfigError("need s > 1 along the log-anticanonical direction")
        T = min(height_cutoff, 20000)
        phis = _jordan_upto(T, 1)[1:].astype(float)
        hs = np.arange(1, T + 1, dtype=float)
        lhs = 3.0 + float(np.sum(4.0 * phis[1:] * hs[1:] ** (-w)))
        lhs_tail = (24.0 / math.pi**2) * T ** (2.0 - w) / (w - 2.0)
        from scipy.special import zeta

        zw = float(zeta(w))
        zw1 = float(zeta(w - 1.0))
        arch = [arch_density(model, a, s).real for a in range(max(A, 0) + 1)]
        vals = [(0, arch[0] * zw1 / zw)]
        for a in [t for t in range(-A, A + 1) if t != 0]:
            fin = 1.0 / zw
            for p in set(prime_factors(abs(a))):
                hp = fourier_finite(model, p, (Fraction(a),), s_vector(model, s))
                fin *= hp.real / (1.0 - p ** (-w))
            vals.append((a, arch[abs(a)] * fin))
        rhs = math.fsum(v for _, v in vals)
        rhs_tail = _rhs_tail(vals, A)
        return PoissonCheck(lhs, rhs, abs(lhs - rhs), lhs_tail, rhs_tail)
    raise ConfigError(f"poisson_crosscheck supports E1 and E2, not {model.id}")


def _rhs_tail(vals: list[tuple[int, float]], A: int) -> float:
    # character terms decay like 1/a^2; extrapolate the omitted part
    if A < 4:
        return float("inf")
    c = max((abs(v) * a * a for a, v in vals if a != 0), default=0.0)
    return 2.0 * c / max(A, 1)


# ---------------------------------------------------------------------------
# equidistribution


@dataclass
class Region:
    label: str
    kind: str  # "halfline", "quadrant", "abs_le"
    predicted: float = 0.0


def standard_regions(model_id: str) -> list[Region]:
    if model_id == "E1":
        return [Region("x>0", "halfline", 0.5)]
    if model_id == "E3":
        return [Region(f"x{sx}y{sy}", "quadrant", 0.25) for sx in (1, -1) for sy in (1, -1)]
    if model_id == "E5":
        return [Region("|x|<=|y|", "abs_le", 0.5)]
    raise ConfigError(f"no standard regions for {model_id}")


def equidistribution_test(model, S, B, threads: int = 1):
    """Empirical fractions of points of height <= B in each region versus
    the limit-measure prediction (the catalog limit measures are invariant
    under the coordinate sign flips and, for E5, the coordinate swap, so
    the predictions are the symmetry-orbit fractions).  ``threads`` is
    accepted for interface stability and does not change the result."""
    B = Fraction(B)
    primes = _sf_primes(S)
    if primes:
        raise ConfigError("equidistribution counting is provided for S = {real place}")
    N = enumerate_points(model, S, B, threads)
    rows = []
    for reg in standard_regions(model.id):
        cnt = _region_count(model.id, B, reg)
        rows.append({"region": reg.label, "empirical": cnt / N, "predicted": reg.predicted, "count": cnt})
    return rows


def _region_count(model_id: str, B: Fraction, reg: Region) -> int:
    limit = math.floor(B)
    if model_id == "E1" and reg.kind == "halfline":
        return limit  # x in {1..B}
    if model_id == "E3" and reg.kind == "quadrant":
        T = isqrt(limit)
        return T * T  # strict quadrant
    if model_id == "E5" and reg.kind == "abs_le":
        # x = 0 gives the 2n + 1 values of y; |x| = a >= 1 needs
        # a <= |y| <= floor(n/a), so a <= sqrt n, on both signs of x and y
        return 2 * limit + 1 + 4 * sum(limit // a - a + 1 for a in range(1, isqrt(limit) + 1))
    raise ConfigError(f"unsupported region {reg.kind} for {model_id}")

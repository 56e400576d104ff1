import bisect
import itertools
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from scipy.special import zeta as riemann_zeta

from heightzeta import census
from heightzeta.catalog import CompactificationModel, get_model, places_from_spec
from heightzeta.census import (
    count_sintegers,
    count_table,
    enumerate_points,
    equidistribution_test,
    fit_asymptotic,
    fit_residual_rms,
    poisson_crosscheck,
    volume_V,
)
from heightzeta.errors import BudgetExceededError, ConfigError, NumericError
from heightzeta.localfield import Place, prime_factors

F = Fraction
R = [Place.real()]
S5 = [Place.real(), Place.finite(5)]
FINITE_S = ((5,), (2, 3))


def _places(primes):
    return [Place.real()] + [Place.finite(p) for p in primes]


def _s_units(primes, H):
    """The e <= H with every prime factor in primes."""
    out = []
    for e in range(1, H + 1):
        r = e
        for p in primes:
            while r % p == 0:
                r //= p
        if r == 1:
            out.append(e)
    return out


def _heights(model_id, primes, H):
    """Heights <= H of the points x = m/e (lowest terms, e an S-unit) of a
    one-dimensional catalog model, by the catalog height.  Both e and |x|
    are at most T = H^(1/lambda); E2 (lambda = 2) removes nothing, so there
    every e <= T is a denominator."""
    m = get_model(model_id)
    T = math.isqrt(H) if model_id == "E2" else H
    dens = range(1, T + 1) if model_id == "E2" else _s_units(primes, T)
    out = []
    for e in dens:
        for num in range(-T * e, T * e + 1):
            x = F(num, e)
            if x.denominator == e and m.height_base(x) <= H:
                out.append(m.height_base(x))
    return out


def _product_count(hx, hy, B):
    """#{(x, y) : H(x) H(y) <= B} from the height lists of x and y."""
    hy = sorted(hy)
    return sum(bisect.bisect_right(hy, F(B) / a) for a in hx)


def test_count_E1():
    m = get_model("E1")
    assert enumerate_points(m, R, 10) == 21
    assert enumerate_points(m, R, F(21, 2)) == 21
    assert enumerate_points(m, R, 10**6) == 2 * 10**6 + 1
    assert enumerate_points(m, R, 10**400) == 2 * 10**400 + 1  # past the float range


def test_count_E3():
    m = get_model("E3")
    assert enumerate_points(m, R, 100) == 441
    B = 10**6
    T = math.isqrt(B)
    assert enumerate_points(m, R, B) == (2 * T + 1) ** 2


def test_count_E2_brute():
    m = get_model("E2")
    B = 10**4
    T = math.isqrt(B)
    brute = 0
    for n in range(1, T + 1):
        for num in range(-T, T + 1):
            if gcd(num, n) == 1:
                brute += 1
    got = enumerate_points(m, R, B)
    assert got == brute
    assert abs(got / B - 12 / math.pi**2) < 0.01


def test_count_E5_brute():
    m = get_model("E5")
    B = 200
    brute = sum(
        1
        for x in range(-B, B + 1)
        for y in range(-B, B + 1)
        if max(1, abs(x)) * max(1, abs(y)) <= B
    )
    assert enumerate_points(m, R, B) == brute
    for primes, B in zip(FINITE_S, (60, 40)):
        h = _heights("E1", primes, B)
        assert enumerate_points(m, _places(primes), B) == _product_count(h, h, B)


def test_count_E4_brute():
    m = get_model("E4")
    B = 400
    T = math.isqrt(B)
    brute = 0
    for c in range(1, T + 1):
        for num in range(-T, T + 1):
            if gcd(num, c) != 1:
                continue
            h = max(abs(num), c)
            if h * h <= B:
                brute += 2 * (B // (h * h)) + 1
    assert enumerate_points(m, R, B) == brute
    # x rational with the E2 height max(|num|, den)^2, y an S-integer
    for primes, B in zip(FINITE_S, (60, 48)):
        got = enumerate_points(m, _places(primes), B)
        assert got == _product_count(_heights("E2", (), B), _heights("E1", primes, B), B)


def test_count_E6_brute():
    m = get_model("E6")
    for B in (8, 64, 1000):
        T = round(B ** (1 / 3))
        brute = 0
        for c in range(1, T + 1):
            for a in range(-T, T + 1):
                for b in range(-T, T + 1):
                    if gcd(gcd(abs(a), abs(b)), c) == 1:
                        brute += 1
        assert enumerate_points(m, R, B) == brute


def test_count_E1_with_finite_place():
    m = get_model("E1")
    B = 100
    brute = 0
    k = 0
    while 5**k <= B:
        for num in range(-B, B + 1):
            if k > 0 and num % 5 == 0:
                continue
            if max(5**k, abs(num)) <= B:
                brute += 1
        k += 1
    assert enumerate_points(m, S5, B) == brute == 521


def test_count_E3_with_finite_place():
    m = get_model("E3")
    for primes, B in (((2,), 64), ((2, 3), 36)):
        T = math.isqrt(B)
        # x, y in Z[1/S] with denominators up to sqrt(B); the finite part of
        # H = (prod_v max(1,|x|,|y|)_v)^2 is lcm(d1, d2)^2
        xs = [(d, F(n, d)) for d in _s_units(primes, T) for n in range(-T * d, T * d + 1) if gcd(n, d) == 1]
        brute = sum(
            1
            for d1, x in xs
            for d2, y in xs
            if (math.lcm(d1, d2) * max(1, abs(x), abs(y))) ** 2 <= B
        )
        assert enumerate_points(m, _places(primes), B) == brute


@pytest.mark.parametrize("primes, B", [((11,), 60), ((13,), 60), ((2, 101), 110)])
def test_count_any_prime_in_S(primes, B):
    """S may hold any prime: E1, E4 and E5 from the E1 and E2 heights by
    the catalog height, and E3 from its points (a/D, b/D) in lowest terms,
    of height max(D, |a|, |b|)^2, at a B that reaches the largest prime."""
    S = places_from_spec(["inf", *primes])
    h1 = _heights("E1", primes, B)
    assert enumerate_points(get_model("E1"), S, B) == len(h1)
    assert enumerate_points(get_model("E5"), S, B) == _product_count(h1, h1, B)
    assert enumerate_points(get_model("E4"), S, B) == _product_count(_heights("E2", (), B), h1, B)
    T = max(primes)
    brute = sum(
        1
        for D in _s_units(primes, T)
        for a in range(-T, T + 1)
        for b in range(-T, T + 1)
        if math.gcd(a, b, D) == 1
    )
    assert enumerate_points(get_model("E3"), S, T * T) == brute


def _block_brute(model, primes, B):
    """N(B) by the catalog height: every point x with height_base(x) <= B.
    A block of height <= T = floor(B^(1/lambda)) has coordinates m/e with
    |m|, e <= T, e an S-unit if the block is removed; the blocks are
    combined while the product of their heights (each on its own, the
    other coordinates 0) stays <= B."""
    div = model.divisors
    per_block = []
    for alpha, idx in model.norm_coords.items():
        T = census.iroot(math.floor(B), div.lam(alpha))
        dens = _s_units(primes, T) if alpha in div.removed else range(1, T + 1)
        pts = {tuple(F(m, e) for m in ms) for e in dens for ms in itertools.product(range(-T, T + 1), repeat=len(idx))}
        found = []
        for pt in pts:
            x = [F(0)] * model.dim
            for i, v in zip(idx, pt):
                x[i] = v
            h = model.height_base(tuple(x))
            if h <= B:
                found.append((h, dict(zip(idx, pt))))
        per_block.append(found)

    def extend(i, h, coords):
        if i == len(per_block):
            x = tuple(coords[j] for j in range(model.dim))
            return int(model.height_base(x) <= B)
        return sum(extend(i + 1, h * hb, {**coords, **c}) for hb, c in per_block[i] if h * hb <= B)

    return extend(0, F(1), {})


def test_count_block_models():
    """Models outside the catalog, three blocks or a kept P^2 under a
    convolution, against the brute force through height_base."""
    T3 = {"Dx": (0,), "Dy": (1,), "Dz": (2,)}
    cases = [
        (CompactificationModel("T3", T3, removed={"Dx", "Dy", "Dz"}), (), (10, 60)),
        (CompactificationModel("T3", T3, removed={"Dy", "Dz"}), (), (40,)),
        (CompactificationModel("T3", T3, removed={"Dz"}), (), (40,)),
        (CompactificationModel("P2xP1", {"H": (0, 1), "D": (2,)}, removed={"D"}), (), (100,)),
        (CompactificationModel("T3", T3, removed={"Dx", "Dy", "Dz"}), (5,), (20,)),
    ]
    for model, primes, Bs in cases:
        for B in Bs:
            got = enumerate_points(model, _places(primes), B)
            assert type(got) is int
            assert got == _block_brute(model, primes, B), (model.id, sorted(model.divisors.removed), primes, B)
    T3all = cases[0][0]
    assert [enumerate_points(T3all, R, B) for B in (10, 100, 400)] == [809, 18153, 105561]


# exact counts of the per-model counters that the block engine replaced, at
# five log-spaced B up to the lower of their budget limit and the present
# one (1e30 for E1 and E3, which had none)
PARENT_COUNTS = {
    ('E1', ()): [
        (1000000, 2000001), (1000000000000, 2000000000001), (1000000000000000000, 2000000000000000001),
        (1000000000000000000000000, 2000000000000000000000001),
        (1000000000000000000000000000000, 2000000000000000000000000000001)
    ],
    ('E1', (5,)): [
        (1000000, 14800001), (1000000000000, 29200000000001), (1000000000000000000, 42000000000000000001),
        (1000000000000000000000000, 56400000000000000000000001),
        (1000000000000000000000000000000, 69200000000000000000000000000001)
    ],
    ('E1', (2, 3)): [
        (1000000, 110333269), (1000000000000, 386999999999705), (1000000000000000000, 830999999999999999305),
        (1000000000000000000000000, 1441666666666666666666665407),
        (1000000000000000000000000000000, 2218333333333333333333333333331341)
    ],
    ('E2', ()): [
        (251, 287), (63095, 77095), (15848931, 19274207), (3981071705, 4840390831), (1000000000000, 1215854209567)
    ],
    ('E2', (5,)): [
        (251, 287), (63095, 77095), (15848931, 19274207), (3981071705, 4840390831), (1000000000000, 1215854209567)
    ],
    ('E2', (2, 3)): [
        (251, 287), (63095, 77095), (15848931, 19274207), (3981071705, 4840390831), (1000000000000, 1215854209567)
    ],
    ('E3', ()): [
        (1000000, 4004001), (1000000000000, 4000004000001), (1000000000000000000, 4000000004000000001),
        (1000000000000000000000000, 4000000000004000000000001),
        (1000000000000000000000000000000, 4000000000000004000000000000001)
    ],
    ('E3', (5,)): [
        (1000000, 19376801), (1000000000000, 34720029600001), (1000000000000000000, 50080000042400000001),
        (1000000000000000000000000, 69280000000058400000000001),
        (1000000000000000000000000000000, 84640000000000071200000000000001)
    ],
    ('E3', (2, 3)): [
        (1000000, 116408673), (1000000000000, 397000231333345), (1000000000000000000, 843000000470000000017),
        (1000000000000000000000000, 1460555555556351777777777801),
        (1000000000000000000000000000000, 2242555555555556758444444444444473)
    ],
    ('E4', ()): [(39, 497), (1584, 34311), (63095, 1934281), (2511886, 99468299), (100000000, 4856191655)],
    ('E4', (5,)): [(30, 707), (910, 49827), (27464, 2725263), (828613, 132716541), (25000000, 5833195367)],
    ('E4', (2, 3)): [(22, 909), (514, 80561), (11665, 4282733), (264558, 189510615), (6000000, 7377918943)],
    ('E5', ()): [(45, 909), (2091, 73641), (95635, 4828841), (4373448, 287694301), (200000000, 16214609033)],
    ('E5', (5,)): [(34, 1725), (1201, 215637), (41627, 18250965), (1442699, 1250794641), (50000000, 77272524249)],
    ('E5', (2, 3)): [(23, 3041), (547, 514105), (12795, 45701537), (299280, 3028286069), (7000000, 165712491061)],
    ('E6', ()): [
        (6309, 20329), (39810717, 132502793), (251188643150, 835798032825), (1584893192461113, 5273942776823481),
        (10000000000000000000, 33276279932405060857)
    ],
    ('E6', (5,)): [
        (6309, 20329), (39810717, 132502793), (251188643150, 835798032825), (1584893192461113, 5273942776823481),
        (10000000000000000000, 33276279932405060857)
    ],
    ('E6', (2, 3)): [
        (4959, 17761), (24595094, 81436585), (121975540946, 405908961041), (604918691098299, 2012967477546849),
        (3000000000000000000, 9982886948364100641)
    ],
}


def test_counts_pinned_to_parent():
    for (mid, primes), rows in PARENT_COUNTS.items():
        for B, N in rows:
            got = enumerate_points(get_model(mid), _places(primes), B)
            assert type(got) is int
            assert got == N, (mid, primes, B)


def _mobius_sum_loop(T, f):
    """sum_{d <= T} mu(d) f(floor(T/d)) by the plain O(T^(3/4)) recursion
    that _kept_count replaced, kept as its reference."""
    r = math.isqrt(T)
    P = {}
    for v in sorted({T // g for g in range(1, r + 1)} | set(range(1, r + 1))):
        acc, g = f(v), 2
        while g <= v:
            q = v // g
            top = v // q
            acc -= (top - g + 1) * P[q]
            g = top + 1
        P[v] = acc
    return P[T]


def _budget_top(model, S):
    """The largest n that _check_budget accepts, by bisection."""
    lo, hi = 1, 10**20
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            census._check_budget(model, S, mid)
            lo = mid
        except BudgetExceededError:
            hi = mid
    return lo


def test_kept_count_matches_plain_recursion(monkeypatch):
    """The lone kept block count with its sieve head equals the plain
    recursion for k <= 4: every T <= 300 (no head), both sides of the
    crossover, where the k >= 3 head shrinks under its int64 bound, and at
    the E2 and E6 budget tops."""
    _fresh_tables(monkeypatch)  # no J_j table reaches T, so every count runs the recursion
    tops = [census.iroot(_budget_top(get_model("E2"), R), 2), census.iroot(_budget_top(get_model("E6"), R), 3)]
    assert all(2_900_000 < T < 3_000_000 for T in tops)
    first = next(T for T in range(2, 10**4) if census._kept_head(T, 1)[0])
    for k in (1, 2, 3, 4):
        f = lambda t, k=k: t * (2 * t + 1) ** k
        Ts = [*range(1, 301), *range(first - 3, first + 4), 10**4, 12_345, 10**5, 3 * 10**5, 10**6, *tops]
        for T in Ts:
            assert census._kept_count(T, k) == _mobius_sum_loop(T, f), (k, T)
    # below the head's int64 bound the head shrinks: k = 4 at 1e5 and 3e5, k = 3 at the tops
    for T, k in ((10**5, 4), (3 * 10**5, 4), (tops[0], 3)):
        L = census._kept_head(T, k)[0]
        assert 0 < L < census.iroot(T * T, 3) and 2 * 3**k * T * (L + 1) ** k < 2**63, (T, k)


def test_kept_head():
    """Each lone kept block's step count is at most the plain recursion's
    T^(3/4), so the budget refuses no B that it accepted with T^(3/4); a
    head holds every quotient up to sqrt(T)."""
    for k in (1, 2, 3, 4):
        for T in (1, 10, 4064, 4065, 10**5, 10**6, 2_929_000, 3_000_000, 10**9, 10**400):
            L, steps = census._kept_head(T, k)
            assert steps <= float(min(T, 2**1000)) ** 0.75 and (L == 0 or L > math.isqrt(T)), (k, T)


def test_count_at_budget_limit():
    """E5 at the largest n the budget accepts, against 4 D(n) + 4n + 1 with
    D(n) = sum_{h <= n} floor(n/h) by the hyperbola method."""
    m = get_model("E5")
    lo, hi = 1, 2**40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            census._check_budget(m, R, mid)
            lo = mid
        except BudgetExceededError:
            hi = mid
    r = math.isqrt(lo)
    D = 2 * sum(lo // h for h in range(1, r + 1)) - r * r
    assert enumerate_points(m, R, lo) == 4 * D + 4 * lo + 1
    with pytest.raises(BudgetExceededError):
        enumerate_points(m, R, lo + 1)


def test_budget_reads_denominators():
    """Many S-units or a kept block's sieve are refused before any list is
    built; a single removed block with few S-units has no limit."""
    S2357 = _places((2, 3, 5, 7))
    for mid in ("E1", "E3"):
        with pytest.raises(BudgetExceededError):
            enumerate_points(get_model(mid), S2357, 10**60)
        with pytest.raises(BudgetExceededError):
            volume_V(get_model(mid), S2357, 10**60)
    with pytest.raises(BudgetExceededError):
        volume_V(get_model("E2"), R, 10**16)
    assert enumerate_points(get_model("E3"), S5, 10**300) > 0


def test_count_monotone_and_table():
    m = get_model("E5")
    tb = count_table(m, R, [10, 100, 1000], with_volume=True)
    ns = tb.Ns()
    assert ns == sorted(ns)
    assert all(r["V"] > 0 for r in tb.rows)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_points(get_model("E5"), R, 10**12)
    with pytest.raises(BudgetExceededError):
        enumerate_points(get_model("E5"), R, 10**400)
    # E1 counts there, but the volume and the table row are floats
    with pytest.raises(NumericError, match="1e400"):
        count_table(get_model("E1"), R, [10**400], with_volume=False)
    with pytest.raises(NumericError, match="1e400"):
        volume_V(get_model("E1"), R, 10**400)


def test_iroot_exact():
    iroot = census.iroot
    for t in (1, 2, 7, 10**5 + 3, 10**30 + 7, 2**200 + 1):
        n = t**3
        assert (iroot(n - 1, 3), iroot(n, 3), iroot(n + 1, 3)) == (t - 1, t, t)
    assert iroot(10**90 + 12345, 3) == 10**30
    for n in (10**400 - 1, 10**90 + 12345):
        for k in (2, 3, 5):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    assert iroot(10**400 - 1, 2) == math.isqrt(10**400 - 1)
    assert [iroot(n, 3) for n in range(9)] == [0, 1, 1, 1, 1, 1, 1, 1, 2]


def test_count_table_rejects_decreasing_counts(monkeypatch):
    counts = iter([30, 20])
    monkeypatch.setattr(census, "enumerate_points", lambda *a, **k: next(counts))
    with pytest.raises(NumericError):
        count_table(get_model("E1"), R, [10, 100], with_volume=False)


def test_threads_bit_identical():
    m = get_model("E5")
    vals = {enumerate_points(m, R, 10**5, threads=t) for t in (1, 4, 8)}
    assert len(vals) == 1
    m3 = get_model("E3")
    vals3 = {enumerate_points(m3, S5, 10**4, threads=t) for t in (1, 4)}
    assert len(vals3) == 1


# ---------------------------------------------------------------------------
# volumes


def test_volume_closed_forms():
    assert volume_V(get_model("E1"), R, 1000) == pytest.approx(2000.0)
    assert volume_V(get_model("E3"), R, 1000) == pytest.approx(4000.0)
    B = 10**4
    assert volume_V(get_model("E5"), R, B) == pytest.approx(4 * B + 4 * B * math.log(B))
    assert volume_V(get_model("E5"), R, 1) == pytest.approx(4.0)
    assert volume_V(get_model("E2"), R, B) == pytest.approx(12 * B / math.pi**2, rel=2e-3)
    # E4 volume has the predicted leading term 24/pi^2 B log B
    B = 10**8
    lead = volume_V(get_model("E4"), R, B) / (B * math.log(B))
    assert abs(lead - 24 / math.pi**2) < 0.2


def test_volume_pinned():
    """Bit-exact volumes, pinned from the per-denominator trial-factoring
    code that the sieves replaced (float() drops numpy's repr of E4)."""
    S23 = _places((2, 3))
    pins = {"E1": "110333333.33333352", "E3": "116333333.33333306", "E4": "881635190.8738917",
            "E5": "14245346672.314922"}
    for mid, want in pins.items():
        assert repr(float(volume_V(get_model(mid), S23, 10**6))) == want, mid
    assert repr(volume_V(get_model("E6"), R, 10**12)) == "3327353732328.02"


def test_volume_is_python_float():
    for mid in ("E1", "E2", "E3", "E4", "E5", "E6"):
        assert type(volume_V(get_model(mid), R, 10**6)) is float, mid


def test_jordan_upto():
    # checksums of the phi sieve that _jordan_upto(n, 1) replaced
    phi = census._jordan_upto(10**5, 1)
    assert phi[:12].tolist() == [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10]
    assert int(phi.sum()) == 3039650754
    assert int((phi * np.arange(10**5 + 1)).sum()) == 202643891472849
    n = 2 * 10**4
    for k in (1, 2):
        J = census._jordan_upto(n, k).tolist()
        assert J[0] == 0
        for m in range(1, n + 1):  # J_k(m) = m^k prod_{p | m} (1 - p^-k)
            ps = list(prime_factors(m))
            assert J[m] * math.prod(p**k for p in ps) == m**k * math.prod(p**k - 1 for p in ps), (k, m)
        # and sum_{d | m} J_k(d) = m^k
        acc = np.zeros(n + 1, dtype=np.int64)
        for d in range(1, n + 1):
            acc[d::d] += J[d]
        assert acc[1:].tolist() == [m**k for m in range(1, n + 1)]


def _jordan_loop(n, k):
    """J_k(0..n) by the sieve with the rest divisions that _jordan_upto
    replaced, kept as its reference."""
    J = np.arange(n + 1, dtype=np.int64) ** k
    rest = np.arange(n + 1, dtype=np.int64)
    for p in census.primes_upto(math.isqrt(n)):
        J[p::p] -= J[p::p] // p**k
        pk = p
        while pk <= n:
            rest[pk::pk] //= p
            pk *= p
    big = rest > 1
    J[big] -= J[big] // rest[big] ** k
    return J


def test_jordan_upto_matches_division_sieve():
    rng = np.random.default_rng(3)
    ns = [*range(0, 60), *rng.integers(60, 10**5, 8).tolist(), 2**17, 10**6]
    for k in (1, 2, 3):
        for n in ns:
            assert np.array_equal(census._jordan_upto(n, k), _jordan_loop(n, k)), (n, k)


def _fresh_tables(monkeypatch):
    """Empty the process's J_k and kept-block tables for one test; the
    tables the test fills are dropped at its end."""
    for table in (census._jordan_upto, census._kept_table):
        monkeypatch.setattr(table, "tables", {})


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_prefix_tables_equal_fresh_computation(monkeypatch, order):
    """A J_k or kept-block table is a prefix of the one table per k that the
    process keeps; it equals a fresh sieve and a fresh cumulative count
    whatever sizes were asked for before it."""
    ns = [1, 7, 60, 299, 4096, 20_000]
    ns = {"ascending": ns, "descending": ns[::-1], "interleaved": [299, 7, 4096, 1, 20_000, 60]}[order]
    _fresh_tables(monkeypatch)
    for n in ns:
        for k in (1, 2, 3):
            assert np.array_equal(census._jordan_upto(n, k), _jordan_loop(n, k)), (order, n, k)
            P = census._kept_table(n, k)
            assert np.array_equal(P, census._kept_table.build(n, k)), (order, n, k)
            f = lambda t, k=k: t * (2 * t + 1) ** k
            for h in {n, n // 2, n // 3, math.isqrt(n)} - {0}:
                assert P[h] == _mobius_sum_loop(h, f), (order, n, k, h)
    assert [len(t) for t in census._jordan_upto.tables.values()] == [20_001] * 3


def test_tables_are_read_only():
    for table in (census._jordan_upto(50, 2), census._kept_table(50, 1)):
        with pytest.raises(ValueError):
            table[3] = 0


def test_count_unchanged_by_volume_tables(monkeypatch):
    """A volume fills the J_k tables that a count may then read its kept
    blocks from; for every model the count after the volume equals the one
    before it, with empty tables.  E6 at 3333333333333333333 with J_1 and
    J_2 held is past the int64 bound T (2T + 1)^2 < 2^63 of a table read,
    which would wrap there, so it keeps the recursion; E2 and E4 are taken
    at their budget tops, where E2 reads its count off the table."""
    big = 3_333_333_333_333_333_333
    T6 = census.iroot(big, 3)
    assert T6 * (2 * T6 + 1) ** 2 >= 2**63
    cases = [(mid, 10**6) for mid in ("E1", "E2", "E3", "E4", "E5", "E6")]
    cases += [("E6", big), ("E2", _budget_top(get_model("E2"), R)), ("E4", _budget_top(get_model("E4"), R))]
    for mid, B in cases:
        _fresh_tables(monkeypatch)
        model = get_model(mid)
        before = enumerate_points(model, R, B)
        volume_V(model, R, B)
        if mid == "E6":
            census._jordan_upto(census.iroot(B, 3), 1)
        assert enumerate_points(model, R, B) == before, (mid, B)
        if mid == "E2" and B > 10**6:  # it read the count off the table
            assert census._kept_table.reaches(census.iroot(B, 2), 1)


def _volume_loop(mid, S, B):
    """volume_V of E4 or E6 by the Python loops that the numpy terms
    replaced, kept as their reference."""
    Bf, n = float(B), math.floor(B)
    if mid == "E6":
        T = census.iroot(n, 3)
        J2 = _jordan_loop(T, 2).tolist()
        total = 0.0
        for d in range(1, T + 1):
            t = Bf ** (1.0 / 3.0) / d
            if t >= 1.0:
                total += J2[d] * 4.0 * t * t
        return total
    denoms = [(e, e // math.prod(supp) * math.prod(p - 1 for p in supp))
              for e, supp in census._s_power_denoms(census._sf_primes(S), n)]
    total = 0.0
    T = int(math.sqrt(Bf))
    phis = _jordan_loop(T, 1)[1:].astype(float).tolist()
    for e, phi in denoms:
        for d in range(1, T + 1):
            Teff = Bf / (d * d * e)
            if Teff < 1.0:
                break
            total += phis[d - 1] * phi * (8.0 * Teff - 4.0 * math.sqrt(Teff))
    return total


def test_volume_E4_E6_match_loops():
    """The numpy volumes of E4 and E6 equal the Python loops by repr: seeded
    B up to each budget limit, powers of ten, perfect cubes (where E6's
    float test drops the term d = cbrt B) and fractional B."""
    rng = np.random.default_rng(11)
    for mid in ("E4", "E6"):
        m = get_model(mid)
        for primes in ((), (5,), (2, 3)):
            S = _places(primes)
            top = min(_budget_top(m, S), 10**16)  # E6's top, at 2.5e19, is below
            Bs = {top, 1, 2, 8, *(10**j for j in range(1, 17) if 10**j <= top)}
            Bs |= {c**3 for c in (2, 3, 10, 21, 100, 215, 1000, 4641, 10**4, 10**5) if c**3 <= top}
            Bs |= {round(math.exp(x)) for x in rng.uniform(0, math.log(top), 12)}
            Bs |= {F(int(x), 7) for x in rng.integers(7, 7 * min(top, 10**9), 3)}
            for B in sorted(Bs):
                assert repr(volume_V(m, S, B)) == repr(_volume_loop(mid, S, B)), (mid, primes, B)
    E6top = _budget_top(get_model("E6"), R)
    for B in (E6top, census.iroot(E6top, 3) ** 3):
        assert repr(volume_V(get_model("E6"), R, B)) == repr(_volume_loop("E6", R, B)), B


def test_volume_E1_finite_place():
    B = 10**4
    K = int(math.log(B) / math.log(5))
    assert volume_V(get_model("E1"), S5, B) == pytest.approx(2 * B * (1 + 0.8 * K))


def test_N_over_V():
    for mid in ("E1", "E3"):
        m = get_model(mid)
        tb = count_table(m, R, [10**k for k in range(2, 6)])
        devs = [abs(r["N"] / r["V"] - 1) for r in tb.rows]
        assert devs[-1] <= 0.05
        assert devs[-1] <= devs[0]


# ---------------------------------------------------------------------------
# fits


def test_fit_E1():
    tb = count_table(get_model("E1"), R, [10 ** (k / 2) for k in range(4, 13)])
    fit = fit_asymptotic(tb, 1)
    assert abs(fit.theta_hat - 2.0) < 0.02
    assert fit.theta_hat > 0


def test_fit_E5():
    tb = count_table(get_model("E5"), R, [10 ** (k / 2) for k in range(4, 13)])
    fit = fit_asymptotic(tb, 2)
    assert abs(fit.theta_hat - 4.0) < 0.4
    assert fit.secondary is not None


def test_fit_needs_rows():
    tb = count_table(get_model("E1"), R, [10, 100, 1000])
    with pytest.raises(ConfigError):
        fit_asymptotic(tb, 1)


def test_fit_model_comparison_E1_S5():
    tb = count_table(get_model("E1"), S5, [10 ** (k / 2) for k in range(4, 13)])
    assert fit_residual_rms(tb, 1) >= 5.0 * fit_residual_rms(tb, 2)


# ---------------------------------------------------------------------------
# Poisson and equidistribution


def test_poisson_trivial_character_only():
    chk = poisson_crosscheck(get_model("E1"), 3.0, 0, height_cutoff=200_000)
    assert chk.rhs == pytest.approx(3.0, abs=1e-9)
    assert chk.lhs == pytest.approx(1 + 2 * float(riemann_zeta(3.0)), abs=1e-8)
    assert chk.gap == pytest.approx(2 * float(riemann_zeta(3.0)) - 2, abs=1e-8)


def test_poisson_E1():
    chk = poisson_crosscheck(get_model("E1"), 3.0, 60)
    assert chk.gap < 2e-3 * chk.lhs


def test_poisson_E2():
    chk = poisson_crosscheck(get_model("E2"), 1.5, 40)
    assert chk.gap < 1e-2 * chk.lhs


def test_equidistribution_small():
    rows = equidistribution_test(get_model("E3"), R, 10**4)
    for r in rows:
        assert abs(r["empirical"] - r["predicted"]) < 0.02
    rows5 = equidistribution_test(get_model("E5"), R, 10**4)
    assert abs(rows5[0]["empirical"] - 0.5) < 0.02
    rows1 = equidistribution_test(get_model("E1"), R, 10**4)
    assert abs(rows1[0]["empirical"] - 0.5) < 0.001


def test_region_count_E5_brute():
    m = get_model("E5")
    for B in [*range(1, 61), F(121, 2)]:
        n = math.floor(B)
        brute = sum(
            1
            for x in range(-n, n + 1)
            for y in range(-n, n + 1)
            if abs(x) <= abs(y) and max(1, abs(x)) * max(1, abs(y)) <= B
        )
        assert equidistribution_test(m, R, B)[0]["count"] == brute


def test_count_sintegers_helper():
    assert count_sintegers(F(10), []) == 21
    # with p = 5: x = m/5^k, height max(5^k, |m|)
    assert count_sintegers(F(10), [5]) == 21 + 2 * (10 - 2)  # k=1: |m|<=10, 5 coprime

import random
from fractions import Fraction

import pytest

from heightzeta.catalog import MODELS, get_model, places_from_spec
from heightzeta.errors import ConfigError
from heightzeta.localfield import Place, is_prime

F = Fraction
R = Place.real()


def test_local_height_examples():
    e1 = get_model("E1")
    assert e1.local_height(Place.finite(2), "inf", F(3, 2)) == F(1, 2)
    assert e1.local_height(R, "inf", F(0)) == 1
    assert get_model("E3").local_height(R, "H", (F(3), F(-4))) == F(1, 4)


def test_height_examples():
    assert get_model("E1").height_base(F(7)) == 7
    assert get_model("E3").height_base((F(3), F(-4))) == 16  # max(1,3,4)^2
    assert get_model("E2").height_base(F(2, 3)) == 9
    assert get_model("E4").height_base((F(1, 2), F(3))) == 12  # max(1,2)^2 * 3
    assert get_model("E1").height(F(7), 2) == pytest.approx(49.0)


def test_height_at_least_one():
    rng = random.Random(3)
    for mid in MODELS:
        m = get_model(mid)
        for _ in range(50):
            x = tuple(F(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(m.dim))
            assert m.height_base(x) >= 1


def test_is_integral_examples():
    e1 = get_model("E1")
    assert not e1.is_integral(Place.finite(5), F(1, 5))
    assert e1.is_integral(Place.finite(5), F(1, 3))
    e4 = get_model("E4")
    assert e4.is_integral(Place.finite(3), (F(1, 3), F(2)))  # x is unrestricted
    assert not e4.is_integral(Place.finite(3), (F(1), F(2, 3)))


def test_stratum_partition():
    totals = {"E1": lambda q: q + 1, "E2": lambda q: q + 1,
              "E3": lambda q: q * q + q + 1, "E6": lambda q: q * q + q + 1,
              "E4": lambda q: (q + 1) ** 2, "E5": lambda q: (q + 1) ** 2}
    for mid, tot in totals.items():
        m = get_model(mid)
        for q in (2, 3, 5, 7, 11):
            s = m.stratum_counts(q, frozenset()) + sum(
                m.stratum_counts(q, A) for A in m.incidence_faces()
            )
            assert s == tot(q), (mid, q)


def test_stratum_examples():
    assert get_model("E1").stratum_counts(7, {"inf"}) == 1
    assert get_model("E5").stratum_counts(7, {"Dx", "Dy"}) == 1
    assert get_model("E3").stratum_counts(7, {"H"}) == 8


def test_product_formula_consistency():
    # the height over {real} + primes of the denominators is unchanged by
    # throwing in 50 extra primes: their factors are exactly 1
    rng = random.Random(17)
    extra = [p for p in range(2, 300) if is_prime(p)][:50]
    for _ in range(500):
        mid = rng.choice(list(MODELS))
        m = get_model(mid)
        x = tuple(F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(m.dim))
        base = m.height_base(x)
        for p in extra:
            den_primes = set()
            for c in x:
                d = c.denominator
                while d % p == 0:
                    den_primes.add(p)
                    d //= p
            if p in den_primes:
                continue  # already accounted for
            for alpha in m.divisors.labels:
                assert m.local_height(Place.finite(p), alpha, x) == 1
        assert base >= 1


def test_delta_height_link():
    rng = random.Random(23)
    for _ in range(200):
        mid = rng.choice(list(MODELS))
        m = get_model(mid)
        x = tuple(F(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(m.dim))
        primes = set()
        for c in x:
            d = c.denominator
            f = 2
            while f * f <= d:
                if d % f == 0:
                    primes.add(f)
                    while d % f == 0:
                        d //= f
                f += 1
            if d > 1:
                primes.add(d)
        all_integral = all(m.is_integral(Place.finite(p), x) for p in primes)
        finite_boundary_product = F(1)
        for p in primes:
            for alpha in m.divisors.removed:
                finite_boundary_product *= m.local_height(Place.finite(p), alpha, x)
        assert all_integral == (finite_boundary_product == 1)


def test_northcott_desk_scale():
    # finitely many E1 points of height <= 30, found by direct scan
    m = get_model("E1")
    pts = [x for x in range(-40, 41) if m.height_base(F(x)) <= 30]
    assert len(pts) == 61


def test_places_from_spec():
    S = places_from_spec(["inf", 5])
    assert S[0].kind == "real" and S[1].prime == 5
    with pytest.raises(ConfigError):
        places_from_spec([5])
    # any prime may join S, under every name of the real place
    assert places_from_spec(["real", 11, "13"]) == [R, Place.finite(11), Place.finite(13)]
    assert places_from_spec(["oo", "2", 101]) == [R, Place.finite(2), Place.finite(101)]
    # not a prime, not a place, and the complex place, which Q does not have
    for bad in (["inf", 4], ["inf", "x"], ["inf", "complex"], ["inf", "C"], ["inf", Place.complex_()]):
        with pytest.raises(ConfigError):
            places_from_spec(bad)


def test_place_parse():
    assert [Place.parse(t) for t in ("real", "inf", "oo")] == [R] * 3
    assert [Place.parse(t) for t in ("complex", "C")] == [Place.complex_()] * 2
    assert Place.parse("13") == Place.parse(13) == Place.finite(13)
    for bad in ("4", "1", "0", "-3", "x", "", "5.0", "Inf"):
        with pytest.raises(ConfigError):
            Place.parse(bad)


def test_describe():
    d = get_model("E4").describe()
    assert d["lambda"] == {"Dx": 2, "Dy": 1}
    assert d["removed"] == ["Dy"]


# Per-model reference data written out by hand, independent of the
# coordinate blocks the catalog derives it from.
_PARENT_COUNTS = {
    "E1": {(): lambda q: q, ("inf",): lambda q: 1},
    "E2": {(): lambda q: q, ("inf",): lambda q: 1},
    "E3": {(): lambda q: q * q, ("H",): lambda q: q + 1},
    "E4": {(): lambda q: q * q, ("Dx",): lambda q: q, ("Dy",): lambda q: q, ("Dx", "Dy"): lambda q: 1},
    "E5": {(): lambda q: q * q, ("Dx",): lambda q: q, ("Dy",): lambda q: q, ("Dx", "Dy"): lambda q: 1},
    "E6": {(): lambda q: q * q, ("H",): lambda q: q + 1},
}
_PARENT_ARCH = {
    "E1": lambda s: 2.0 + 2.0 / (s - 1.0),
    "E2": lambda s: 2.0 + 2.0 / (2.0 * s - 1.0),
    "E3": lambda s: 4.0 + 4.0 / (s - 1.0),
    "E4": lambda s: (2.0 + 2.0 / (2.0 * s - 1.0)) * (2.0 + 2.0 / (s - 1.0)),
    "E5": lambda s: (2.0 + 2.0 / (s - 1.0)) ** 2,
    "E6": lambda s: 4.0 + 8.0 / (3.0 * s - 2.0),
}
_PARENT_EXPONENTS = {
    "E1": lambda s: [s],
    "E2": lambda s: [2.0 * s],
    "E4": lambda s: [2.0 * s, s],
    "E5": lambda s: [s, s],
}
_ONE = (F(1),)
_PARENT_STRATA = {
    "E1": [("inf=1", {"inf": 1}, _ONE, lambda a: any(t != 0 for t in a))],
    "E2": [("inf=1", {"inf": 1}, _ONE, lambda a: any(t != 0 for t in a))],
    "E3": [("H=1", {"H": 1}, _ONE * 2, lambda a: any(t != 0 for t in a))],
    "E6": [("H=1", {"H": 1}, _ONE * 2, lambda a: any(t != 0 for t in a))],
    "E4": [
        ("a1!=0,a2!=0", {"Dx": 1, "Dy": 1}, (F(1), F(1)), lambda a: a[0] != 0 and a[1] != 0),
        ("a1!=0,a2=0", {"Dx": 1, "Dy": 0}, (F(1), F(0)), lambda a: a[0] != 0 and a[1] == 0),
        ("a1=0,a2!=0", {"Dx": 0, "Dy": 1}, (F(0), F(1)), lambda a: a[0] == 0 and a[1] != 0),
    ],
}
_PARENT_STRATA["E5"] = _PARENT_STRATA["E4"]


def _parent_describe(mid, dim, labels, rho, lam, removed, faces):
    strata = [st[0] for st in _PARENT_STRATA[mid]]
    return {"id": mid, "dim": dim, "labels": labels, "rho": rho, "lambda": lam, "removed": removed,
            "boundary_strata": faces, "character_strata": strata}


_PARENT_DESCRIBE = {
    "E1": _parent_describe("E1", 1, ["inf"], {"inf": 2}, {"inf": 1}, ["inf"], [["inf"]]),
    "E2": _parent_describe("E2", 1, ["inf"], {"inf": 2}, {"inf": 2}, [], [["inf"]]),
    "E3": _parent_describe("E3", 2, ["H"], {"H": 3}, {"H": 2}, ["H"], [["H"]]),
    "E4": _parent_describe("E4", 2, ["Dx", "Dy"], {"Dx": 2, "Dy": 2}, {"Dx": 2, "Dy": 1}, ["Dy"],
                           [["Dx"], ["Dx", "Dy"], ["Dy"]]),
    "E5": _parent_describe("E5", 2, ["Dx", "Dy"], {"Dx": 2, "Dy": 2}, {"Dx": 1, "Dy": 1}, ["Dx", "Dy"],
                           [["Dx"], ["Dx", "Dy"], ["Dy"]]),
    "E6": _parent_describe("E6", 2, ["H"], {"H": 3}, {"H": 3}, [], [["H"]]),
}


def test_catalog_pinned_to_parent():
    import itertools

    import numpy as np

    from heightzeta.density import arch_density

    assert sorted(MODELS) == sorted(_PARENT_DESCRIBE)
    qs = np.array([2, 3, 5, 7, 11, 101, 7919])
    grid = [F(t) for t in (-2, -1, 0, 1, 3)] + [F(1, 2)]
    for mid, m in MODELS.items():
        assert m.describe() == _PARENT_DESCRIBE[mid]
        # stratum counts: the faces in the parent's order, the counts on
        # scalars and on arrays, 0 off the faces
        counts = _PARENT_COUNTS[mid]
        assert m.incidence_faces() == [frozenset(A) for A in counts if A]
        labels = m.divisors.labels
        for r in range(len(labels) + 2):
            for A in itertools.combinations(labels + ("nope",), r):
                want = counts.get(A, lambda q: 0)
                for q in qs.tolist():
                    assert m.stratum_counts(q, frozenset(A)) == want(q), (mid, A, q)
                assert np.array_equal(np.broadcast_to(m.stratum_counts(qs, frozenset(A)), qs.shape),
                                      np.broadcast_to(want(qs), qs.shape)), (mid, A)
        # character strata: label, pattern, representative and membership
        got = [(st.label, st.pattern, st.representative) for st in m.strata()]
        assert got == [st[:3] for st in _PARENT_STRATA[mid]]
        for st, ref in zip(m.strata(), _PARENT_STRATA[mid]):
            for a in itertools.product(grid, repeat=m.dim):
                assert st.contains(a) == ref[3](a), (mid, st.label, a)
        # the archimedean transform at a = 0 is the closed form, exactly
        for s0 in (1.05, 1.5, 2.0, 2.75, 7.0, 1.4 + 0.5j, 2.0 + 1.0j, 1.1 - 3.0j):
            s = complex(s0)
            assert arch_density(m, 0, s0) == _PARENT_ARCH[mid](s), (mid, s0)
            if mid in _PARENT_EXPONENTS:
                assert [m.divisors.lam(alpha) * s for alpha in labels] == _PARENT_EXPONENTS[mid](s)

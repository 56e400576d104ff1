import itertools
import random
from fractions import Fraction

import pytest

from heightzeta.boundary import (
    DivisorScheme,
    character_strata,
    clemens_complex,
    divisor_coefficients,
    ep_rank,
    exponent_b,
    pole_orders,
)
from heightzeta.catalog import MODELS, get_model
from heightzeta.errors import NumericError
from heightzeta.localfield import Place

F = Fraction
R = Place.real()

ALL_S = [
    [R] + [Place.finite(p) for p in combo]
    for r in range(4)
    for combo in itertools.combinations([2, 3, 5], r)
]


def test_divisor_scheme_validation():
    with pytest.raises(ValueError):
        DivisorScheme(("a",), (1,), frozenset())
    ds = DivisorScheme(("a", "b"), (3, 2), frozenset({"b"}))
    assert ds.lam("a") == 3 and ds.lam("b") == 1
    assert ds.kept == ("a",)


def test_clemens_examples():
    cc = clemens_complex(get_model("E3"), R, True)
    assert cc.dimension == 0 and cc.faces() == [frozenset({"H"})]
    cc5 = clemens_complex(get_model("E5"), R, True)
    assert set(cc5.faces()) == {frozenset({"Dx"}), frozenset({"Dy"}), frozenset({"Dx", "Dy"})}
    assert cc5.dimension == 1
    ccp = clemens_complex(get_model("E1"), Place.finite(5), True)
    assert ccp.dimension == 0
    # empty complexes for the nothing-removed models
    assert clemens_complex(get_model("E2"), R, True).dimension == -1
    # unrestricted complex of E4 sees both rulings
    cc4 = clemens_complex(get_model("E4"), R, False)
    assert cc4.dimension == 1


def test_downward_closure():
    for mid in MODELS:
        for place in [R, Place.finite(3)]:
            cc = clemens_complex(get_model(mid), place, False)
            faces = set(cc.faces())
            for A in faces:
                for r in range(1, len(A)):
                    for sub in itertools.combinations(sorted(A), r):
                        assert frozenset(sub) in faces


def test_ep_rank():
    assert ep_rank(get_model("E3")) == 0
    assert ep_rank(get_model("E4")) == 1
    assert ep_rank(get_model("E2")) == 1
    assert ep_rank(get_model("E6")) == 1
    assert ep_rank(get_model("E5")) == 0


def test_exponent_b_examples():
    assert exponent_b(get_model("E1"), [R]) == 1
    assert exponent_b(get_model("E5"), [R]) == 2
    assert exponent_b(get_model("E1"), [R, Place.finite(5)]) == 2
    assert exponent_b(get_model("E4"), [R]) == 2
    assert exponent_b(get_model("E2"), [R]) == 1
    with pytest.raises(ValueError):
        exponent_b(get_model("E1"), [Place.finite(5)])
    # S is a set: a repeated place would count its simplex twice
    for S in ([R, Place.finite(5), Place.finite(5)], [R, R]):
        with pytest.raises(ValueError, match="repeats"):
            exponent_b(get_model("E1"), S)
        with pytest.raises(ValueError, match="repeats"):
            pole_orders(get_model("E1"), S, 0)


def test_exponent_b_additivity():
    for mid in MODELS:
        m = get_model(mid)
        for p in (2, 3, 5):
            v = Place.finite(p)
            dim = clemens_complex(m, v, True).dimension
            expected_step = (1 + dim) if dim >= 0 else 0
            assert exponent_b(m, [R, v]) - exponent_b(m, [R]) == expected_step


def test_pole_orders_examples():
    assert pole_orders(get_model("E3"), [R], 0) == (1, 1)
    b0, ba = pole_orders(get_model("E5"), [R], (F(1), F(0)))
    assert b0 == 2 and ba == 1
    b0, ba = pole_orders(get_model("E5"), [R], (F(1), F(1)))
    assert b0 == 2 and ba == 0


def test_pole_order_domination_failure_is_numeric(monkeypatch):
    # a form with no pole anywhere would break b_a < b_0: a NumericError
    # (exit 4), not a bare AssertionError
    from heightzeta import boundary

    monkeypatch.setattr(boundary, "divisor_coefficients", lambda model, a: {alpha: 0 for alpha in model.norm_coords})
    with pytest.raises(NumericError, match="domination"):
        pole_orders(get_model("E5"), [R], (F(1), F(0)))


def test_pole_order_domination_exhaustive():
    for mid in MODELS:
        m = get_model(mid)
        for S in ALL_S:
            for st in character_strata(m):
                b0, ba = pole_orders(m, S, st.representative)
                assert ba < b0, (mid, [str(v) for v in S], st.label)


def test_b0_equals_exponent_b():
    for mid in MODELS:
        m = get_model(mid)
        for S in ALL_S:
            assert pole_orders(m, S, 0)[0] == exponent_b(m, S)


def test_divisor_coefficients_examples():
    assert divisor_coefficients(get_model("E3"), (F(1), F(1))) == {"H": 1}
    assert divisor_coefficients(get_model("E4"), (F(1), F(0))) == {"Dx": 1, "Dy": 0}
    assert divisor_coefficients(get_model("E1"), F(1)) == {"inf": 1}
    assert divisor_coefficients(get_model("E5"), (F(0), F(-2))) == {"Dx": 0, "Dy": 1}
    assert divisor_coefficients(get_model("E5"), (F(1, 3), F(5))) == {"Dx": 1, "Dy": 1}
    assert divisor_coefficients(get_model("E6"), (F(0), F(1, 2))) == {"H": 1}
    with pytest.raises(ValueError):
        divisor_coefficients(get_model("E1"), 0)


def test_divisor_coefficients_homogeneity():
    rng = random.Random(11)
    for mid in MODELS:
        m = get_model(mid)
        for _ in range(30):
            a = tuple(F(rng.randint(-9, 9)) for _ in range(m.dim))
            if all(t == 0 for t in a):
                continue
            t = F(rng.randint(1, 40), rng.randint(1, 40))
            assert divisor_coefficients(m, a) == divisor_coefficients(m, tuple(t * x for x in a))


def test_character_strata_partition():
    rng = random.Random(5)
    for mid, n_strata in [("E1", 1), ("E2", 1), ("E3", 1), ("E6", 1), ("E4", 3), ("E5", 3)]:
        m = get_model(mid)
        strata = character_strata(m)
        assert len(strata) == n_strata
        for _ in range(40):
            a = tuple(F(rng.randint(-5, 5)) for _ in range(m.dim))
            if all(t == 0 for t in a):
                continue
            hits = [st for st in strata if st.contains(a)]
            assert len(hits) == 1
            assert hits[0].pattern == divisor_coefficients(m, a)


# (b_0, b_a) per character stratum, in the order of character_strata, by the
# number of finite places in S
_PARENT_POLE_ORDERS = {
    "E1": [[(k, 0)] for k in (1, 2, 3, 4, 5)],
    "E2": [[(1, 0)]] * 5,
    "E3": [[(k, 0)] for k in (1, 2, 3, 4, 5)],
    "E4": [[(k, 0), (k, k - 1), (k, 1)] for k in (2, 3, 4, 5, 6)],
    "E5": [[(2 * k, 0), (2 * k, k), (2 * k, k)] for k in (1, 2, 3, 4, 5)],
    "E6": [[(1, 0)]] * 5,
}
_XY = [["Dx"], ["Dy"], ["Dx", "Dy"]]
# faces of the Clemens complex with restrict_to_removed True and False, the
# same at every place
_PARENT_CLEMENS = {
    "E1": ([["inf"]], [["inf"]]),
    "E2": ([], [["inf"]]),
    "E3": ([["H"]], [["H"]]),
    "E4": ([["Dy"]], _XY),
    "E5": (_XY, _XY),
    "E6": ([], [["H"]]),
}
# tau_max_boundary at R, Q_2, Q_3, Q_5, Q_7
_PARENT_TAU_MAX = {
    "E1": [2.0, 0.7213475204444817, 0.6068261510845583, 0.4970679476476895, 0.4404842934597864],
    "E3": [4.0, 0.5410106403333612, 0.4045507673897054, 0.2982407685886137, 0.25170531054844936],
    "E4": [8.0, 1.0820212806667224, 0.8091015347794108, 0.5964815371772274, 0.5034106210968987],
    "E5": [4.0, 0.5203422452514019, 0.36823797764009913, 0.24707654457868622, 0.19402641278476723],
}


def test_boundary_pinned_to_parent():
    from heightzeta.density import tau_max_boundary

    places = [R] + [Place.finite(p) for p in (2, 3, 5, 7)]
    assert sorted(MODELS) == sorted(_PARENT_POLE_ORDERS)
    for mid, m in MODELS.items():
        for r in range(5):
            for T in itertools.combinations((2, 3, 5, 7), r):
                S = [R] + [Place.finite(p) for p in T]
                got = [pole_orders(m, S, st.representative) for st in character_strata(m)]
                assert got == _PARENT_POLE_ORDERS[mid][r], (mid, T)
                assert exponent_b(m, S) == got[0][0], (mid, T)
        for v in places:
            for flag, want in zip((True, False), _PARENT_CLEMENS[mid]):
                cc = clemens_complex(m, v, flag)
                assert [sorted(A) for A in cc.faces()] == want, (mid, str(v), flag)
                assert cc.dimension == max(map(len, want), default=0) - 1
        if mid in _PARENT_TAU_MAX:
            assert [tau_max_boundary(m, v) for v in places] == _PARENT_TAU_MAX[mid], mid

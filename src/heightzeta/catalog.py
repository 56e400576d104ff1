"""The model catalog: explicit compactifications of G_a^n over Q with
max-metric local heights, integrality tests, finite-field stratum counts,
incidence data and character strata.

Entries (all with the obvious Z-models, good reduction everywhere):

  E1  P^1  minus the point at infinity          lambda = (1)
  E2  P^1, nothing removed (rational points)    lambda = (2)
  E3  P^2  minus the line at infinity           lambda = (2)
  E4  P^1 x P^1 minus one ruling {y = inf}      lambda = (2, 1)
  E5  P^1 x P^1 minus both rulings              lambda = (1, 1)
  E6  P^2, nothing removed                      lambda = (3)

Metrics are max-metrics at every place, so local heights are exact
rationals.  An optional smoothed archimedean metric (``smoothing_k``) is
provided for sensitivity experiments; it changes only ``local_height`` and
``height``.  Counts and ``arch_density`` do not read it: they always use
the max-metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .boundary import CharacterStratum, DivisorScheme
from .errors import ConfigError
from .localfield import Place, abs_value, prime_factors

Coords = tuple[Fraction, ...]


def _max_norm(place: Place, vals: Sequence[Fraction]) -> Fraction:
    """max(1, |v_1|, ..., |v_k|) at the place, exact."""
    best = Fraction(1)
    for v in vals:
        if v == 0:
            continue
        a = abs_value(v, place)
        if a > best:
            best = a
    return best


@dataclass
class CompactificationModel:
    id: str
    dim: int
    divisors: DivisorScheme
    # label -> indices of the coordinates entering the max-norm of 1/||f||
    norm_coords: dict
    _stratum_counts: dict  # frozenset -> callable q -> count
    _strata: list
    arch_closed_form: Callable | None = None
    arch_exponents: Callable | None = None  # s0 -> per-coordinate exponents, separable models
    smoothing_k: int | None = None  # optional smoothed archimedean metric

    # -- local heights -------------------------------------------------

    def local_height(self, place: Place, alpha: str, x) -> Fraction | float:
        """||f_alpha||_v(x) <= 1; exact rational except under the smoothed
        archimedean metric option."""
        x = self._coords(x)
        vals = [x[i] for i in self.norm_coords[alpha]]
        if self.smoothing_k and place.is_archimedean:
            k = self.smoothing_k
            return (1.0 + sum(float(v) ** (2 * k) for v in vals)) ** (-1.0 / (2 * k))
        return Fraction(1) / _max_norm(place, vals)

    def height_base(self, x) -> Fraction:
        """H(x; lambda) as an exact rational: the product over all places
        and components of ||f_alpha||^{-lambda_alpha}.  Only the real place
        and the primes dividing a denominator contribute."""
        x = self._coords(x)
        primes = set()
        for c in x:
            primes.update(prime_factors(c.denominator))
        places = [Place.real()] + [Place.finite(p) for p in sorted(primes)]
        h = Fraction(1)
        for alpha in self.divisors.labels:
            lam = self.divisors.lam(alpha)
            for v in places:
                h *= (Fraction(1) / self.local_height(v, alpha, x)) ** lam
        return h

    def height(self, x, s=1) -> float:
        """H(x; s*lambda) = H(x; lambda)^s."""
        return float(self.height_base(x)) ** float(s)

    def is_integral(self, place: Place, x) -> bool:
        """delta_v(x): the reduction misses every removed component, i.e.
        ||f_alpha||_v(x) = 1 for all removed alpha."""
        if not place.is_finite:
            raise ValueError("integrality is tested at finite places")
        x = self._coords(x)
        return all(self.local_height(place, alpha, x) == 1 for alpha in self.divisors.removed)

    def _coords(self, x) -> Coords:
        if isinstance(x, (tuple, list)):
            t = tuple(Fraction(c) for c in x)
        else:
            t = (Fraction(x),)
        if len(t) != self.dim:
            raise ValueError(f"{self.id} expects {self.dim} coordinates")
        return t

    # -- combinatorics and finite-field data ----------------------------

    def incidence_faces(self) -> list[frozenset]:
        return [A for A in self._stratum_counts if A]

    def has_rational_points(self, A: frozenset, place: Place) -> bool:
        # every nonempty catalog stratum is a point or a projective line
        # with an obvious rational point, over every completion
        return frozenset(A) in self._stratum_counts

    def stratum_counts(self, q: int, A) -> int:
        """#D_A^0(F_q) for the locally closed stratum indexed by A."""
        fn = self._stratum_counts.get(frozenset(A))
        return fn(q) if fn else 0

    def coefficient_pattern(self, a: Coords) -> dict:
        """d_alpha(a) for nonzero a: the form <a, .> has a simple pole along
        D_alpha exactly when it involves a coordinate of the norm of
        f_alpha, and no pole otherwise."""
        return {alpha: int(any(a[i] != 0 for i in idx)) for alpha, idx in self.norm_coords.items()}

    def strata(self) -> list[CharacterStratum]:
        return list(self._strata)

    # -- boundary residue charts (for the boundary term of the constant) --

    def boundary_charts(self):
        """Maximal faces of the removed-components complex together with
        the residual chart density exponent: ``None`` for a point stratum,
        an integer e for a line stratum with density max(1,|w|)^{-e}.  In
        the catalog the removed components meet in one stratum: a point
        when there are dim of them, else a P^1, whose residue density is
        max(1,|w|)^{-2} by adjunction."""
        removed = self.divisors.removed
        if not removed:
            raise ConfigError(f"{self.id} removes nothing; no boundary measure")
        return [(removed, None if len(removed) == self.dim else 2)]

    def describe(self) -> dict:
        div = self.divisors
        return {
            "id": self.id,
            "dim": self.dim,
            "labels": list(div.labels),
            "rho": {a: div.rho_of(a) for a in div.labels},
            "lambda": {a: div.lam(a) for a in div.labels},
            "removed": sorted(div.removed),
            "boundary_strata": sorted(sorted(A) for A in self._stratum_counts if A),
            "character_strata": [st.label for st in self._strata],
        }


# ---------------------------------------------------------------------------
# concrete entries


def _one_stratum(label: str, n: int) -> list[CharacterStratum]:
    return [
        CharacterStratum(
            label=f"{label}=1",
            pattern={label: 1},
            representative=tuple([Fraction(1)] * n),
            contains=lambda a: any(t != 0 for t in a),
        )
    ]


def _two_coord_strata() -> list[CharacterStratum]:
    return [
        CharacterStratum(
            "a1!=0,a2!=0",
            {"Dx": 1, "Dy": 1},
            (Fraction(1), Fraction(1)),
            lambda a: a[0] != 0 and a[1] != 0,
        ),
        CharacterStratum(
            "a1!=0,a2=0",
            {"Dx": 1, "Dy": 0},
            (Fraction(1), Fraction(0)),
            lambda a: a[0] != 0 and a[1] == 0,
        ),
        CharacterStratum(
            "a1=0,a2!=0",
            {"Dx": 0, "Dy": 1},
            (Fraction(0), Fraction(1)),
            lambda a: a[0] == 0 and a[1] != 0,
        ),
    ]


E1 = CompactificationModel(
    id="E1",
    dim=1,
    divisors=DivisorScheme(("inf",), (2,), frozenset({"inf"})),
    norm_coords={"inf": (0,)},
    _stratum_counts={frozenset(): (lambda q: q), frozenset({"inf"}): (lambda q: 1)},
    _strata=_one_stratum("inf", 1),
    arch_closed_form=lambda s: 2.0 + 2.0 / (s - 1.0),
    arch_exponents=lambda s: [s],
)

E2 = CompactificationModel(
    id="E2",
    dim=1,
    divisors=DivisorScheme(("inf",), (2,), frozenset()),
    norm_coords={"inf": (0,)},
    _stratum_counts={frozenset(): (lambda q: q), frozenset({"inf"}): (lambda q: 1)},
    _strata=_one_stratum("inf", 1),
    arch_closed_form=lambda s: 2.0 + 2.0 / (2.0 * s - 1.0),
    arch_exponents=lambda s: [2.0 * s],
)

E3 = CompactificationModel(
    id="E3",
    dim=2,
    divisors=DivisorScheme(("H",), (3,), frozenset({"H"})),
    norm_coords={"H": (0, 1)},
    _stratum_counts={frozenset(): (lambda q: q * q), frozenset({"H"}): (lambda q: q + 1)},
    _strata=_one_stratum("H", 2),
    arch_closed_form=lambda s: 4.0 + 4.0 / (s - 1.0),
)

E4 = CompactificationModel(
    id="E4",
    dim=2,
    divisors=DivisorScheme(("Dx", "Dy"), (2, 2), frozenset({"Dy"})),
    norm_coords={"Dx": (0,), "Dy": (1,)},
    _stratum_counts={
        frozenset(): (lambda q: q * q),
        frozenset({"Dx"}): (lambda q: q),
        frozenset({"Dy"}): (lambda q: q),
        frozenset({"Dx", "Dy"}): (lambda q: 1),
    },
    _strata=_two_coord_strata(),
    arch_closed_form=lambda s: (2.0 + 2.0 / (2.0 * s - 1.0)) * (2.0 + 2.0 / (s - 1.0)),
    arch_exponents=lambda s: [2.0 * s, s],
)

E5 = CompactificationModel(
    id="E5",
    dim=2,
    divisors=DivisorScheme(("Dx", "Dy"), (2, 2), frozenset({"Dx", "Dy"})),
    norm_coords={"Dx": (0,), "Dy": (1,)},
    _stratum_counts={
        frozenset(): (lambda q: q * q),
        frozenset({"Dx"}): (lambda q: q),
        frozenset({"Dy"}): (lambda q: q),
        frozenset({"Dx", "Dy"}): (lambda q: 1),
    },
    _strata=_two_coord_strata(),
    arch_closed_form=lambda s: (2.0 + 2.0 / (s - 1.0)) ** 2,
    arch_exponents=lambda s: [s, s],
)

E6 = CompactificationModel(
    id="E6",
    dim=2,
    divisors=DivisorScheme(("H",), (3,), frozenset()),
    norm_coords={"H": (0, 1)},
    _stratum_counts={frozenset(): (lambda q: q * q), frozenset({"H"}): (lambda q: q + 1)},
    _strata=_one_stratum("H", 2),
    arch_closed_form=lambda s: 4.0 + 8.0 / (3.0 * s - 2.0),
)

MODELS: dict[str, CompactificationModel] = {m.id: m for m in (E1, E2, E3, E4, E5, E6)}


def get_model(model_id: str) -> CompactificationModel:
    try:
        return MODELS[model_id]
    except KeyError:
        raise ConfigError(f"unknown model {model_id!r}; available: {sorted(MODELS)}") from None


def places_from_spec(spec: Sequence) -> list[Place]:
    """Normalize a list like ["inf", 5] or [Place, ...] into places;
    validates that the real place is present and finite entries are from
    the supported set {2, 3, 5, 7}."""
    out = []
    for item in spec:
        if isinstance(item, Place):
            out.append(item)
        elif str(item) in ("inf", "oo", "real"):
            out.append(Place.real())
        else:
            p = int(item)
            if p not in (2, 3, 5, 7):
                raise ConfigError("finite places in S are drawn from {2, 3, 5, 7}")
            out.append(Place.finite(p))
    if not any(v.kind == "real" for v in out):
        raise ConfigError("S must contain the real place")
    return out

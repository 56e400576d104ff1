"""The model catalog: explicit compactifications of G_a^n over Q with
max-metric local heights, integrality tests, finite-field stratum counts,
incidence data and character strata.

A catalog model is a product of projective spaces, one P^{k_alpha} per
boundary label alpha, each compactifying G_a^{k_alpha} by its hyperplane
at infinity D_alpha; ``norm_coords[alpha]`` lists the k_alpha coordinates
of that factor.  The points counted are those off the hyperplanes of the
removed labels.  An entry states only its labels with their coordinate
blocks and its removed set; the rest follows from the blocks:

* dim = sum k_alpha, rho_alpha = k_alpha + 1 (the anticanonical class of
  P^k is k + 1 hyperplanes) and lambda_alpha = rho_alpha - [alpha removed];
* the boundary strata D_A^0 are indexed by the nonempty label sets A: a
  point of D_A^0 lies at infinity in the factors of A and in the affine
  part of the others, so #D_A^0(F_q) = prod_{alpha in A} #P^{k_alpha - 1}(F_q)
  prod_{alpha not in A} q^{k_alpha}.  Each stratum is a product of
  projective spaces and has rational points over every completion;
* the linear form <a, .> has a simple pole along D_alpha exactly when a is
  nonzero on the block of alpha, so the character strata are again the
  nonempty label sets;
* ||f_alpha||_v(x) = 1 / max(1, |x_i|_v : i in the block of alpha).

Entries (all with the obvious Z-models, good reduction everywhere):

  E1  P^1  minus the point at infinity          lambda = (1)
  E2  P^1, nothing removed (rational points)    lambda = (2)
  E3  P^2  minus the line at infinity           lambda = (2)
  E4  P^1 x P^1 minus one ruling {y = inf}      lambda = (2, 1)
  E5  P^1 x P^1 minus both rulings              lambda = (1, 1)
  E6  P^2, nothing removed                      lambda = (3)

Metrics are max-metrics at every place, so local heights are exact
rationals.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

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
    """prod_alpha P^{k_alpha} minus the hyperplanes at infinity of the
    removed labels, k_alpha = len(norm_coords[alpha])."""

    id: str
    # label -> indices of the coordinates of its factor P^k, which enter
    # the max-norm of 1/||f_alpha||
    norm_coords: dict
    removed: InitVar[Sequence[str]] = ()
    dim: int = field(init=False)
    divisors: DivisorScheme = field(init=False)

    def __post_init__(self, removed):
        blocks = self.norm_coords.values()
        self.dim = sum(map(len, blocks))
        self.divisors = DivisorScheme(tuple(self.norm_coords), tuple(len(b) + 1 for b in blocks), frozenset(removed))

    # -- local heights -------------------------------------------------

    def local_height(self, place: Place, alpha: str, x) -> Fraction:
        """||f_alpha||_v(x) <= 1, an exact rational."""
        x = self._coords(x)
        return Fraction(1) / _max_norm(place, [x[i] for i in self.norm_coords[alpha]])

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
        """The nonempty label sets, by size, in label order."""
        labels = self.divisors.labels
        return [frozenset(c) for r in range(1, len(labels) + 1) for c in combinations(labels, r)]

    def stratum_counts(self, q, A):
        """#D_A^0(F_q) for the locally closed stratum indexed by A: per
        factor P^k, the (q^k - 1)/(q - 1) points at infinity for a label in
        A and the q^k affine points otherwise; 0 unless A is a set of
        labels.  ``q`` may be an integer or a float array."""
        if not set(A) <= set(self.norm_coords):
            return 0
        return math.prod(
            (q ** len(idx) - 1) // (q - 1) if alpha in A else q ** len(idx) for alpha, idx in self.norm_coords.items()
        )

    def coefficient_pattern(self, a: Coords) -> dict:
        """d_alpha(a) for nonzero a: the form <a, .> has a simple pole along
        D_alpha exactly when it involves a coordinate of the norm of
        f_alpha, and no pole otherwise."""
        return {alpha: int(any(a[i] != 0 for i in idx)) for alpha, idx in self.norm_coords.items()}

    def strata(self) -> list[CharacterStratum]:
        """One stratum per nonempty label set A, largest first: the forms
        nonzero exactly on the blocks of A.  With one label the stratum is
        named "alpha=1", else by the vanishing of a_j on the j-th block."""
        return [self._stratum(A) for A in sorted(self.incidence_faces(), key=len, reverse=True)]

    def _stratum(self, A: frozenset) -> CharacterStratum:
        pattern = {alpha: int(alpha in A) for alpha in self.norm_coords}
        rep = [Fraction(0)] * self.dim
        for alpha in A:
            for i in self.norm_coords[alpha]:
                rep[i] = Fraction(1)
        if len(pattern) == 1:
            label = f"{next(iter(pattern))}=1"
        else:
            label = ",".join(f"a{j}{'!=' if d else '='}0" for j, d in enumerate(pattern.values(), 1))
        return CharacterStratum(label, pattern, tuple(rep), lambda a: self.coefficient_pattern(a) == pattern)

    def describe(self) -> dict:
        div = self.divisors
        return {
            "id": self.id,
            "dim": self.dim,
            "labels": list(div.labels),
            "rho": {a: div.rho_of(a) for a in div.labels},
            "lambda": {a: div.lam(a) for a in div.labels},
            "removed": sorted(div.removed),
            "boundary_strata": sorted(sorted(A) for A in self.incidence_faces()),
            "character_strata": [st.label for st in self.strata()],
        }


# ---------------------------------------------------------------------------
# concrete entries


E1 = CompactificationModel("E1", {"inf": (0,)}, removed={"inf"})
E2 = CompactificationModel("E2", {"inf": (0,)})
E3 = CompactificationModel("E3", {"H": (0, 1)}, removed={"H"})
E4 = CompactificationModel("E4", {"Dx": (0,), "Dy": (1,)}, removed={"Dy"})
E5 = CompactificationModel("E5", {"Dx": (0,), "Dy": (1,)}, removed={"Dx", "Dy"})
E6 = CompactificationModel("E6", {"H": (0, 1)})

MODELS: dict[str, CompactificationModel] = {m.id: m for m in (E1, E2, E3, E4, E5, E6)}


def get_model(model_id: str) -> CompactificationModel:
    try:
        return MODELS[model_id]
    except KeyError:
        raise ConfigError(f"unknown model {model_id!r}; available: {sorted(MODELS)}") from None


def places_from_spec(spec: Sequence) -> list[Place]:
    """The set of places S named by ``spec``, in order: each entry a Place
    or a name that ``Place.parse`` reads, e.g. ["inf", 13] or
    ("real", "2", "101").  S may hold any prime.  It must hold the real
    place ("inf" and "real" are one), no place twice, and no complex place,
    which Q does not have; each refusal is a ConfigError."""
    out = [v if isinstance(v, Place) else Place.parse(v) for v in spec]
    if any(v.kind == "complex" for v in out):
        raise ConfigError("Q has no complex place: S holds the real place and primes")
    if not any(v.kind == "real" for v in out):
        raise ConfigError("S must contain the real place")
    if len(set(out)) != len(out):
        raise ConfigError(f"S lists a place twice: {', '.join(map(str, out))}")
    return out

"""Boundary-divisor combinatorics: divisor data, Clemens complexes,
Picard ranks, the log-power exponent b, and pole orders for character
strata of linear forms.

In the catalog every intersection of boundary components is a product of
projective spaces, so it has points over every completion.  The Clemens
complex at any place is therefore the full simplex on the removed labels,
and the boundary data are read off the removed set with no search over
faces or places."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import NumericError
from .localfield import Place


@dataclass(frozen=True)
class DivisorScheme:
    """Combinatorial data of the boundary: labels, anticanonical
    multiplicities rho, the sublist of removed components, and the induced
    log-anticanonical multiplicities lambda = rho - [removed].  Every
    component is geometrically irreducible (residue degree 1)."""

    labels: tuple[str, ...]
    rho: tuple[int, ...]
    removed: frozenset[str]  # components whose complement is counted

    def __post_init__(self):
        if len(self.rho) != len(self.labels):
            raise ValueError("rho must match labels")
        if not self.removed <= set(self.labels):
            raise ValueError("removed components must be boundary labels")
        for a, r in zip(self.labels, self.rho):
            if r < 2:
                raise ValueError(f"rho[{a}] = {r} < 2")
            if self.lam(a) < 1:
                raise ValueError(f"lambda[{a}] < 1")

    def rho_of(self, label: str) -> int:
        return self.rho[self.labels.index(label)]

    def lam(self, label: str) -> int:
        return self.rho_of(label) - (1 if label in self.removed else 0)

    @property
    def kept(self) -> tuple[str, ...]:
        """Labels outside the removed set (they survive in the open part)."""
        return tuple(a for a in self.labels if a not in self.removed)


def _downward_closure(maximal: Iterable[frozenset]) -> list[frozenset]:
    faces = set()
    for M in maximal:
        for r in range(1, len(M) + 1):
            for c in combinations(sorted(M), r):
                faces.add(frozenset(c))
    return sorted(faces, key=lambda A: (len(A), sorted(A)))


@dataclass(frozen=True)
class ClemensComplex:
    """Simplicial complex of boundary components with a common rational
    point over the completion at ``place``; stored by maximal faces."""

    place: Place
    vertices: tuple[str, ...]
    maximal_faces: tuple[frozenset, ...]

    def faces(self) -> list[frozenset]:
        return _downward_closure(self.maximal_faces)

    @property
    def dimension(self) -> int:
        """max |A| - 1 over faces; -1 for the empty complex."""
        if not self.maximal_faces:
            return -1
        return max(len(A) for A in self.maximal_faces) - 1


@dataclass(frozen=True)
class CharacterStratum:
    """A locus of linear forms (up to scalar) on which the boundary pole
    multiplicities of <a, .> are constant."""

    label: str
    pattern: dict  # label -> multiplicity (0 or positive)
    representative: tuple
    contains: Callable[[tuple], bool] = field(compare=False)


def clemens_complex(model, place: Place, restrict_to_removed: bool = True) -> ClemensComplex:
    """The complex of boundary strata with points over the completion at
    ``place``: the full simplex on the removed labels (on all labels
    without ``restrict_to_removed``), empty when there are none.  Every
    catalog stratum is a product of projective spaces and has points over
    every completion, so the complex is the same at every place."""
    pool = model.divisors.removed if restrict_to_removed else frozenset(model.divisors.labels)
    return ClemensComplex(place, tuple(sorted(pool)), (pool,) if pool else ())


def ep_rank(model) -> int:
    """rank Pic of the open part: the number of boundary components that
    are kept (split case, residue degrees 1)."""
    return len(model.divisors.kept)


def exponent_b(model, S: Sequence[Place]) -> int:
    """b = rank Pic(U) + sum_{v in S} (1 + dim C_v); the empty complex has
    dimension -1, so an empty removed set contributes nothing per place."""
    _check_S(S)
    b = ep_rank(model)
    for v in S:
        b += 1 + clemens_complex(model, v, True).dimension
    return b


def _check_S(S: Sequence[Place]):
    if not any(v.kind == "real" for v in S):
        raise ValueError("S must contain the real place")
    if len(set(S)) != len(S):
        raise ValueError("S is a set of places; a place repeats")


def pole_orders(model, S: Sequence[Place], a) -> tuple[int, int]:
    """(b_0, b_a): the pole order of the trivial-character term and the
    order bound for the subseries of characters collinear to a.  A kept
    label counts once and a removed label once per place of S (the Clemens
    complex is the simplex on the removed labels); b_a counts only the
    labels along which <a, .> has no pole.  For nonzero a the strict
    inequality b_a < b_0 is checked."""
    _check_S(S)
    weight = {alpha: len(S) if alpha in model.divisors.removed else 1 for alpha in model.divisors.labels}
    b0 = sum(weight.values())
    if a is None or (isinstance(a, (int, Fraction)) and a == 0) or (
        isinstance(a, (tuple, list)) and all(t == 0 for t in a)
    ):
        return b0, b0
    d = divisor_coefficients(model, a)
    ba = sum(w for alpha, w in weight.items() if d[alpha] == 0)
    if ba >= b0:
        raise NumericError(f"pole-order domination failed: b_a={ba} >= b_0={b0}")
    return b0, ba


def divisor_coefficients(model, a) -> dict:
    """Pole multiplicities d_alpha(a) of the linear form <a, .> along the
    boundary components (closed form per catalog model)."""
    a = _as_tuple(a, model.dim)
    if all(t == 0 for t in a):
        raise ValueError("a must be nonzero")
    return model.coefficient_pattern(a)


def character_strata(model) -> list[CharacterStratum]:
    """The partition of nonzero linear forms, up to scalar, by their
    boundary vanishing pattern."""
    return model.strata()


def _as_tuple(a, n: int) -> tuple:
    if isinstance(a, (tuple, list)):
        t = tuple(Fraction(x) for x in a)
    else:
        t = (Fraction(a),)
    if len(t) != n:
        raise ValueError(f"expected a point of G = G_a^{n}")
    return t

"""Transitivity-type predicates for permutation groups.

The predicates form the usual hierarchy on a transitive group G acting
on n points with point stabilizer H:

* half-transitive: all orbits have equal size (> 1 unless n = 1);
* 3/2-transitive: transitive, H nontrivial, and all H-orbits outside the
  fixed point have equal size;
* 2-transitive: rank 2, i.e. H is transitive on the remaining points;
* rank: the number of H-orbits (counting the fixed point);
* primitive: no invariant partition with blocks of size strictly
  between 1 and n;
* Frobenius: transitive, not regular, and only the identity fixes two
  points (equivalently, every H-orbit outside the fixed point has length
  |H|);
* regular / semiregular: trivial stabilizers, with / without
  transitivity.

Primitivity is decided by the block-overgroup correspondence: the
blocks containing 0 are the orbits of 0 under the groups between H and
G, so the least block containing 0 and beta is 0's orbit under <H, g>
for any g mapping 0 to beta, grown by whole H-orbits.  The group is
primitive iff every such block is the whole domain.  H maps the block
for beta to the one for beta^h, so one block per H-orbit (rank - 1
blocks, from each orbit's least point) decides it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError
from .permgroup import ELEMENT_LIMIT, Perm, PermGroup


class TransitivityReport(NamedTuple):
    """Joint answer of all transitivity-type predicates for one group.

    ``rank`` and ``primitive`` are None when the group is intransitive
    (and ``primitive`` also for degree 1, where the notion is empty);
    ``frobenius`` is None when the order exceeds ``ELEMENT_LIMIT``, which
    keeps the report schema stable; the predicate itself needs no
    enumeration.
    """

    degree: int
    order: int
    orbit_sizes: tuple[int, ...]
    transitive: bool
    half_transitive: bool
    three_halves: bool
    two_transitive: bool
    rank: int | None
    primitive: bool | None
    frobenius: bool | None
    regular: bool
    semiregular: bool


def is_half_transitive(G: PermGroup) -> bool:
    """All orbits of equal size; degree 1 counts (trivially)."""
    sizes = {len(o) for o in G.orbits()}
    if G.degree == 1:
        return True
    return len(sizes) == 1 and sizes != {1}


def is_semiregular(G: PermGroup) -> bool:
    """Every point stabilizer is trivial (orbit sizes all equal |G|)."""
    n = G.order()
    return all(len(o) == n for o in G.orbits())


def is_regular(G: PermGroup) -> bool:
    return G.is_transitive() and G.order() == G.degree


def rank(G: PermGroup) -> int:
    """Number of point-stabilizer orbits; requires transitivity."""
    if not G.is_transitive():
        raise PreconditionError("rank is defined only for transitive groups")
    return len(G.point_stabilizer(0).orbits())


def is_three_halves_transitive(G: PermGroup) -> bool:
    """Transitive, nontrivial point stabilizer, and all stabilizer
    orbits away from the fixed point of equal size."""
    if not G.is_transitive():
        return False
    stab = G.point_stabilizer(0)
    if stab.is_trivial():
        return False
    sizes = {len(o) for o in stab.orbits() if o != [0]}
    return len(sizes) == 1


def minimal_block_with(G: PermGroup, alpha: int, beta: int) -> list[int]:
    """The least block of G containing alpha and beta, sorted: alpha's
    orbit under <G_alpha, g> for g = u_alpha^-1 * u_beta, which maps
    alpha to beta, with u_alpha and u_beta read off the first level of
    G's chain (``PermGroup.orbit_with``).

    Requires a transitive group and distinct points.
    """
    n = G.degree
    if not (0 <= alpha < n and 0 <= beta < n):
        raise PreconditionError(f"points {alpha}, {beta} out of range 0..{n - 1}")
    if not G.is_transitive():
        raise PreconditionError("block systems are defined for transitive groups")
    if alpha == beta:
        raise PreconditionError("points must be distinct")
    # G is transitive, so the first level's orbit is every point
    level = G.chain().levels[0]
    g = Perm._raw(level.u(alpha)).inv() * Perm._raw(level.u(beta))
    return sorted(G.point_stabilizer(alpha).orbit_with(g, alpha))


def is_primitive(G: PermGroup) -> bool:
    """No nontrivial invariant partition; requires transitivity and
    degree >= 2."""
    if G.degree < 2:
        raise PreconditionError("primitivity needs degree >= 2")
    if not G.is_transitive():
        raise PreconditionError("primitivity is defined for transitive groups")
    orbits = G.point_stabilizer(0).orbits()
    return all(len(minimal_block_with(G, 0, o[0])) == G.degree for o in orbits if o != [0])


def is_frobenius(G: PermGroup) -> bool:
    """Transitive, not regular, and no nonidentity element fixes two
    points: the stabilizer H of 0 acts regularly on each of its orbits
    outside 0."""
    if not G.is_transitive() or is_regular(G):
        return False
    stab_order = G.order() // G.degree
    return all(len(o) == stab_order for o in G.point_stabilizer(0).orbits() if o != [0])


def analyze(G: PermGroup) -> TransitivityReport:
    """Evaluate every predicate once, sharing the underlying orbit and
    stabilizer computations."""
    order = G.order()
    orbit_sizes = tuple(sorted(len(o) for o in G.orbits()))
    transitive = len(orbit_sizes) == 1 and orbit_sizes[0] == G.degree
    half = is_half_transitive(G)
    semiregular = is_semiregular(G)
    regular = transitive and semiregular
    if transitive:
        rk = rank(G)
        primitive = is_primitive(G) if G.degree >= 2 else None
        three_halves = (not semiregular) and is_three_halves_transitive(G)
        two_trans = G.degree >= 2 and rk == 2
    else:
        rk = None
        primitive = None
        three_halves = False
        two_trans = False
    if order <= ELEMENT_LIMIT:
        frobenius = is_frobenius(G)
    else:
        frobenius = None
    return TransitivityReport(
        degree=G.degree,
        order=order,
        orbit_sizes=orbit_sizes,
        transitive=transitive,
        half_transitive=half,
        three_halves=three_halves,
        two_transitive=two_trans,
        rank=rk,
        primitive=primitive,
        frobenius=frobenius,
        regular=regular,
        semiregular=semiregular,
    )

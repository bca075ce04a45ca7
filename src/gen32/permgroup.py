"""Permutation groups with deterministic stabilizer chains.

Conventions, fixed once and used everywhere:

* A permutation of degree n acts on the points 0 .. n-1 and is stored as
  its image tuple, so ``g[x]`` is the image of x under g.
* Products compose left to right: ``(p * q)[x] == q[p[x]]`` (apply p,
  then q).  This matches the right action of matrices on row vectors, so
  converting matrices to permutations is a homomorphism for the ordinary
  matrix product.
* Whenever a canonical choice among permutations is needed (class
  representatives, coset labels, tie-breaks) the comparison is
  lexicographic on image tuples.

Group-level computations run over a stabilizer chain built by a
deterministic incremental Schreier-Sims procedure: base points are always
the smallest point moved by the offending element, and the chain is
verified bottom-up, so equal inputs always produce identical chains.
Element enumeration, when a task genuinely needs it, is a breadth-first
closure from the identity with layers sorted lexicographically, and is
capped at 10^5 elements.

An element of a group is keyed by its base images: its images of the
base points of the group's chain, ``g.images_of(base)``.  Only the
identity of the group fixes every base point, so the key determines the
element.  Keys compose without a degree-n product:
key(x * g) = g.images_of(key(x)).  Element enumeration, conjugacy
classes and coset labels look elements up by key, at |base| steps each,
and build a product only for an element they have not seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import PreconditionError
from .field import is_prime

ELEMENT_LIMIT = 10**5
SUBGROUP_CENSUS_LIMIT = 2000
QUOTIENT_INDEX_LIMIT = 10**4


class Perm:
    """An immutable permutation of 0 .. n-1, stored as its image tuple."""

    __slots__ = ("images", "_inverse")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PreconditionError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images
        self._inverse = None

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> Perm:
        p = object.__new__(cls)
        p.images = images
        p._inverse = None
        return p

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
        """Build a permutation from disjoint cycles of points."""
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: Perm) -> Perm:
        return Perm._raw(tuple(map(other.images.__getitem__, self.images)))

    def images_of(self, points: Sequence[int]) -> tuple[int, ...]:
        """The images of the given points, in order."""
        return tuple(map(self.images.__getitem__, points))

    def inv(self) -> Perm:
        # cached one way only: a back-reference from the inverse would
        # make every cached pair a reference cycle for the collector
        if self._inverse is None:
            out = [0] * len(self.images)
            for i, x in enumerate(self.images):
                out[x] = i
            self._inverse = Perm._raw(tuple(out))
        return self._inverse

    def __pow__(self, e: int) -> Perm:
        if e < 0:
            return self.inv() ** (-e)
        result = Perm.identity(len(self.images))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self, g: Perm) -> Perm:
        """g^-1 * self * g."""
        return g.inv() * self * g

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def min_moved(self) -> int:
        """Smallest point moved; errors on the identity."""
        for i, x in enumerate(self.images):
            if i != x:
                return i
        raise PreconditionError("identity moves no point")

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        for cyc in self.cycles():
            n = n * len(cyc) // gcd(n, len(cyc))
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm.identity({self.degree})"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


# ---------------------------------------------------------------------------
# stabilizer chains


class _Level:
    __slots__ = ("point", "gens", "orbit", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        self.orbit: list[int] = []
        self.transversal: dict[int, Perm] = {}


class StabChain:
    """A verified stabilizer chain: per level a base point, the strong
    generators fixing all earlier base points, and a transversal mapping
    the base point onto its orbit."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree: int, levels: list[_Level]):
        self.degree = degree
        self.levels = levels

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.orbit)
        return n

    def strip(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        """Sift g through levels from ``start``; returns (residue, depth).

        The residue fixes the base points of all levels < depth; g is in
        the group iff start == 0, depth == len(levels) and the residue is
        the identity.
        """
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            delta = g.images[level.point]
            if delta == level.point:
                continue
            u = level.transversal.get(delta)
            if u is None:
                return g, i
            g = g * u.inv()
        return g, len(self.levels)

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        residue, depth = self.strip(g)
        return depth == len(self.levels) and residue.is_identity()


def build_chain(degree: int, generators: Sequence[Perm], initial_base: Sequence[int] = ()) -> StabChain:
    """Deterministic incremental Schreier-Sims.

    ``initial_base`` forces the first base points (used to read off point
    stabilizers); further base points are always the smallest point moved
    by the element that required them.  The chain is verified from the
    deepest level upward; any Schreier generator that fails to sift is
    appended as a strong generator of every level it fixes, and
    verification resumes at the deepest level it touched.
    """
    identity = Perm.identity(degree)
    gens = [g for g in generators if not g.is_identity()]
    for g in gens:
        if g.degree != degree:
            raise PreconditionError("generator degree mismatch")
    levels: list[_Level] = []
    seen_base: set[int] = set()
    for pt in initial_base:
        if not 0 <= pt < degree:
            raise PreconditionError(f"base point {pt} out of range")
        if pt in seen_base:
            continue
        seen_base.add(pt)
        levels.append(_Level(pt))

    def base_prefix_fixed(g: Perm, upto: int) -> bool:
        return all(g.images[levels[i].point] == levels[i].point for i in range(upto))

    def add_level_for(g: Perm) -> None:
        levels.append(_Level(g.min_moved()))

    for g in gens:
        if base_prefix_fixed(g, len(levels)):
            add_level_for(g)
        # distribute into every level whose prefix it fixes
    for g in gens:
        for i, level in enumerate(levels):
            if base_prefix_fixed(g, i):
                level.gens.append(g)
            else:
                break

    if not levels:
        return StabChain(degree, [])

    def close(i: int) -> None:
        level = levels[i]
        level.orbit = [level.point]
        level.transversal = {level.point: identity}
        k = 0
        while k < len(level.orbit):
            gamma = level.orbit[k]
            u = level.transversal[gamma]
            for s in level.gens:
                delta = s.images[gamma]
                if delta not in level.transversal:
                    level.transversal[delta] = u * s
                    level.orbit.append(delta)
            k += 1

    for i in range(len(levels)):
        close(i)

    chain = StabChain(degree, levels)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        modified_at = None
        for gamma in level.orbit:
            u_gamma = level.transversal[gamma]
            for s in level.gens:
                delta = s.images[gamma]
                u_delta = level.transversal[delta]
                sg = u_gamma * s
                if sg.images == u_delta.images:
                    continue
                residue, j = chain.strip(sg * u_delta.inv(), i + 1)
                if residue.is_identity():
                    continue
                if j == len(levels):
                    add_level_for(residue)
                for l in range(i + 1, j + 1):
                    levels[l].gens.append(residue)
                    close(l)
                modified_at = j
                break
            if modified_at is not None:
                break
        if modified_at is not None:
            i = modified_at
        else:
            i -= 1
    return chain


# ---------------------------------------------------------------------------


class PermGroup:
    """A permutation group given by generators on the points 0 .. n-1.

    Generators are kept verbatim (including redundant ones); all derived
    data — stabilizer chain, element list, conjugacy classes — is
    computed lazily and cached, and every computation is deterministic in
    the given generator sequence.
    """

    __slots__ = (
        "degree",
        "generators",
        "_chain",
        "_stabs",
        "_elements",
        "_classes",
        "_orbits",
    )

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        if degree < 1:
            raise PreconditionError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        for g in self.generators:
            if not isinstance(g, Perm):
                raise PreconditionError("generators must be Perm instances")
            if g.degree != degree:
                raise PreconditionError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self._chain: StabChain | None = None
        self._stabs: dict[int, PermGroup] = {}
        self._elements: list[Perm] | None = None
        self._classes: list[list[Perm]] | None = None
        self._orbits: list[list[int]] | None = None

    # -- structure ---------------------------------------------------------

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = build_chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def contains(self, g: Perm) -> bool:
        return self.chain().contains(g)

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    def elements(self) -> list[Perm]:
        """All elements, by breadth-first closure from the identity.

        Layers are generated by right multiplication with the generators
        and each new layer is sorted lexicographically, so the resulting
        order is reproducible.  Elements are keyed by their base images,
        so a product is built only for an element not seen before.
        Capped at 10^5 elements.
        """
        if self._elements is None:
            if self.order() > ELEMENT_LIMIT:
                raise PreconditionError(
                    f"group order {self.order()} exceeds element enumeration cap {ELEMENT_LIMIT}"
                )
            gens = [g for g in self.generators if not g.is_identity()]
            base = self.chain().base
            out = [self.identity()]
            seen = {base}
            layer = [(out[0], base)]
            while layer:
                found = []
                for x, key in layer:
                    for g in gens:
                        key_y = g.images_of(key)
                        if key_y not in seen:
                            seen.add(key_y)
                            found.append((x * g, key_y))
                found.sort(key=lambda pair: pair[0].images)
                out.extend(y for y, _ in found)
                layer = found
            self._elements = out
        return self._elements

    def orbit(self, alpha: int) -> list[int]:
        """The orbit of a point, as a sorted list."""
        if not 0 <= alpha < self.degree:
            raise PreconditionError(f"point {alpha} out of range")
        seen = {alpha}
        queue = [alpha]
        i = 0
        while i < len(queue):
            x = queue[i]
            for g in self.generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
            i += 1
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by their smallest point."""
        if self._orbits is None:
            seen = [False] * self.degree
            out = []
            for alpha in range(self.degree):
                if not seen[alpha]:
                    o = self.orbit(alpha)
                    for x in o:
                        seen[x] = True
                    out.append(o)
            self._orbits = out
        return self._orbits

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, alpha: int) -> PermGroup:
        """The stabilizer of a point, read off a chain based at it: the
        group's own chain when its base starts at alpha, else a new one."""
        if alpha not in self._stabs:
            chain = self.chain()
            if chain.base[:1] != (alpha,):
                chain = build_chain(self.degree, self.generators, (alpha,))
            if len(chain.levels) <= 1:
                gens: tuple[Perm, ...] = ()
            else:
                gens = tuple(chain.levels[1].gens)
            self._stabs[alpha] = PermGroup(self.degree, gens)
        return self._stabs[alpha]

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> list[list[Perm]]:
        """Conjugacy classes, each sorted, ordered by their least member.

        Elements are keyed by their base images and addressed by their
        position in the sorted element list.  A conjugate is found by its
        key alone, key(g^-1 x g)[i] = g[x[g^-1[b_i]]], without a product.
        """
        if self._classes is None:
            elems = sorted(self.elements(), key=attrgetter("images"))
            base = self.chain().base
            position = {e.images_of(base): i for i, e in enumerate(elems)}
            # per generator g: the points g^-1[b_i], and g itself
            conjugators = [
                (g.inv().images_of(base), g) for g in self.generators if not g.is_identity()
            ]
            assigned = [False] * len(elems)
            classes = []
            for i in range(len(elems)):
                if assigned[i]:
                    continue
                members = {i}
                queue = [i]
                while queue:
                    x = elems[queue.pop()]
                    for pre, g in conjugators:
                        j = position[g.images_of(x.images_of(pre))]
                        if j not in members:
                            members.add(j)
                            queue.append(j)
                for j in members:
                    assigned[j] = True
                classes.append([elems[j] for j in sorted(members)])
            self._classes = classes
        return self._classes

    def conjugacy_class_reps(self) -> list[Perm]:
        """Lexicographically least member of each class, sorted."""
        return [cls[0] for cls in self.conjugacy_classes()]

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])


# ---------------------------------------------------------------------------
# constructions on groups


def symmetric_group(n: int) -> PermGroup:
    """Sym(n) on 0 .. n-1, generated by an n-cycle and a transposition."""
    if n < 1:
        raise PreconditionError("symmetric_group needs n >= 1")
    if n == 1:
        return PermGroup(1, ())
    cycle = Perm.from_cycles(n, [tuple(range(n))])
    swap = Perm.from_cycles(n, [(0, 1)])
    if n == 2:
        return PermGroup(2, (swap,))
    return PermGroup(n, (cycle, swap))


def normal_in(H: PermGroup, G: PermGroup) -> bool:
    """Whether H is a normal subgroup of G.

    Errors if H is not contained in G; normality is checked on
    generators, which suffices.
    """
    if H.degree != G.degree:
        raise PreconditionError("degree mismatch")
    for h in H.generators:
        if h not in G:
            raise PreconditionError("subgroup generators do not all lie in the group")
    return all(h.conj(g) in H for h in H.generators for g in G.generators)


def normal_closure(G: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """The smallest normal subgroup of G containing the seed elements."""
    for s in seeds:
        if s not in G:
            raise PreconditionError("seed elements must lie in the group")
    gens: list[Perm] = [s for s in seeds if not s.is_identity()]
    closure = PermGroup(G.degree, tuple(gens))
    queue = list(gens)
    while queue:
        x = queue.pop(0)
        for g in G.generators:
            y = x.conj(g)
            if y not in closure:
                gens.append(y)
                closure = PermGroup(G.degree, tuple(gens))
                queue.append(y)
    return closure


def derived_subgroup(G: PermGroup) -> PermGroup:
    """The commutator subgroup, as the normal closure of generator
    commutators."""
    seeds = []
    seen = set()
    for a in G.generators:
        for b in G.generators:
            c = a.inv() * b.inv() * a * b
            if not c.is_identity() and c not in seen:
                seen.add(c)
                seeds.append(c)
    return normal_closure(G, seeds)


@dataclass(frozen=True)
class CosetAction:
    """The action of a group on the right cosets of a normal subgroup.

    ``group`` is the quotient as a permutation group on coset indices;
    ``reps`` holds the lexicographically least element of each coset, and
    ``coset_of`` maps every group element to its coset index.  Coset 0 is
    always the subgroup itself (the identity is the least element of all).
    """

    group: PermGroup
    reps: tuple[Perm, ...]
    coset_of: dict[Perm, int]


def coset_action(G: PermGroup, N: PermGroup) -> CosetAction:
    """Label the right cosets of a normal subgroup and act on them.

    Cosets are indexed in order of their lexicographically least element;
    the quotient generators are the actions of G's generators by right
    multiplication.  Elements are keyed by their base images in G, so the
    coset N e is labelled, and acted on, without a product.  The index is
    capped at 10^4.
    """
    if not normal_in(N, G):
        raise PreconditionError("can only form the quotient by a normal subgroup")
    index = G.order() // N.order()
    if index > QUOTIENT_INDEX_LIMIT:
        raise PreconditionError(f"quotient index {index} exceeds cap {QUOTIENT_INDEX_LIMIT}")
    base = G.chain().base
    elems = sorted(G.elements(), key=attrgetter("images"))
    by_key = {e.images_of(base): e for e in elems}
    n_keys = [n.images_of(base) for n in N.elements()]
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for e in elems:
        if e in coset_of:
            continue
        idx = len(reps)
        reps.append(e)
        for key in n_keys:
            coset_of[by_key[e.images_of(key)]] = idx  # n * e
    rep_keys = [r.images_of(base) for r in reps]
    images = []
    for g in G.generators:
        images.append(Perm(tuple(coset_of[by_key[g.images_of(key)]] for key in rep_keys)))
    group = PermGroup(index, tuple(images))
    return CosetAction(group=group, reps=tuple(reps), coset_of=coset_of)


def sylow_subgroup(G: PermGroup, ell: int) -> PermGroup:
    """A Sylow ell-subgroup, grown deterministically.

    Starts from the lexicographically least element of maximal
    ell-power order and repeatedly adjoins the first ell-element (in
    enumeration order) that normalizes the current subgroup, which by
    Sylow theory always reaches the full ell-part of |G|.  Returns the
    trivial group when ell does not divide |G|.
    """
    if not is_prime(ell):
        raise PreconditionError(f"sylow_subgroup needs a prime, got {ell}")
    order = G.order()
    target = 1
    while order % ell == 0:
        order //= ell
        target *= ell
    if target == 1:
        return PermGroup(G.degree, ())
    elems = G.elements()
    ell_elems = []
    best: tuple[int, Perm] | None = None
    for e in elems:
        o = e.order()
        if o > 1 and _is_power_of(o, ell):
            ell_elems.append(e)
            if best is None or o > best[0] or (o == best[0] and e < best[1]):
                best = (o, e)
    gens = [best[1]]
    current = PermGroup(G.degree, tuple(gens))
    while current.order() < target:
        for y in ell_elems:
            if y not in current and all(p.conj(y) in current for p in gens):
                gens.append(y)
                current = PermGroup(G.degree, tuple(gens))
                break
        else:
            raise RuntimeError("sylow growth stalled")  # unreachable by Sylow theory
    return current


def _is_power_of(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1


# ---------------------------------------------------------------------------
# exhaustive multiplication tables for very small groups


class ElementTable:
    """Id-indexed multiplication for a fully enumerated small group.

    Elements are sorted lexicographically and addressed by index, so ids
    are canonical for the group as a set.  Rows of the multiplication
    table are built on first use.  Its one client is the subgroup census,
    ``subgroups_up_to_conjugacy``.
    """

    __slots__ = ("group", "elements", "index", "_rows", "_inv", "_id")

    def __init__(self, group: PermGroup):
        if group.order() > SUBGROUP_CENSUS_LIMIT:
            raise PreconditionError(
                f"group order {group.order()} exceeds the table cap {SUBGROUP_CENSUS_LIMIT}"
            )
        self.group = group
        self.elements = sorted(group.elements())
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._rows: list[list[int] | None] = [None] * len(self.elements)
        self._inv: list[int | None] = [None] * len(self.elements)
        self._id = self.index[group.identity()]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity_id(self) -> int:
        return self._id

    def row(self, i: int) -> list[int]:
        r = self._rows[i]
        if r is None:
            e = self.elements[i]
            r = [self.index[e * f] for f in self.elements]
            self._rows[i] = r
        return r

    def mul(self, i: int, j: int) -> int:
        return self.row(i)[j]

    def inv(self, i: int) -> int:
        v = self._inv[i]
        if v is None:
            v = self.index[self.elements[i].inv()]
            self._inv[i] = v
        return v

    def closure(self, gen_ids: Sequence[int]) -> frozenset[int]:
        """The subgroup generated by the given element ids, as an id set."""
        seen = {self._id}
        queue = [self._id]
        for g in gen_ids:
            if g not in seen:
                seen.add(g)
                queue.append(g)
        k = 0
        while k < len(queue):
            x = queue[k]
            row = self.row(x)
            for g in gen_ids:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
            k += 1
        return frozenset(seen)

    def cyclic(self, i: int) -> frozenset[int]:
        seen = {self._id}
        x = i
        while x not in seen:
            seen.add(x)
            x = self.mul(x, i)
        return frozenset(seen)

    def conjugate_set(self, ids: frozenset[int], g: int) -> frozenset[int]:
        gi = self.inv(g)
        return frozenset(self.mul(self.mul(gi, x), g) for x in ids)


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: a canonical representative and
    the number of conjugates."""

    representative: PermGroup
    order: int
    class_size: int


def subgroups_up_to_conjugacy(G: PermGroup) -> list[SubgroupClass]:
    """All subgroups of a small group, one representative per conjugacy
    class.

    Every subgroup is reached by closing the set of cyclic subgroups
    under one-element extensions: any subgroup S properly containing a
    maximal subgroup M satisfies S = <M, x> for each x in S - M, so
    induction on order reaches everything.  The representative of a
    class is the member whose sorted element-id tuple is least among its
    conjugates; classes are returned sorted by (order, that tuple).
    """
    table = ElementTable(G)
    n = len(table)
    found: dict[frozenset[int], tuple[int, ...]] = {}
    worklist: list[frozenset[int]] = []
    for i in range(n):
        sub = table.cyclic(i)
        if sub not in found:
            found[sub] = (i,) if i != table.identity_id else ()
            worklist.append(sub)
    w = 0
    while w < len(worklist):
        sub = worklist[w]
        w += 1
        gens = found[sub]
        for x in range(n):
            if x in sub:
                continue
            bigger = table.closure(gens + (x,))
            if bigger not in found:
                found[bigger] = gens + (x,)
                worklist.append(bigger)
    # group into conjugacy classes by canonical (least) conjugate key
    all_ids = range(n)
    classes: dict[tuple[int, ...], list[frozenset[int]]] = {}
    for sub in found:
        seen_conj = {sub}
        for g in all_ids:
            seen_conj.add(table.conjugate_set(sub, g))
        key = min(tuple(sorted(c)) for c in seen_conj)
        classes.setdefault(key, [])
        if sub not in classes[key]:
            classes[key].append(sub)
    out = []
    for key in sorted(classes, key=lambda k: (len(k), k)):
        rep_set = frozenset(key)
        gens = found[rep_set]
        rep = PermGroup(G.degree, tuple(table.elements[i] for i in gens))
        out.append(SubgroupClass(representative=rep, order=len(key), class_size=len(classes[key])))
    return out


# ---------------------------------------------------------------------------
# serialization: "degree n" header, then one image sequence per line


def perm_to_text(g: Perm) -> str:
    return " ".join(map(str, g.images))


def group_to_text(G: PermGroup) -> str:
    lines = [f"degree {G.degree}"]
    lines.extend(perm_to_text(g) for g in G.generators)
    return "\n".join(lines) + "\n"


def group_from_text(text: str) -> PermGroup:
    """Parse the permutation-group text format; raises ValueError on
    malformed input."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty permutation group text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "degree":
        raise ValueError(f"expected 'degree n' header, got {lines[0]!r}")
    try:
        degree = int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad degree {head[1]!r}") from exc
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    gens = []
    for ln in lines[1:]:
        try:
            images = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise ValueError(f"bad permutation line {ln!r}") from exc
        if len(images) != degree:
            raise ValueError(f"permutation line has {len(images)} images, expected {degree}")
        if sorted(images) != list(range(degree)):
            raise ValueError(f"line is not a permutation of 0..{degree - 1}: {ln!r}")
        gens.append(Perm(images))
    return PermGroup(degree, tuple(gens))

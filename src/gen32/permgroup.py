"""Permutation groups with deterministic stabilizer chains.

Conventions, fixed once and used everywhere:

* A permutation of degree n acts on the points 0 .. n-1 and is stored as
  its image tuple, so ``g[x]`` is the image of x under g.
* Every gather of images -- a product, a composition, a key, a frontier
  of an orbit -- goes through ``_take(images, points)``, which reads
  ``images[x]`` for every x in ``points`` in one C call,
  ``itemgetter(*points)(images)``.  Only 0 or 1 points are special:
  ``itemgetter`` needs at least one argument and returns a bare value,
  not a 1-tuple, for exactly one.
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
Each level keeps its orbit as a breadth-first Schreier tree, one edge
(parent point, generator) per orbit point, not as degree-n transversal
elements: the transversal element u_delta is the product of the
generators on the tree path to delta, and it is built at full degree
only when it is asked for, then kept.  Elements are sifted through a
chain on their base images alone, each u_delta^-1 applied to them by
walking up the tree, so membership tests and the chain's verification
build no product per sifted level and no inverse of a transversal
element.

A group whose structure fixes a base is given that base when it is made:
a known base B of G is a sequence of points that only the identity of G
fixes, so two elements of G are equal exactly when they agree on B.
Matrix groups know the codes of the standard basis vectors, affine
groups the codes of an F_p-basis, AGL(1, q) the points 0 and 1, a
regular action any one point, and a subgroup of G (``subgroup``) G's
chain base.  The chain's verification then decides each Schreier
generator on B alone, and builds degree-n elements only for a residue
that becomes a strong generator; a level whose Schreier generators fix a
chain base that contains B is not checked at all.  With no base known,
B is every point: each Schreier generator is sifted on the base points
as above and then compared at full degree, from transversal elements
built on its level's tree and kept.  The decision is exact either way,
so the chain does not depend on B.
Element enumeration, when a task genuinely needs it, is a breadth-first
closure from the identity with layers sorted lexicographically, and is
capped at 10^5 elements.

An element of a group is keyed by its images of a list of points S that
begins with a base: ``g.images_of(S)``.  Only the identity of the group
fixes every base point, so the key determines the element.  Keys compose
without a degree-n product: key(x * g) = g.images_of(key(x)).  S is
the base of a chain followed by the points g^-1[b], for g a generator
and b a base point, not already listed, so one key also gives the base
images of every conjugate by a generator:
key(g^-1 x g)[i] = g[x[g^-1[b_i]]] for the i-th base point b_i.
Element enumeration, conjugacy classes, coset labels and the d search
all run on one keyed enumeration of the group (``KeyedElements``).  It
builds no degree-n product: a ``Perm`` is built, from the transversal
elements its base images are sifted by, only for an element a caller
asks for.  Keys are gathered a layer at a time: the keys of a whole
breadth-first layer, laid end to end, are mapped by a generator in one
gather, and so are the keys of a subgroup by a coset representative;
conjugation acts on element numbers through one integer map per
generator, gathered column by column from the keys.

The enumeration reads a chain whose base is lex-least: each base point
b_(i+1) is the least point moved by the stabilizer of b_1 .. b_i.  Two
distinct elements g and h then first differ at a base point (g^-1 h lies
in some such stabilizer and moves its next base point, while every
smaller point outside the base is fixed by that whole stabilizer), so
sorting keys, which begin with the base images, sorts the elements by
image tuples.  The group's own chain is used when its base is lex-least,
which each level shows by its strong generators' least moved point being
its base point; otherwise the enumeration builds a chain with the
lex-least base forced.

The subgroup census (``subgroups_up_to_conjugacy``) works one conjugacy
class at a time: a subgroup is generated by a maximal subgroup of it and
one element of prime-power order, so extending one representative per
class by the prime-power-order cyclic subgroups reaches every class.  It
runs on the element numbers of the keyed enumeration: an
``ElementTable`` holds their rows, the right multiplication by one
element, each one gather of keys.  A subgroup is closed by Dimino's
method, a whole right coset of the part found so far at a time, each
coset one gather of a row; and a new subgroup's conjugacy class is its
orbit under conjugation by G's generators, the maps of
``KeyedElements.conjugations`` applied to a whole number set in one
gather each.  Conjugates are compared by their elements' ranks in key
order, so the least one is the one whose sorted elements are least.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError
from .field import POINT_LIMIT, prime_factors

ELEMENT_LIMIT = 10**5
SUBGROUP_CENSUS_LIMIT = 2000


def _take(images: Sequence[int], points: Sequence[int]) -> tuple[int, ...]:
    """The tuple of ``images[x]`` for x in ``points``."""
    if len(points) > 1:
        return itemgetter(*points)(images)
    for x in points:
        return (images[x],)
    return ()


def _gather(
    images: Sequence[int], flat: Sequence[int], width: int, count: int
) -> list[tuple[int, ...]]:
    """The images of ``count`` keys of ``width`` points each, laid end to
    end in ``flat``: one gather for all of them, split into keys."""
    if not width:
        return [()] * count
    return list(zip(*[iter(_take(images, flat))] * width))


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
        return Perm._raw(_take(other.images, self.images))

    def images_of(self, points: Sequence[int]) -> tuple[int, ...]:
        """The images of the given points, in order."""
        return _take(self.images, points)

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
        return self.images == tuple(range(len(self.images)))

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
    """One level of a stabilizer chain: a base point, the strong
    generators fixing every earlier base point, and the breadth-first
    Schreier tree of the base point's orbit under them.

    ``parent[delta]`` is the tree edge (gamma, e) that first reached
    delta, delta = gens[e][gamma], and None at the base point.  The
    transversal element u_delta, which maps the base point to delta, is
    u_gamma * gens[e]: the product of the generators on the tree path
    from the base point.  Its image tuple is built only on request
    (``u``) and kept in ``built`` until the tree is rebuilt.
    """

    __slots__ = ("point", "gens", "orbit", "parent", "built", "_inverses")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        self.orbit: list[int] = []
        self.parent: dict[int, tuple[int, int] | None] = {}
        self.built: dict[int, tuple[int, ...]] = {}
        self._inverses: list[tuple[int, ...]] | None = None

    def close(self, identity: tuple[int, ...]) -> None:
        """Rebuild the orbit and its tree by breadth-first closure under
        the generators, and forget every built u_delta but the base
        point's."""
        parent: dict[int, tuple[int, int] | None] = {self.point: None}
        orbit = [self.point]
        for gamma in orbit:
            for e, s in enumerate(self.gens):
                delta = s.images[gamma]
                if delta not in parent:
                    parent[delta] = (gamma, e)
                    orbit.append(delta)
        self.parent, self.orbit = parent, orbit
        self.built = {self.point: identity}
        self._inverses = None

    def u(self, delta: int) -> tuple[int, ...]:
        """The image tuple of u_delta: that of delta's nearest built
        ancestor on the tree, times the generators on the path below it,
        each product kept."""
        built = self.built
        images = built.get(delta)
        if images is None:
            path = []
            while delta not in built:
                gamma, e = self.parent[delta]
                path.append((delta, e))
                delta = gamma
            images = built[delta]
            for delta, e in reversed(path):
                images = built[delta] = _take(self.gens[e].images, images)
        return images

    def unwind(self, delta: int, points: Sequence[int]) -> Sequence[int]:
        """u_delta^-1's images of some points: by ``index`` on u_delta
        when it is built, else up the tree, u_delta^-1 = gens[e]^-1 *
        u_gamma^-1, one lookup in a generator's inverse images per edge."""
        images = self.built.get(delta)
        if images is not None:
            return [y if images[y] == y else images.index(y) for y in points]
        if not points:
            return points
        if self._inverses is None:
            self._inverses = [g.inv().images for g in self.gens]
        parent, inverses = self.parent, self._inverses
        path = []
        edge = parent[delta]
        while edge is not None:
            delta, e = edge
            path.append(inverses[e])
            edge = parent[delta]
        out = []
        for y in points:
            for inverse in path:
                y = inverse[y]
            out.append(y)
        return out


class StabChain:
    """A verified stabilizer chain: per level a base point, the strong
    generators fixing all earlier base points, and the Schreier tree of
    the base point's orbit, from which each transversal element is built
    only when it is asked for."""

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

    def sift(
        self, images: Sequence[int], start: int = 0
    ) -> tuple[list[tuple[int, int]], int, Sequence[int]]:
        """Sift an element x, given by its images of the base points of
        the levels from ``start`` and then of any further points, through
        those levels.

        Returns the (level, orbit point) pair of each transversal element
        u_1, u_2, ..., u_k divided off, in order, the depth reached, and
        the residue's images of the points not yet sifted on: from the
        base point at that depth, so at full depth those of the further
        points.  The residue x * u_1^-1 * ... * u_k^-1 fixes the base
        points of the levels from start up to depth, and it is the
        identity exactly when x == u_k * ... * u_1.  x is in the group iff
        start == 0, depth == len(levels) and the residue is the identity.
        Only the images are moved, each level's u^-1 walked up its tree
        (``_Level.unwind``), so no transversal element is built.
        """
        levels = self.levels
        divisors = []
        for i in range(start, len(levels)):
            level = levels[i]
            delta = images[0]
            if delta == level.point:
                images = images[1:]
                continue
            if delta not in level.parent:
                return divisors, i, images
            divisors.append((i, delta))
            images = level.unwind(delta, images[1:])
        return divisors, len(levels), images

    def element(self, key: Sequence[int]) -> Perm:
        """The element of the chain's group with the given images of the
        base points: x = u_k * ... * u_1 for the transversal elements
        u_1 .. u_k that sifting the key divides off, each built and kept
        by its level (``_Level.u``)."""
        divisors, _, _ = self.sift(key)
        levels = self.levels
        factors = [levels[i].u(delta) for i, delta in reversed(divisors)]
        return Perm._raw(_compose(factors or [tuple(range(self.degree))]))

    def contains(self, g: Perm) -> bool:
        # g may lie outside the group, so it is compared at every point
        return g.degree == self.degree and self.element(g.images_of(self.base)) == g


def _compose(factors: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The image tuple of a product of image tuples applied left to
    right, one gather per factor."""
    images = factors[0]
    for f in factors[1:]:
        images = _take(f, images)
    return images


def _first_residue(
    chain: StabChain, i: int, extra: tuple[int, ...] | None
) -> tuple[Perm, int] | None:
    """The first Schreier generator of level i, in orbit and generator
    order, that does not sift to the identity, as its residue at full
    degree and the depth its sift reached; None when every one does.

    The Schreier generator of an orbit point gamma and a generator s is
    h = u_gamma * s * u_delta^-1, with delta = s[gamma]; it fixes the base
    points of level i and of every earlier one, and it is the identity
    when (gamma, s) is a tree edge.  Its images of the later base points
    are sifted on through the later levels.  If that divides off
    u_1 .. u_k, h sifts to the identity exactly when
    u_gamma * s == u_k * ... * u_1 * u_delta.

    u_gamma's images of the later base points, and of ``extra`` when it is
    given, are gathered once per pass, one gather per orbit point down the
    tree; s maps them, and u_delta^-1 is applied to them up the tree
    (``_Level.unwind``).  ``extra`` is the part of a known base B outside
    the chain's base: h is then the identity when it fixes every chain
    base point and ``extra``, and only an h that moves one of them has
    both sides built at full degree and compared.  ``extra`` is None when
    no base of the group is known, so B is every point: the sift is the
    same, and every h that is not a tree edge is decided at full degree.
    """
    levels = chain.levels
    level = levels[i]
    parent, gens = level.parent, level.gens
    later = chain.base[i + 1 :]
    depth = len(levels)
    on = {level.point: later if extra is None else later + extra}
    for delta in level.orbit[1:]:
        gamma, e = parent[delta]
        on[delta] = _take(gens[e].images, on[gamma])
    for gamma in level.orbit:
        for e, s in enumerate(gens):
            s_images = s.images
            delta = s_images[gamma]
            if parent[delta] == (gamma, e):
                continue  # a tree edge: h is the identity
            images = _take(s_images, on[gamma])
            if extra is not None and images == on[delta]:
                continue  # h fixes every chain base point and extra
            divisors, j, rest = chain.sift(level.unwind(delta, images), i + 1)
            if extra is not None and j == depth and tuple(rest) == extra:
                continue
            product = _take(s_images, level.u(gamma))
            quotient = _compose([levels[l].u(d) for l, d in reversed(divisors)] + [level.u(delta)])
            if j == depth and product == quotient:
                continue
            return Perm._raw(_take(Perm._raw(quotient).inv().images, product)), j
    return None


def build_chain(
    degree: int,
    generators: Sequence[Perm],
    initial_base: Sequence[int] = (),
    known_base: Sequence[int] | None = None,
) -> StabChain:
    """Deterministic incremental Schreier-Sims.

    ``initial_base`` forces the first base points (used to read off point
    stabilizers); further base points are always the smallest point moved
    by the element that required them.  The chain is verified from the
    deepest level upward; any Schreier generator that fails to sift
    (``_first_residue``) is appended as a strong generator of every level
    it fixes, and verification resumes at the deepest level it touched.

    Each level is kept as the Schreier tree of its orbit
    (``_Level.close``).  ``known_base``, when given, must be a base B of
    the group the generators generate, and decides each Schreier
    generator on B: a level whose Schreier generators fix a chain base
    containing B is skipped, and only a residue that becomes a strong
    generator is built at full degree, from the transversal elements it
    was divided by.  With no base known, B is every point, so every
    Schreier generator that is not a tree edge is built at full degree
    (``_first_residue``).  The decision is exact either way, so the
    chain does not depend on B.
    """
    identity = tuple(range(degree))
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

    for level in levels:
        level.close(identity)
    chain = StabChain(degree, levels)
    i = len(levels) - 1
    while i >= 0:
        extra = None
        if known_base is not None:
            base = set(chain.base)
            extra = tuple(b for b in known_base if b not in base)
        found = None
        if extra is None or extra or i + 1 < len(levels):
            found = _first_residue(chain, i, extra)
        if found is None:
            i -= 1
            continue
        residue, j = found
        if j == len(levels):
            add_level_for(residue)
        for l in range(i + 1, j + 1):
            levels[l].gens.append(residue)
            levels[l].close(identity)
        i = j
    return chain


def chain_from_stabilizer(
    degree: int, generators: Sequence[Perm], point: int, stabilizer: StabChain
) -> StabChain:
    """The chain of G = <generators> with first base point ``point``,
    assembled from a verified chain of the point stabilizer G_point: one
    level for the Schreier tree of the orbit of ``point`` under the
    generators, on top of the stabilizer chain's levels.

    No Schreier generator is sifted, so the caller must know that the
    stabilizer chain's group is exactly G_point (its base must not contain
    ``point``).  Then the orbit level, closed as in ``build_chain``, and
    the stabilizer's verified levels form a verified chain of G, and
    |G| = |orbit| * |G_point|.
    """
    level = _Level(point)
    level.gens = [g for g in generators if not g.is_identity()]
    level.close(tuple(range(degree)))
    return StabChain(degree, [level, *stabilizer.levels])


class KeyedElements:
    """Every element of a group, enumerated on keys.

    ``base`` is the point list S of the module docstring: the base of a
    lex-least chain, then each generator's preimages of its points.
    ``keys[i]`` is the i-th element's images of S; its first
    ``len(chain.base)`` entries, the element's base images, already
    determine it and order it.  Elements are numbered in enumeration
    order: a breadth-first closure from the identity under right
    multiplication by the generators, each new layer sorted by key.
    ``perm(i)`` builds the i-th element on first request and keeps it.
    """

    __slots__ = ("chain", "base", "keys", "_gens", "_perms", "_by_key", "_classes", "_orders")

    def __init__(self, group: PermGroup):
        self.chain = group.lex_least_chain()
        gens = [g.images for g in group.generators if not g.is_identity()]
        at = self.chain.base
        points = list(at)
        for g in gens:
            points.extend(p for p in map(g.index, at) if p not in points)
        base = tuple(points)
        width = len(base)
        keys = [base]
        seen = {base}
        start = 0
        while start < len(keys):
            end = len(keys)
            flat = list(chain.from_iterable(keys[start:end]))
            # the keys the layer reaches, one gather per generator
            reached = set(chain.from_iterable(_gather(g, flat, width, end - start) for g in gens))
            found = sorted(reached - seen)
            seen.update(found)
            keys.extend(found)
            start = end
        self.base = base
        self.keys = keys
        self._gens = gens
        self._perms: list[Perm | None] = [None] * len(keys)
        self._by_key: array | None = None
        self._classes: list[list[int]] | None = None
        self._orders: list[int] | None = None

    def perm(self, i: int) -> Perm:
        """The i-th element, sifted from its base images
        (``StabChain.element``)."""
        p = self._perms[i]
        if p is None:
            p = self._perms[i] = self.chain.element(self.keys[i][: len(self.chain.levels)])
        return p

    def perms(self) -> list[Perm]:
        """Every element, in enumeration order, each built once."""
        for i in range(len(self.keys)):
            self.perm(i)
        return self._perms

    def by_key(self) -> Sequence[int]:
        """Element numbers in key order, which is the order of their
        image tuples."""
        if self._by_key is None:
            self._by_key = array("l", sorted(range(len(self.keys)), key=self.keys.__getitem__))
        return self._by_key

    def conjugations(self) -> list[list[int]]:
        """Per generator g, the number of each element's conjugate
        g^-1 x g.  Built on each call and not kept, so the maps of a large
        group do not stay alive with its enumeration.

        The conjugate is found by its base images, g[x[g^-1[b_i]]]: every
        point g^-1[b_i] lies in S, so x's images of them are columns of
        the keys, and g maps each column in one gather.
        """
        keys, base, points = self.keys, self.chain.base, self.base
        width = len(base)
        index = {key[:width]: i for i, key in enumerate(keys)}
        # columns[p]: every element's image of the p-th point of S
        columns = list(zip(*keys))
        return [
            list(map(index.__getitem__, zip(*(
                _take(g, columns[points.index(g.index(b))]) for b in base
            ))))
            for g in self._gens
        ]

    def classes(self) -> list[list[int]]:
        """Conjugacy classes as element numbers, each in key order,
        ordered by their least member: orbits under ``conjugations()``."""
        if self._classes is None:
            conjugate = self.conjugations()
            # number the classes by their least members, then list each
            # class's members in key order
            label = [-1] * len(self.keys)
            count = 0
            for i in self.by_key():
                if label[i] >= 0:
                    continue
                label[i] = count
                members = [i]
                for x in members:
                    for c in conjugate:
                        j = c[x]
                        if label[j] < 0:
                            label[j] = count
                            members.append(j)
                count += 1
            classes: list[list[int]] = [[] for _ in range(count)]
            for i in self.by_key():
                classes[label[i]].append(i)
            self._classes = classes
        return self._classes

    def class_orders(self) -> list[int]:
        """The element order of each class of ``classes()``, computed
        once, on its least member."""
        if self._orders is None:
            self._orders = [self.perm(cls[0]).order() for cls in self.classes()]
        return self._orders

    def closure(self, perms: Sequence[Perm], limit: int | None = None) -> set[tuple[int, ...]] | None:
        """The keys of the subgroup generated by some elements of the
        group, or None when it has more than ``limit`` elements."""
        seen = {self.base}
        queue = [self.base]
        for key in queue:
            for g in perms:
                y = _take(g.images, key)
                if y not in seen:
                    if limit is not None and len(seen) >= limit:
                        return None
                    seen.add(y)
                    queue.append(y)
        return seen


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
        "_base",
        "_chain",
        "_lex_chain",
        "_stabs",
        "_keyed",
        "_orbits",
        "_orbit_of",
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
        self._base: tuple[int, ...] | None = None
        self._chain: StabChain | None = None
        self._lex_chain: StabChain | None = None
        self._stabs: dict[int, PermGroup] = {}
        self._keyed: KeyedElements | None = None
        self._orbits: list[list[int]] | None = None
        self._orbit_of: list[int] = []

    @classmethod
    def _with_base(cls, degree: int, generators: Iterable[Perm], base: Sequence[int]) -> PermGroup:
        """The group with a known base: points that only its identity
        fixes, which its chain's verification compares elements on."""
        group = cls(degree, generators)
        group._base = tuple(base)
        return group

    def subgroup(self, perms: Iterable[Perm]) -> PermGroup:
        """The subgroup generated by some elements of this group, which the
        caller vouches for; this group's chain base is a base of it."""
        return PermGroup._with_base(self.degree, perms, self.chain().base)

    # -- structure ---------------------------------------------------------

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = build_chain(self.degree, self.generators, (), self._base)
        return self._chain

    def lex_least_chain(self) -> StabChain:
        """A chain whose base is lex-least (see ``KeyedElements``): the
        group's own chain when its base is lex-least, else a chain built
        with the lex-least base forced.

        A level's strong generators generate the stabilizer of the earlier
        base points, so its base point is the least point that stabilizer
        moves exactly when it is the least point any of them moves.  Each
        rebuild forces one more lex-least base point.
        """
        if self._lex_chain is None:
            chain = self.chain()
            while True:
                for i, level in enumerate(chain.levels):
                    least = min(g.min_moved() for g in level.gens)
                    if least != level.point:
                        break
                else:
                    break
                forced = chain.base[:i] + (least,)
                chain = build_chain(self.degree, self.generators, forced, chain.base)
            self._lex_chain = chain
        return self._lex_chain

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return all(g.is_identity() for g in self.generators)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def contains(self, g: Perm) -> bool:
        return self.chain().contains(g)

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    def on_base_orbits(self) -> tuple[PermGroup, list[int]]:
        """The group's action on the union Omega of the orbits of its
        lex-least base points, relabelled in increasing order, and Omega
        as a sorted list; the group itself when Omega is every point.

        Omega contains a base, so the action is faithful.  The relabelling
        keeps the order of points, so the relabelled lex-least base is a
        lex-least base of the action, and its chain is built on that base,
        which also decides its Schreier generators: keys keep their order,
        and the keyed enumeration and its classes number the elements as
        on the group itself.
        """
        chain = self.lex_least_chain()
        omega: set[int] = set()
        for b in chain.base:
            if b not in omega:
                omega.update(self.orbit(b))
        points = sorted(omega)
        if len(points) == self.degree or not points:
            return self, points
        label = [0] * self.degree
        for i, x in enumerate(points):
            label[x] = i
        gens = [Perm._raw(_take(label, _take(g.images, points))) for g in self.generators]
        base = _take(label, chain.base)
        action = PermGroup._with_base(len(points), gens, base)
        action._chain = build_chain(len(points), gens, base, base)
        return action, points

    def keyed(self) -> KeyedElements:
        """The group's keyed enumeration; capped at 10^5 elements."""
        if self._keyed is None:
            if self.order() > ELEMENT_LIMIT:
                raise PreconditionError(
                    f"group order {self.order()} exceeds element enumeration cap {ELEMENT_LIMIT}"
                )
            self._keyed = KeyedElements(self)
        return self._keyed

    def elements(self) -> list[Perm]:
        """All elements, by breadth-first closure from the identity.

        Layers are generated by right multiplication with the generators
        and each new layer is sorted lexicographically, so the resulting
        order is reproducible.  The closure runs on keys (``keyed()``),
        and each element is built once from the chain's transversal
        elements (``StabChain.element``).
        Capped at 10^5 elements.
        """
        return self.keyed().perms()

    def orbit(self, alpha: int) -> list[int]:
        """The orbit of a point, as a sorted list."""
        if not 0 <= alpha < self.degree:
            raise PreconditionError(f"point {alpha} out of range")
        seen = {alpha}
        frontier = (alpha,)
        while frontier:
            new = set()
            for g in self.generators:
                new.update(_take(g.images, frontier))
            new -= seen
            seen |= new
            frontier = tuple(new)
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by their smallest point."""
        if self._orbits is None:
            label = list(range(self.degree))
            out = [[x] for x in label]
            if not self.is_trivial():
                label = [-1] * self.degree
                out = []
                for alpha in range(self.degree):
                    if label[alpha] < 0:
                        out.append(self.orbit(alpha))
                        for x in out[-1]:
                            label[x] = len(out) - 1
            self._orbits = out
            self._orbit_of = label
        return self._orbits

    def orbit_with(self, g: Perm, alpha: int) -> list[int]:
        """The points of the orbit of alpha under <self, g>, unsorted.

        That orbit is a union of orbits of this group, which are found
        once (``orbits``): it is grown from alpha's by whole orbits, each
        round mapping the points of the orbits it added by g in one pass
        and adding the orbits their images lie in.  For a trivial group
        every orbit is one point, so this walks alpha's cycle under g.
        """
        if not 0 <= alpha < self.degree or g.degree != self.degree:
            raise PreconditionError(f"point {alpha} or element degree {g.degree} out of range")
        orbits = self.orbits()
        label = self._orbit_of
        # into[x]: the orbit that g maps x into
        into = _take(label, g.images)
        joined = {label[alpha]}
        frontier = orbits[label[alpha]]
        points = []
        while frontier:
            points += frontier
            new = set(map(into.__getitem__, frontier))
            new -= joined
            joined |= new
            frontier = list(chain.from_iterable(map(orbits.__getitem__, new)))
        return points

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def point_stabilizer(self, alpha: int) -> PermGroup:
        """The stabilizer of a point, read off a chain based at it: the
        group's own chain when its base starts at alpha, else a new one."""
        if alpha not in self._stabs:
            chain = self.chain()
            if chain.base[:1] != (alpha,):
                chain = build_chain(self.degree, self.generators, (alpha,), chain.base)
            if len(chain.levels) <= 1:
                gens: tuple[Perm, ...] = ()
            else:
                gens = tuple(chain.levels[1].gens)
            self._stabs[alpha] = self.subgroup(gens)
        return self._stabs[alpha]

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> list[list[Perm]]:
        """Conjugacy classes, each sorted, ordered by their least member.
        The classes are found on keys (``KeyedElements.classes``)."""
        keyed = self.keyed()
        return [[keyed.perm(i) for i in cls] for cls in keyed.classes()]

    def elements_of_order(self, order: int) -> list[Perm]:
        """Every element of the given order, class by class.  Order is
        constant on a conjugacy class, so it is computed once per class,
        on the class's least member, and only the members of matching
        classes are built."""
        keyed = self.keyed()
        return [
            keyed.perm(i)
            for cls, o in zip(keyed.classes(), keyed.class_orders())
            if o == order
            for i in cls
        ]

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
    closure = G.subgroup(gens)
    queue = list(gens)
    while queue:
        x = queue.pop(0)
        for g in G.generators:
            y = x.conj(g)
            if y not in closure:
                gens.append(y)
                closure = G.subgroup(gens)
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


class CosetAction(NamedTuple):
    """The action of a group on the right cosets of a normal subgroup.

    ``group`` is the quotient as a permutation group on coset indices;
    ``reps`` holds the lexicographically least element of each coset, and
    ``labels`` maps the key of every group element, its images of
    ``G.keyed().base``, to its coset index.  Coset 0 is always the
    subgroup itself (the identity is the least element of all).
    """

    group: PermGroup
    reps: tuple[Perm, ...]
    labels: dict[tuple[int, ...], int]


def coset_action(G: PermGroup, N: PermGroup) -> CosetAction:
    """Label the right cosets of a normal subgroup and act on them.

    Cosets are indexed in order of their lexicographically least element;
    the quotient generators are the actions of G's generators by right
    multiplication.  The coset N e is labelled on keys: the keys of N's
    elements are a key closure, key(n * e) = e.images_of(key(n)), and only
    the representatives e are built, each applied to all of them in one
    gather.  G is enumerated, so |G| is capped like ``keyed()``.  The
    quotient acts regularly on the cosets, so it is given the base (0,).
    """
    if not normal_in(N, G):
        raise PreconditionError("can only form the quotient by a normal subgroup")
    index = G.order() // N.order()
    keyed = G.keyed()
    keys = keyed.keys
    n_keys = keyed.closure(N.generators)
    flat = list(chain.from_iterable(n_keys))
    width = len(keyed.base)
    labels: dict[tuple[int, ...], int] = {}
    reps: list[int] = []
    for i in keyed.by_key():
        if keys[i] in labels:
            continue
        coset = _gather(keyed.perm(i).images, flat, width, len(n_keys))
        labels.update(dict.fromkeys(coset, len(reps)))
        reps.append(i)
    images = [Perm(tuple(labels[g.images_of(keys[i])] for i in reps)) for g in G.generators]
    return CosetAction(
        group=PermGroup._with_base(index, images, (0,)),
        reps=tuple(keyed.perm(i) for i in reps),
        labels=labels,
    )


# ---------------------------------------------------------------------------
# exhaustive multiplication tables for very small groups


class ElementTable:
    """Right multiplication on the element numbers of a small group's
    keyed enumeration (``PermGroup.keyed``), a row at a time.

    ``_rows[y]``, None until first use, is y's row of the right regular
    representation: the number of x * y for every number x.  It is one
    gather: the base images of x * y are y.images_of(x's base images),
    so y maps every element's base images, laid end to end, at once.
    The identity is number 0.  Its one client is the subgroup census,
    ``subgroups_up_to_conjugacy``, which calls ``closure`` once per
    extension it tries.
    """

    __slots__ = ("keyed", "_flat", "_number", "_rows")

    def __init__(self, group: PermGroup):
        if group.order() > SUBGROUP_CENSUS_LIMIT:
            raise PreconditionError(
                f"group order {group.order()} exceeds the table cap {SUBGROUP_CENSUS_LIMIT}"
            )
        keyed = self.keyed = group.keyed()
        width = len(keyed.chain.base)
        keys = [key[:width] for key in keyed.keys]
        self._flat = list(chain.from_iterable(keys))
        self._number = {key: i for i, key in enumerate(keys)}
        self._rows: list[tuple[int, ...] | None] = [None] * len(keys)

    def __len__(self) -> int:
        return len(self._rows)

    def row(self, y: int) -> tuple[int, ...]:
        """The number of x * y for every number x."""
        r = self._rows[y]
        if r is None:
            width = len(self.keyed.chain.base)
            keys = _gather(self.keyed.perm(y).images, self._flat, width, len(self))
            r = self._rows[y] = tuple(map(self._number.__getitem__, keys))
        return r

    def closure(self, gen_ids: Sequence[int]) -> frozenset[int]:
        """The subgroup generated by the given element numbers, as a
        number set.

        Dimino's closure: the subgroup H found so far is extended by each
        generator g outside it to <H, g>, a union of right cosets H * y,
        each gathered from y's row at H's numbers.  The cosets are found
        from g by right multiplication of their representatives by the
        generators so far, until that gives no new coset.
        """
        found = [0]
        members = {0}
        gen_rows: list[tuple[int, ...]] = []
        for g in gen_ids:
            if g in members:
                continue
            gen_rows.append(self.row(g))
            prior = tuple(found)
            reps = [0]
            for r in reps:
                for row in gen_rows:
                    y = row[r]
                    if y not in members:
                        coset = _take(self.row(y), prior)
                        found.extend(coset)
                        members.update(coset)
                        reps.append(y)
        return frozenset(found)

    def cyclic(self, i: int) -> frozenset[int]:
        row = self.row(i)
        seen = {0}
        x = i
        while x not in seen:
            seen.add(x)
            x = row[x]
        return frozenset(seen)


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups: a canonical representative and
    the number of conjugates."""

    representative: PermGroup
    order: int
    class_size: int


def subgroups_up_to_conjugacy(G: PermGroup) -> list[SubgroupClass]:
    """All subgroups of a small group, one representative per conjugacy
    class, by cyclic extension one class at a time.

    A subgroup S > 1 has a maximal subgroup M, and S is generated by its
    elements of prime-power order, so some such x in S - M gives
    S = <M, x>.  Conjugating S so that M becomes the representative of
    its class, every class is therefore reached from the trivial group
    by extending each class representative by one generator of every
    prime-power-order cyclic subgroup it does not contain.  The
    conjugates of a subgroup not seen before are its orbit under
    conjugation by G's generators (``KeyedElements.conjugations``), and
    all of them are marked as seen.

    Elements are the numbers of G's keyed enumeration, compared by their
    rank in key order, the order of their image tuples.  The
    representative of a class is the conjugate whose sorted rank tuple
    is least, generated by the discovering generators conjugated by the
    least g that gives it, found by trying g upward: g^-1 S g is that
    conjugate L exactly when S * g == g * L, which rows give.  Classes
    are returned sorted by (order, that tuple).
    """
    table = ElementTable(G)
    keyed = table.keyed
    by_key = keyed.by_key()
    # rank[i]: the position of element i in key order
    rank = [0] * len(by_key)
    for r, i in enumerate(by_key):
        rank[i] = r
    # one generator, the least, of each prime-power-order cyclic subgroup
    extenders: list[int] = []
    cyclic_seen: set[frozenset[int]] = set()
    for x in by_key:
        sub = table.cyclic(x)
        if len(prime_factors(len(sub))) == 1 and sub not in cyclic_seen:
            cyclic_seen.add(sub)
            extenders.append(x)
    seen: set[frozenset[int]] = set()
    # per class: (sorted rank tuple, generators, number of conjugates)
    classes: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    conjugations = keyed.conjugations()

    def add_class(sub: frozenset[int], gens: tuple[int, ...]) -> None:
        conjugates = {sub}
        queue = [sub]
        for c in queue:
            for conj in conjugations:
                d = frozenset(_take(conj, c))
                if d not in conjugates:
                    conjugates.add(d)
                    queue.append(d)
        seen.update(conjugates)
        key = min(tuple(sorted(_take(rank, c))) for c in conjugates)
        least_rows = [table.row(x) for x in _take(by_key, key)]
        g = next(
            g for g in by_key
            if frozenset(_take(table.row(g), sub)) == {row[g] for row in least_rows}
        )
        row = table.row(g)
        g_inv = row.index(0)
        rep_gens = tuple(row[table.row(x)[g_inv]] for x in gens)
        classes.append((key, rep_gens, len(conjugates)))

    add_class(frozenset((0,)), ())
    w = 0
    while w < len(classes):
        key, gens, _ = classes[w]
        w += 1
        members = set(key)
        for x in extenders:
            if rank[x] in members:
                continue
            bigger = table.closure(gens + (x,))
            if bigger not in seen:
                add_class(bigger, gens + (x,))
    return [
        SubgroupClass(G.subgroup(map(keyed.perm, gens)), len(key), size)
        for key, gens, size in sorted(classes, key=lambda c: (len(c[0]), c[0]))
    ]


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
    malformed input and on a degree above ``POINT_LIMIT``, before any
    permutation line is read."""
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
    if degree > POINT_LIMIT:
        raise ValueError(f"degree {degree} exceeds cap {POINT_LIMIT}")
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
        gens.append(Perm._raw(images))
    return PermGroup(degree, tuple(gens))

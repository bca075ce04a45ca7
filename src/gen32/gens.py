"""Minimal generating sets: exact values, certified bounds, witnesses.

``d_exact`` computes d(G), the least size of a generating set, by
exhaustive search in a fixed enumeration order: tuples of size k are
scanned with the first slot running over conjugacy-class representatives
(ascending lexicographically) and the remaining slots over all elements
in enumeration order.  Conjugating a generating tuple preserves
generation, so fixing the first entry up to conjugacy loses nothing.
There is one scan for every group size and every tuple size, size 1
included (there it tests each representative's subgroup order), and it
runs on the keys of G's keyed enumeration (``PermGroup.keyed``): a slot
value is an element number, and it is built as a permutation only when
it enters a prefix or is a final candidate that the skip test and the
abelian filter let through.  A slot value inside the subgroup generated
by the preceding slots is skipped: removing it from a witness would
leave a smaller one, and the search only runs at size k after sizes < k
have been exhausted, so the skip never changes which witness is found
first.  The prefix subgroup is tracked as an explicit set of keys while
it has at most ``PREFIX_SET_LIMIT`` elements; past that the skip is not
applied.

Two necessary-condition filters reject candidates before any closure is
computed: the tuple must be transitive on every orbit of G (its orbits
refine G's, as it is drawn from G, so this says they are G's), and its
image in the abelianization G/[G,G] must generate the abelianization
(checked by ranks over each prime).  Both are conditions every
generating tuple satisfies, so no witness is ever filtered away.  The
orbit filter builds no group per candidate: the group P of the prefix
is fixed for the whole last-slot scan, so its orbits are found once,
for the first candidate tested, and each candidate x grows every orbit
of <P, x> by whole orbits of P (``PermGroup.orbit_with``).  A
candidate that passes both is accepted when its Schreier-Sims order is
|G|, and the returned witness is checked once more by ``generates``.

A last-slot candidate x that fails the orbit filter, or passes both
filters without generating, shows that K = <P, x> is a proper subgroup,
and no later candidate x' in K can complete the prefix, as <P, x'> <= K:
the scan prunes by the subgroups it has found (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, 4.6).  While P's keys are
tracked (not at the first slot, whose values are class representatives,
nor past the limit), every such K is closed on keys in full, whatever
its size, and its keys are marked, so a marked candidate is rejected
before a permutation is built for it.  Only candidates that cannot
generate are skipped, so the first witness does not move.  A skipped
candidate still counts as a test, as one the filters reject does, so
budgets, truncation points and budget messages are those of the scan
without the skip.
Middle slots do not skip this way, as a skipped middle value would take
its last-slot candidates out of that count.

Every l-rank is computed one way: an abelian X/Y has l-rank r exactly when
|X : Y X^l| = l^r, and Y X^l is generated by Y and the l-th powers of
X's generators.  The abelianization bound reads that index off chain
orders, and the abelian filter off orbit lengths in the regular action
of G/[G,G] on coset labels.  The same subgroups pick the filter's
last-slot labels: some x has <S, x> = A only when A/S is cyclic, and
then exactly the x outside every S A^l do.

The search runs on the points that carry G, not on all of them.  Let
Omega be the union of the orbits of the base points of G's lex-least
chain.  G acts faithfully on Omega, and relabelling Omega in increasing
order keeps every key's place in key order, so the action's keyed
enumeration, classes and candidate order are G's own
(``PermGroup.on_base_orbits``).  The whole search, filters and bounds
included, runs on that action; only the witness is taken back to G, by
sifting its keys through G's lex-least chain, and verified there.  For
S_0(49) on all 2,401 vectors, Omega has 96 points.

The projected cost of size k is classes(G) * |G|^(k-1) candidate
tuples.  When that exceeds the budget, ``d_exact`` switches to
bound-meet mode: a budget-capped search for an upper bound plus the
abelianization lower bound; the two must meet, else the result is
indeterminate (an error, never a guess).

``d_affine`` computes d(A) for an affine group A = V . L from
``constructions``, L irreducible over GF(q), without searching A: it
lifts a minimal witness of L (``A.linear``, on whose chain A's stands)
through the translations, one slot and then two at a time (two only
when V is reducible over GF(p)), and verifies generation directly.
When no lift generates, it searches A itself with ``d_exact``, if A is
within the enumeration cap.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple, Sequence

from .constructions import is_irreducible, translations
from .errors import IndeterminateError, PreconditionError
from .field import is_prime, prime_factors
from .permgroup import ELEMENT_LIMIT, Perm, PermGroup, coset_action, derived_subgroup

DEFAULT_BUDGET = 10**8
# the largest prefix subgroup of a middle slot whose keys are tracked;
# the last slot's failure closures are not bounded
PREFIX_SET_LIMIT = 4096
ABELIAN_FILTER_LIMIT = 256

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_SHORTCUT = "shortcut-LM"
METHOD_BOUND_MEET = "bound-meet"


class GenTuple(NamedTuple):
    """A tuple of group elements; ``verified`` records that generation
    was confirmed by an actual order computation."""

    elements: tuple[Perm, ...]
    verified: bool


class DResult(NamedTuple):
    """d(G) together with a witness and how it was obtained."""

    value: int
    witness: GenTuple
    method: str


def generates(G: PermGroup, perms: Sequence[Perm]) -> bool:
    """Whether the given elements of G generate all of G."""
    for g in perms:
        if g.degree != G.degree:
            raise PreconditionError("degree mismatch in generates()")
        if g not in G:
            raise PreconditionError("generates() requires elements of the group")
    return G.subgroup(perms).order() == G.order()


def _verified(G: PermGroup, perms: tuple[Perm, ...]) -> GenTuple:
    if not generates(G, perms):
        raise RuntimeError("internal error: candidate witness fails verification")
    return GenTuple(elements=perms, verified=True)


def _ell_rank(index: int, ell: int) -> int:
    """The ell-rank r of X/Y, given index = |X : Y X^ell|, which is ell^r."""
    r = 0
    while index % ell == 0:
        index //= ell
        r += 1
    if index != 1:
        raise RuntimeError("internal error: index is not a power of ell")
    return r


def d_lower_bound_abelian(G: PermGroup) -> int:
    """max over primes l dividing |G/[G,G]| of the l-rank of the
    abelianization; a certified lower bound for d(G) (0 for perfect or
    trivial G).

    The l-rank is read off chain orders: [G,G] G^l is generated by [G,G]
    and the l-th powers of G's generators, so no element is enumerated
    and G may exceed the enumeration cap.
    """
    n = G.order()
    if n == 1:
        return 0
    D = derived_subgroup(G)
    dn = D.order()
    if dn == n:
        return 0
    best = 0
    for ell in prime_factors(n // dn):
        M = G.subgroup(D.generators + tuple(g**ell for g in G.generators))
        best = max(best, _ell_rank(n // M.order(), ell))
    return best


# ---------------------------------------------------------------------------
# necessary-condition filters


class _AbelianFilter:
    """Per-element images in A = G/[G,G], with subgroup-span helpers.

    For a candidate tuple to generate G its image must generate A, so a
    prefix whose span S needs more new generators than there are open
    slots is dead, and the last slot may be restricted to elements whose
    image x satisfies <S, x> = A.  Coset indices of the derived
    subgroup D serve as labels for A's elements; index 0 is the identity.
    ``phi`` maps an element's key in G's keyed enumeration to its label.
    A acts regularly on the labels, so the subgroup spanned by some
    labels is the orbit of label 0 under their elements of A.
    """

    __slots__ = ("size", "phi", "_elt", "_powers", "_subs")

    def __init__(self, G: PermGroup, D: PermGroup):
        ca = coset_action(G, D)
        A = ca.group
        self.size = len(ca.reps)
        self.phi = ca.labels
        # the element of A labelled x is the one taking label 0 to x
        self._elt = {a[0]: a for a in A.elements()}
        # A^l is generated by the l-th powers of A's generators
        self._powers = {
            ell: tuple((q**ell)[0] for q in A.generators) for ell in prime_factors(self.size)
        }
        self._subs: dict[frozenset[int], dict[int, frozenset[int]]] = {}

    def span(self, labels: Sequence[int]) -> frozenset[int]:
        """The subgroup of A generated by the given labels."""
        return frozenset(PermGroup(self.size, [self._elt[x] for x in labels]).orbit(0))

    def _span_times_powers(self, span: frozenset[int]) -> dict[int, frozenset[int]]:
        """span A^l for each prime l dividing |A : span|."""
        subs = self._subs.get(span)
        if subs is None:
            subs = {
                ell: self.span((*span, *self._powers[ell]))
                for ell in prime_factors(self.size // len(span))
            }
            self._subs[span] = subs
        return subs

    def gens_needed(self, span: frozenset[int]) -> int:
        """d(A / span): how many more images are needed to cover A, the
        largest l-rank of A / span."""
        subs = self._span_times_powers(span)
        return max((_ell_rank(self.size // len(sub), ell) for ell, sub in subs.items()), default=0)

    def good_last(self, span: frozenset[int]) -> frozenset[int]:
        """Labels x with <span, x> = A (the only labels a final slot can
        usefully carry).  Only a cyclic A / span has them, and then they
        are the labels outside each of its maximal subgroups span A^l."""
        if self.gens_needed(span) > 1:
            return frozenset()
        return frozenset(range(self.size)).difference(*self._span_times_powers(span).values())


# ---------------------------------------------------------------------------
# the tuple search


class _Search:
    """Shared state for the level-by-level witness search on one group.

    ``run_level(k, limit)`` scans all size-k tuples in the canonical
    order, size 1 included, through the one slot scan of ``_extend``: the
    first slot runs over the class representatives and every later slot
    over all elements.  It must only be called once sizes < k are known
    to be witness-free (the skip rule relies on it).  ``tests`` counts
    final candidates attempted, those that lie in a subgroup the last
    slot has shown not to generate included, and persists across levels;
    when it reaches the limit the scan aborts with ``truncated`` set.
    """

    def __init__(self, G: PermGroup):
        self.G = G
        self.n = G.order()
        self._keyed = G.keyed()
        # the least member of every class but the identity's, which is first
        self._rep_ids = [cls[0] for cls in self._keyed.classes()[1:]]
        self.tests = 0
        self.truncated = False
        self._orbits = [o for o in G.orbits() if len(o) > 1]
        # the abelian filter, when G/[G,G] is nontrivial (a perfect
        # group's filter rejects nothing) and small
        D = derived_subgroup(G)
        ab_size = self.n // D.order()
        self._ab = _AbelianFilter(G, D) if 1 < ab_size <= ABELIAN_FILTER_LIMIT else None

    def _joins_orbits(self, P: PermGroup, g: Perm) -> bool:
        """Whether <P, g>, for a subgroup P of G and g in G, has G's
        orbits: its orbits refine G's, so it must only be transitive on
        G's non-singleton orbits, each grown by whole orbits of P
        (``PermGroup.orbit_with``)."""
        return all(len(P.orbit_with(g, o[0])) == len(o) for o in self._orbits)

    def run_level(self, k: int, limit: int | None) -> tuple[Perm, ...] | None:
        """First witness of size exactly k, or None; honors the test
        limit."""
        self.truncated = False
        return self._extend((), None, k, limit)

    def _extend(
        self,
        prefix: tuple[int, ...],
        sub: set[tuple[int, ...]] | None,
        remaining: int,
        limit: int | None,
    ) -> tuple[Perm, ...] | None:
        """The first witness that extends the prefix by ``remaining`` more
        elements, skipping those already in the subgroup ``sub`` it
        generates (None: not tracked).  The first slot runs over the
        class representatives, every later one over all elements.

        The last slot accepts a candidate x when <P, x> has G's orbits and
        order |G|.  While ``sub`` is tracked it closes every other <P, x>
        in full and marks its keys, and skips, after counting it as a
        test, each later candidate with a marked key."""
        keyed = self._keyed
        keys = keyed.keys
        ab = self._ab
        span = None
        if ab is not None and prefix:
            span = ab.span(sorted({ab.phi[keys[i]] for i in prefix}))
            if ab.gens_needed(span) > remaining:
                return None
        slots = self._rep_ids if not prefix else range(len(keys))
        if remaining == 1:
            good = ab.good_last(span) if span is not None else None
            perms = tuple(keyed.perm(i) for i in prefix)
            # per key: False in the prefix subgroup, True in a proper
            # subgroup <P, x> found by this scan; one lookup decides both
            failed = dict.fromkeys(sub, False) if sub is not None else {}
            P = None  # the prefix group, built for the first candidate tested
            for i in slots:
                key = keys[i]
                dead = failed.get(key)
                if dead is False:
                    continue
                if limit is not None and self.tests >= limit:
                    self.truncated = True
                    return None
                self.tests += 1
                if dead or (good is not None and ab.phi[key] not in good):
                    continue
                x = keyed.perm(i)
                if P is None:
                    P = self.G.subgroup(perms)
                cand = perms + (x,)
                if self._joins_orbits(P, x) and self.G.subgroup(cand).order() == self.n:
                    return cand
                if sub is not None:
                    _mark(failed, keyed.closure(cand))
            return None
        for i in slots:
            if sub is not None and keys[i] in sub:
                continue
            longer = prefix + (i,)
            closure = keyed.closure([keyed.perm(j) for j in longer], PREFIX_SET_LIMIT)
            got = self._extend(longer, closure, remaining - 1, limit)
            if got is not None:
                return got
            if self.truncated:
                return None
        return None


def _mark(failed: dict[tuple[int, ...], bool], closure: set[tuple[int, ...]]) -> None:
    """Mark the keys of a closure as in a subgroup that does not generate,
    leaving the prefix subgroup's as they are."""
    failed.update(dict.fromkeys(closure.difference(failed), True))


def _lift(
    G: PermGroup, action: PermGroup, points: list[int], perms: tuple[Perm, ...]
) -> tuple[Perm, ...]:
    """Elements of G's action on ``points`` (``PermGroup.on_base_orbits``)
    taken back to G, each by its images of the base, read as G's points
    and sifted through G's lex-least chain."""
    if action is G:
        return perms
    at = action.lex_least_chain().base
    chain = G.lex_least_chain()
    return tuple(chain.element([points[y] for y in p.images_of(at)]) for p in perms)


def d_exact(G: PermGroup, budget: int = DEFAULT_BUDGET) -> DResult:
    """The minimal number of generators of G, with a verified witness.

    Searches sizes k = 1, 2, ... exhaustively, each by the same slot
    scan (its first slot runs over the class representatives), while the
    projected candidate count classes(G) * |G|^(k-1) fits the budget,
    returning method 'exhaustive'.  Otherwise falls back to a
    budget-capped upper search that must meet the certified lower bound
    (method 'bound-meet'); anything else raises IndeterminateError.
    Requires |G| within the enumeration cap of ``PermGroup.keyed``.

    A last-slot candidate that passes the orbit and abelianization
    filters is accepted when its Schreier-Sims order is |G|; one that
    lies in a proper subgroup an earlier candidate of the same scan gave
    is skipped, and counted against the budget like any other test (see
    the module docstring).

    The search runs on G's action on the orbits of its base points
    (``PermGroup.on_base_orbits``), which numbers the elements as G does
    and so finds the same witness; the witness is taken back to G and
    verified there.
    """
    if budget < 1:
        raise PreconditionError("budget must be positive")
    n = G.order()
    if n == 1:
        return DResult(value=0, witness=GenTuple(elements=(), verified=True), method=METHOD_EXHAUSTIVE)
    R, points = G.on_base_orbits()
    search = _Search(R)
    classes = len(search._rep_ids)
    lower = None  # the certified lower bound, once the search meets the budget
    for k in range(1, (n - 1).bit_length() + 1):
        if lower is None and search.tests + classes * n ** (k - 1) > budget:
            lower = max(d_lower_bound_abelian(R), k)
        if lower is not None and search.tests >= budget:
            break
        witness = search.run_level(k, budget)
        if witness is not None:
            if lower is None or k == lower:
                return DResult(
                    value=k,
                    witness=_verified(G, _lift(G, R, points, witness)),
                    method=METHOD_EXHAUSTIVE if lower is None else METHOD_BOUND_MEET,
                )
            raise IndeterminateError(
                f"budget-capped search found a generating {k}-tuple but the certified "
                f"lower bound is only {lower}; raise the budget for an exact answer"
            )
        if search.truncated:
            raise IndeterminateError(
                f"budget {budget} exhausted inside the size-{k} scan with no witness; "
                f"certified so far: {lower} <= d(G)"
            )
        if lower is not None:
            lower = max(lower, k + 1)
    if lower is None:
        raise RuntimeError("internal error: no generating set up to log2(|G|)")
    raise IndeterminateError(
        f"budget {budget} exhausted before any generating tuple was found; "
        f"certified so far: {lower} <= d(G)"
    )


def d_affine(A: PermGroup, budget: int = DEFAULT_BUDGET) -> DResult:
    """d of an affine group A = V . L, as ``affine_group`` or
    ``affine_of_linear_perms`` builds it, for a nontrivial linear part L
    irreducible over GF(q), without searching A itself.

    A minimal witness for L (``A.linear``), padded with identities to
    max(2, d(L)) slots, has one slot and then two multiplied by
    translations until an order computation shows that it generates;
    that value is then exact, with method 'shortcut-LM'.  One slot
    suffices when V is irreducible over GF(p): the lifts that fail are
    the witness's cocycles, a subspace of V^m, and one holding every
    one-slot lift would be all of V^m, which Gaschutz's lemma rules out.
    Two slots are needed only when V is irreducible over GF(q) but not
    over GF(p), as for S_0(3) in GL(2, 9).  For <-1> in GL(1, 9) no lift
    generates, as d = 3 there: when no lift generates, d is searched on
    A itself (``d_exact``, with the same budget) if its order is within
    the enumeration cap, and otherwise IndeterminateError is raised, as
    it is when the lifts exhaust the budget.
    """
    if not is_irreducible(A):
        raise PreconditionError("d_affine needs an irreducible stabilizer")
    if A.linear.order() == 1:
        raise PreconditionError("d_affine needs a nontrivial stabilizer")
    inner = d_exact(A.linear, budget)
    value = max(2, inner.value)
    identity = A.identity()
    base = list(inner.witness.elements)
    base += [identity] * (value - len(base))
    shifts = [identity]  # shifts[u] is the translation by code u, built on first use
    attempts = 0
    for r in (1, 2):
        for slots in combinations(range(value), r):
            for codes in product(range(1, A.degree), repeat=r):
                attempts += 1
                if attempts > budget:
                    raise IndeterminateError("translation-lift budget exhausted")
                shifts += translations(A.field, A.dim, range(len(shifts), max(codes) + 1))
                cand = list(base)
                for j, u in zip(slots, codes):
                    cand[j] = cand[j] * shifts[u]
                if generates(A, cand):
                    return DResult(value, GenTuple(tuple(cand), True), METHOD_SHORTCUT)
    if A.order() <= ELEMENT_LIMIT:
        return d_exact(A, budget)
    raise IndeterminateError("no translation lift of the stabilizer witness generates")


def all_abelian_subgroups_cyclic(G: PermGroup) -> bool:
    """Whether every abelian subgroup of G is cyclic.

    A noncyclic abelian group contains C_l x C_l for a prime l, and
    conjugating such a subgroup makes one of its generators the least
    member of its class.  So G passes exactly when each class whose least
    member x has prime order l has exactly l - 1 elements of order l
    commuting with x, namely x's nontrivial powers.  Requires |G| within
    the enumeration cap of ``PermGroup.keyed``.
    """
    keyed = G.keyed()
    for cls, ell in zip(keyed.classes(), keyed.class_orders()):
        if is_prime(ell):
            x = keyed.perm(cls[0])
            if sum(x * y == y * x for y in G.elements_of_order(ell)) != ell - 1:
                return False
    return True

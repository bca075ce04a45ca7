import random
from itertools import combinations
from math import lcm

import pytest

from field_reference import decode_vector, encode_vector, identity_matrix
from search_reference import ReferenceSearch
from gen32.constructions import (
    affine_group,
    affine_of_linear_perms,
    agl1,
    s0_group,
    sl2,
    table1_group,
    table1_matrix_group,
    table2_group,
    table2_matrix_group,
    translation_perms,
    translations,
    z_group,
)
from gen32.errors import IndeterminateError, PreconditionError
from gen32.field import prime_factors
from gen32.gens import (
    DEFAULT_BUDGET,
    _AbelianFilter,
    _Search,
    all_abelian_subgroups_cyclic,
    d_affine,
    d_exact,
    d_lower_bound_abelian,
    generates,
)
from gen32.matgroup import MatrixGroup
from gen32.field import field_make
from gen32 import gens, permgroup
from gen32.permgroup import (
    Perm,
    PermGroup,
    coset_action,
    derived_subgroup,
    normal_closure,
    subgroups_up_to_conjugacy,
    symmetric_group,
)
from gen32.verify import _negative_corpus, _positive_corpus


def quaternion8():
    x = Perm([1, 2, 3, 0, 7, 4, 5, 6])
    y = Perm([4, 5, 6, 7, 2, 3, 0, 1])
    return PermGroup(8, (x, y))


def quaternion16():
    x_images, y_images = [], []
    for j in (0, 1):
        for i in range(8):
            if j == 0:
                x_images.append((i + 1) % 8)
                y_images.append(8 + i)
            else:
                x_images.append(8 + (i - 1) % 8)
                y_images.append((i + 4) % 8)
    return PermGroup(16, (Perm(x_images), Perm(y_images)))


def dihedral(n):
    rot = Perm([(i + 1) % n for i in range(n)])
    flip = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, (rot, flip))


def cyclic_regular(n):
    return PermGroup(n, (Perm([(i + 1) % n for i in range(n)]),))


def elementary_8():
    # C2 x C2 x C2 as three commuting transpositions
    return PermGroup(
        6,
        (
            Perm.from_cycles(6, [(0, 1)]),
            Perm.from_cycles(6, [(2, 3)]),
            Perm.from_cycles(6, [(4, 5)]),
        ),
    )


def d_naive(G):
    """Minimal generating set size by raw subset search (no conjugacy
    reduction, no pruning): the independent oracle."""
    order = G.order()
    if order == 1:
        return 0
    elems = [g for g in G.elements() if not g.is_identity()]
    for k in range(1, len(elems) + 1):
        for subset in combinations(elems, k):
            seen = {Perm.identity(G.degree)}
            frontier = list(subset)
            for g in subset:
                seen.add(g)
            while frontier:
                nxt = []
                for a in frontier:
                    for b in subset:
                        c = a * b
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                frontier = nxt
            if len(seen) == order:
                return k
    raise AssertionError("unreachable: the full element set generates")


# ---------------------------------------------------------------------------
# d_exact basics


def test_d_trivial_group():
    res = d_exact(PermGroup(3, ()))
    assert res.value == 0
    assert res.witness.elements == ()
    assert res.witness.verified
    assert res.method == "exhaustive"


@pytest.mark.parametrize(
    "G,expected",
    [
        (cyclic_regular(5), 1),
        (cyclic_regular(12), 1),
        (PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)]))), 2),
        (symmetric_group(3), 2),
        (symmetric_group(4), 2),
        (quaternion8(), 2),
        (quaternion16(), 2),
        (dihedral(6), 2),
        (elementary_8(), 3),
        (z_group(5, 4, 2), 2),
    ],
)
def test_d_known_values(G, expected):
    res = d_exact(G)
    assert res.value == expected
    assert len(res.witness.elements) == expected
    assert res.witness.verified
    assert generates(G, res.witness.elements)


def test_d_matches_naive_oracle_small_corpus():
    corpus = [
        cyclic_regular(1),
        cyclic_regular(4),
        PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)]))),
        symmetric_group(3),
        dihedral(4),
        quaternion8(),
        elementary_8(),
        z_group(3, 4, 2),
        PermGroup(4, (Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)]))),
    ]
    for G in corpus:
        assert d_exact(G).value == d_naive(G)


def random_small_group(seed):
    """A group of degree 2..7 generated by 1-3 random cycles, half of
    them transpositions, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    degree = rng.randint(2, 7)
    gens = []
    for _ in range(rng.randint(1, 3)):
        cycle = rng.sample(range(degree), rng.choice((2, rng.randint(2, degree))))
        images = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        gens.append(Perm(images))
    return PermGroup(degree, gens)


def bfs_closure_count(G):
    seen = {Perm.identity(G.degree)}
    frontier = list(seen)
    while frontier:
        frontier = [h for g in frontier for s in G.generators if (h := g * s) not in seen]
        seen.update(frontier)
    return len(seen)


@pytest.mark.parametrize("seed", range(0, 200, 40))
def test_order_matches_bfs_closure_on_random_groups(seed):
    for s in range(seed, seed + 40):
        G = random_small_group(s)
        assert G.order() == bfs_closure_count(G), s


# Oracles for the base-image keys: each recomputes with full products.
# The three families have chain bases shorter than their degree.
KEYED_CORPUS = [
    pytest.param(lambda: [random_small_group(s) for s in range(100)], id="random"),
    pytest.param(lambda: [agl1(13)], id="agl1(13)"),
    pytest.param(lambda: [sl2(5).perm_group("all")], id="sl2(5)-all"),
    pytest.param(lambda: [s0_group(9).perm_group("all")], id="s0(9)-all"),
]


def elements_by_products(G):
    """Breadth-first closure from the identity, layers sorted."""
    gens = [g for g in G.generators if not g.is_identity()]
    out = [G.identity()]
    seen = set(out)
    layer = out
    while layer:
        layer = sorted({y for x in layer for g in gens if (y := x * g) not in seen})
        seen.update(layer)
        out = out + layer
    return out


def classes_by_definition(G):
    """{g^-1 x g : g in G} for each x, ordered by least member."""
    elems = elements_by_products(G)
    classes, done = [], set()
    for x in sorted(elems):
        if x not in done:
            cls = sorted({g.inv() * x * g for g in elems})
            done.update(cls)
            classes.append(cls)
    return classes


def coset_labels_by_products(G, N):
    """Coset reps and labels n * e, in the order coset_action makes them."""
    reps, coset_of = [], {}
    for e in sorted(elements_by_products(G)):
        if e not in coset_of:
            reps.append(e)
            for n in elements_by_products(N):
                coset_of[n * e] = len(reps) - 1
    return reps, coset_of


def labels_by_key(G, coset_of):
    """Coset labels keyed, as coset_action keys them, by each element's
    images of G.keyed().base."""
    base = G.keyed().base
    return {g.images_of(base): label for g, label in coset_of.items()}


@pytest.mark.parametrize("make", KEYED_CORPUS)
def test_elements_match_product_closure(make):
    for G in make():
        assert G.elements() == elements_by_products(G)


@pytest.mark.parametrize("make", KEYED_CORPUS)
def test_conjugacy_classes_match_definition(make):
    for G in make():
        assert G.conjugacy_classes() == classes_by_definition(G)


@pytest.mark.parametrize("make", KEYED_CORPUS)
def test_coset_labels_match_products(make):
    for G in make():
        trivial = PermGroup(G.degree, ())
        for N in (trivial, derived_subgroup(G), normal_closure(G, G.generators[-1:])):
            ca = coset_action(G, N)
            reps, coset_of = coset_labels_by_products(G, N)
            assert ca.reps == tuple(reps)
            assert ca.labels == labels_by_key(G, coset_of)
            action = tuple(Perm([coset_of[r * g] for r in reps]) for g in G.generators)
            assert ca.group.generators == action


def has_lex_least_base(G):
    """Whether each base point of G's own chain is the least point moved
    by the stabilizer of the earlier ones."""
    return all(min(g.min_moved() for g in lv.gens) == lv.point for lv in G.chain().levels)


def closure_by_products(perms, degree):
    seen = {Perm.identity(degree)}
    frontier = list(seen)
    while frontier:
        frontier = [h for g in frontier for s in perms if (h := g * s) not in seen]
        seen.update(frontier)
    return seen


def first_witness_by_products(G):
    """The first generating tuple of least size in the canonical order:
    the first slot over the least members of classes_by_definition but the
    identity's, the others over elements_by_products, skipping a value in
    the span of the earlier slots."""
    reps = [cls[0] for cls in classes_by_definition(G)[1:]]
    elems = elements_by_products(G)

    def rec(prefix, remaining):
        sub = closure_by_products(prefix, G.degree)
        if remaining == 0:
            return prefix if len(sub) == G.order() else None
        for c in elems:
            if c not in sub and (got := rec(prefix + (c,), remaining - 1)):
                return got
        return None

    for k in range(1, G.order()):
        for r in reps:
            if got := rec((r,), k - 1):
                return got
    return ()


def random_groups_without_a_lex_least_base():
    return [
        G for G in map(random_small_group, range(300))
        if G.order() <= 120 and not has_lex_least_base(G)
    ]


def stabilizers_by_witness():
    """The G1 and G2 stabilizers generated by their d_exact witnesses,
    whose own chains have the bases (4, 0) and (8, 0)."""
    out = []
    for i in (1, 2):
        G = table1_matrix_group(i).perm_group("nonzero")
        out.append(PermGroup(G.degree, d_exact(G).witness.elements))
    return out


# Groups whose own chain's base is not lex-least, so their enumeration
# reads a second chain; the oracles are the ones above, unchanged.
NON_LEX_LEAST_CORPUS = [
    pytest.param(stabilizers_by_witness, id="stabilizers"),
    pytest.param(random_groups_without_a_lex_least_base, id="random"),
]


@pytest.mark.parametrize("make", NON_LEX_LEAST_CORPUS)
def test_keyed_enumeration_matches_oracles_without_a_lex_least_base(make):
    groups = make()
    assert len(groups) >= 2
    for G in groups:
        assert not has_lex_least_base(G)
        base = G.chain().base
        assert G.elements() == elements_by_products(G)
        assert G.conjugacy_classes() == classes_by_definition(G)
        perms = G.keyed().perms()
        gens = [g for g in G.generators if not g.is_identity()]
        conjugations = G.keyed().conjugations()
        assert len(conjugations) == len(gens)
        for g, conj in zip(gens, conjugations):
            assert [perms[j] for j in conj] == [x.conj(g) for x in perms]
        for N in (PermGroup(G.degree, ()), derived_subgroup(G)):
            ca = coset_action(G, N)
            reps, coset_of = coset_labels_by_products(G, N)
            assert ca.reps == tuple(reps)
            assert ca.labels == labels_by_key(G, coset_of)
        # the enumeration's chain is lex-least; the group's own is kept
        assert G.chain().base == base
        assert G.keyed().chain.base != base


def test_classes_read_the_keys_without_a_gather(monkeypatch):
    # every key holds the images of the points g^-1[b] that a conjugate's
    # base images are read from, so the classes need no second pass
    groups = [agl1(13), sl2(5).perm_group("all"), *stabilizers_by_witness()]
    groups += random_groups_without_a_lex_least_base()
    gathers = []
    real = permgroup._gather

    def counting(*args):
        gathers.append(args)
        return real(*args)

    for G in groups:
        keyed = G.keyed()
        width = len(keyed.chain.base)
        assert keyed.base[:width] == keyed.chain.base
        for i, key in enumerate(keyed.keys):
            assert key[:width] == keyed.perm(i).images_of(keyed.chain.base)
        monkeypatch.setattr(permgroup, "_gather", counting)
        assert [[keyed.perm(i) for i in cls] for cls in keyed.classes()] == classes_by_definition(G)
        monkeypatch.setattr(permgroup, "_gather", real)
    assert gathers == []


def test_witnesses_match_reference_without_a_lex_least_base():
    H1, H2 = stabilizers_by_witness()
    for G in [*random_groups_without_a_lex_least_base(), H1]:
        assert d_exact(G).witness.elements == first_witness_by_products(G), G.generators
    # the reference takes seconds on H2 (d = 4); its answer, once computed,
    # is H2's generators, the first four elements after the identity
    assert d_exact(H2).witness.elements == tuple(elements_by_products(H2)[1:5])


def doubled_intransitive_group(seed):
    """A random small group acting twice over, on 2n shuffled points, with
    fixed points: its lex-least base lies in some of its orbits only."""
    rng = random.Random(seed)
    H = random_small_group(seed)
    n = H.degree
    extra = rng.randint(0, 2)
    relabel = list(range(2 * n + extra))
    rng.shuffle(relabel)
    gens = []
    for g in H.generators:
        images = list(range(2 * n + extra))
        for x in range(n):
            images[relabel[x]] = relabel[g[x]]
            images[relabel[n + x]] = relabel[n + g[x]]
        for x in range(2 * n, 2 * n + extra):
            images[relabel[x]] = relabel[x]
        gens.append(Perm(images))
    return PermGroup(2 * n + extra, gens)


def d_outcome(G, budget):
    try:
        res = d_exact(G, budget)
    except IndeterminateError as exc:
        return ("indeterminate", str(exc))
    return (res.value, res.method, [g.images for g in res.witness.elements])


def test_d_on_the_base_orbits_matches_the_full_degree_search(monkeypatch):
    groups = [doubled_intransitive_group(s) for s in range(120)]
    groups = [G for G in groups if G.order() <= 720]
    restricted = [G for G in groups if G.on_base_orbits()[0] is not G]
    assert len(restricted) >= 40
    assert sum(not has_lex_least_base(G) for G in restricted) >= 10
    budgets = (3, 10, 50, DEFAULT_BUDGET)
    got = [[d_outcome(G, b) for b in budgets] for G in restricted]
    # the same search on every point: the action on the base orbits is G
    monkeypatch.setattr(PermGroup, "on_base_orbits", lambda G: (G, list(range(G.degree))))
    fresh = [PermGroup(G.degree, G.generators) for G in restricted]
    want = [[d_outcome(G, b) for b in budgets] for G in fresh]
    assert got == want
    outcomes = {o[0] for row in got for o in row}
    assert "indeterminate" in outcomes and outcomes - {"indeterminate"}


def test_d_of_s0_49_runs_on_96_points():
    G = s0_group(49).perm_group("all")
    action, points = G.on_base_orbits()
    assert (G.degree, action.degree, len(points)) == (2401, 96, 96)
    res = d_exact(G)
    assert len(res.witness.elements) == res.value == 3
    assert all(g.degree == 2401 for g in res.witness.elements)
    assert generates(G, res.witness.elements)


def test_d_search_leaves_no_cyclic_garbage():
    """The CLI pauses the cyclic collector while a command runs: the d
    search, on the base orbits and through the abelian filter, must leave
    everything to reference counting."""
    import gc

    gc.collect()
    gc.disable()
    try:
        results = [
            d_exact(s0_group(9).perm_group("all")),
            d_exact(agl1(13)),
            d_affine(table1_group(1)),
        ]
        with pytest.raises(IndeterminateError):
            d_exact(agl1(16), 7)
        del results
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_builds_few_elements():
    # agl1(127) has 16,002 elements: the search builds its 126 nontrivial
    # class representatives, the identity (a coset representative of the
    # abelian filter) and the one final candidate that passes the filters,
    # which generates
    built = []
    for _ in range(2):
        G = agl1(127)
        assert d_exact(G).value == 2
        built.append(sum(p is not None for p in G.keyed()._perms))
    assert built == [128, 128]


@pytest.mark.parametrize("seed", range(0, 100, 20))
def test_d_matches_naive_oracle_on_random_groups(seed):
    for s in range(seed, seed + 20):
        G = random_small_group(s)
        res = d_exact(G)
        assert res.value == d_naive(G), s
        assert generates(G, res.witness.elements)


def corollary3_case2_overgroup(j):
    """V . T_0 on 81 points for the j-th class that ``verify_corollary3(2)``
    enumerates, the group of claim ``corollary3.case2.T{j:02d}``."""
    G0m, M0m = table1_matrix_group(2), table2_matrix_group(2)
    G0 = G0m.perm_group("all")
    ca = coset_action(M0m.perm_group("all"), G0)
    Tbar = subgroups_up_to_conjugacy(ca.group)[j].representative
    lifts = tuple(ca.reps[g.images[0]] for g in Tbar.generators)
    return affine_of_linear_perms(G0m.field, G0m.dim, G0.generators + lifts)


def search_trace(search_cls, G, budget):
    """d_exact's outcome when it searches with ``search_cls``, and each
    level's (k, witness, tests, truncated)."""
    levels = []

    class Recording(search_cls):
        def run_level(self, k, limit):
            got = super().run_level(k, limit)
            levels.append((k, got and [g.images for g in got], self.tests, self.truncated))
            return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gens, "_Search", Recording)
        outcome = d_outcome(G, budget)
    return outcome, levels


@pytest.mark.parametrize("cap", [gens.PREFIX_SET_LIMIT, 8])
@pytest.mark.parametrize("seed", range(0, 210, 70))
def test_last_slot_pruning_matches_the_unpruned_scan_on_random_groups(monkeypatch, seed, cap):
    # with the cap at 8 fewer middle-slot prefixes are tracked, and a failed
    # <P, x> over the cap is still closed in full and marked
    monkeypatch.setattr(gens, "PREFIX_SET_LIMIT", cap)
    marked = []
    mark = gens._mark
    monkeypatch.setattr(gens, "_mark", lambda failed, keys: marked.append(keys) or mark(failed, keys))
    groups = [G for G in map(random_small_group, range(seed, seed + 70)) if G.order() <= 720]
    for G in groups:
        for budget in (3, 10, 50, DEFAULT_BUDGET):
            got = search_trace(gens._Search, G, budget)
            assert got == search_trace(ReferenceSearch, G, budget), (G.generators, budget)
    assert any(keys is not None for keys in marked)


@pytest.mark.parametrize(
    "make",
    [lambda: table2_matrix_group(2).perm_group("nonzero"), lambda: corollary3_case2_overgroup(3)],
    ids=["table2 G0", "corollary3 case2 T03"],
)
def test_last_slot_pruning_matches_the_unpruned_scan_on_the_papers_groups(make):
    for budget in (2000, DEFAULT_BUDGET):
        assert search_trace(gens._Search, make(), budget) == search_trace(ReferenceSearch, make(), budget)


def test_table2_stabilizer_search_tests_few_orbits(monkeypatch):
    # the unpruned scan tests 1,945 candidates against the orbit filter,
    # and all of them fail
    G = table2_matrix_group(2).perm_group("nonzero")
    calls = []
    orbit_with = PermGroup.orbit_with
    monkeypatch.setattr(
        PermGroup, "orbit_with", lambda P, g, alpha: calls.append(alpha) or orbit_with(P, g, alpha)
    )
    assert d_exact(G).value == 2
    assert len(calls) <= 150


def test_corollary3_overgroup_search_builds_few_chains(monkeypatch):
    # T10, of order 15,552: the unpruned scan builds 3,463 chains, one per
    # candidate that passes both filters
    G = corollary3_case2_overgroup(10)
    assert G.order() == 15552
    builds = []
    build_chain = permgroup.build_chain
    monkeypatch.setattr(permgroup, "build_chain", lambda *args: builds.append(args) or build_chain(*args))
    assert d_exact(G).value == 2
    assert len(builds) <= 20


def search_work(monkeypatch, G):
    """d_exact's witness on G with the closures passed to ``_mark`` and the
    number of ``orbit_with`` calls it makes."""
    marked, calls = [], []
    mark = gens._mark
    orbit_with = PermGroup.orbit_with
    with monkeypatch.context() as mp:
        mp.setattr(gens, "_mark", lambda failed, keys: marked.append(keys) or mark(failed, keys))
        mp.setattr(PermGroup, "orbit_with", lambda P, g, alpha: calls.append(alpha) or orbit_with(P, g, alpha))
        witness = [g.images for g in d_exact(G).witness.elements]
    return witness, marked, len(calls)


def test_failed_subgroups_over_the_cap_are_marked_in_full(monkeypatch):
    want = [g.images for g in d_exact(corollary3_case2_overgroup(3)).witness.elements]
    monkeypatch.setattr(gens, "PREFIX_SET_LIMIT", 64)
    G = corollary3_case2_overgroup(3)
    witness, marked, calls = search_work(monkeypatch, G)
    assert witness == want
    # a proper <P, x> over the cap whose keys are marked
    assert any(64 < len(keys) < G.order() for keys in marked)
    # marking every failed subgroup skips its members before the orbit
    # filter: orbit-testing every candidate makes 2,400 calls
    assert calls <= 200


@pytest.mark.parametrize("j", [3, 10])
def test_a_small_prefix_cap_leaves_the_last_slot_work_unchanged(monkeypatch, j):
    # the cap bounds only which middle-slot prefixes are tracked, not the
    # last slot's failure closures, so none of them is abandoned
    G = corollary3_case2_overgroup(j)
    witness, marked, calls = search_work(monkeypatch, G)
    monkeypatch.setattr(gens, "PREFIX_SET_LIMIT", 64)
    small_witness, small_marked, small_calls = search_work(monkeypatch, corollary3_case2_overgroup(j))
    assert None not in small_marked
    assert (len(small_marked), small_calls) == (len(marked), calls)
    assert small_witness == witness


def orbit_count_by_union_find(degree, perms):
    """The number of orbits of <perms>, by union-find over every point: the
    orbit filter of the tuple search before it asked for transitivity."""
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in perms:
        img = g.images
        for x in range(degree):
            rx, ry = find(x), find(img[x])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return sum(1 for x in range(degree) if parent[x] == x)


@pytest.mark.parametrize("seed", range(0, 100, 25))
def test_orbit_filter_matches_union_find_reference(seed):
    verdicts = set()
    for s in range(seed, seed + 25):
        G = random_small_group(s)
        search = _Search(G)
        elems = G.elements()
        rng = random.Random(s)
        for _ in range(20):
            cand = tuple(rng.choice(elems) for _ in range(rng.randint(1, 3)))
            expected = orbit_count_by_union_find(G.degree, cand) == len(G.orbits())
            P = PermGroup(G.degree, cand[:-1])
            assert search._joins_orbits(P, cand[-1]) == expected, s
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_size_one_level_computes_no_element_order_in_a_nonabelian_group(monkeypatch):
    G = symmetric_group(4)
    search = _Search(G)
    monkeypatch.setattr(Perm, "order", lambda self: pytest.fail("element order computed"))
    assert search.run_level(1, None) is None
    assert search.tests == len(search._rep_ids) == 4
    search.tests = 0
    assert search.run_level(1, 2) is None
    assert search.truncated and search.tests == 2
    monkeypatch.undo()
    assert d_exact(cyclic_regular(6)).value == 1


@pytest.mark.parametrize(
    "make,witness",
    [
        pytest.param(
            lambda: symmetric_group(4),
            (
                (0, 1, 3, 2),
                (1, 2, 3, 0),
            ),
            id="sym(4)",
        ),
        pytest.param(
            lambda: z_group(7, 3, 2),
            (
                (1, 2, 3, 4, 5, 6, 0, 9, 10, 11, 12, 13, 7, 8, 18, 19, 20, 14,
                 15, 16, 17),
                (7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 1, 2,
                 3, 4, 5, 6),
            ),
            id="zgroup(7,3,2)",
        ),
        pytest.param(
            lambda: s0_group(5).perm_group("nonzero"),
            (
                (0, 1, 2, 3, 19, 20, 21, 22, 23, 14, 15, 16, 17, 18, 9, 10, 11,
                 12, 13, 4, 5, 6, 7, 8),
                (1, 3, 0, 2, 14, 16, 18, 15, 17, 4, 6, 8, 5, 7, 19, 21, 23, 20,
                 22, 9, 11, 13, 10, 12),
                (4, 9, 14, 19, 0, 5, 10, 15, 20, 1, 6, 11, 16, 21, 2, 7, 12, 17,
                 22, 3, 8, 13, 18, 23),
            ),
            id="s0(5)",
        ),
        pytest.param(
            lambda: s0_group(9).perm_group("nonzero"),
            (
                (0, 1, 2, 3, 4, 5, 6, 7, 17, 18, 19, 20, 21, 22, 23, 24, 25, 8,
                 9, 10, 11, 12, 13, 14, 15, 16, 53, 54, 55, 56, 57, 58, 59, 60,
                 61, 71, 72, 73, 74, 75, 76, 77, 78, 79, 62, 63, 64, 65, 66, 67,
                 68, 69, 70, 26, 27, 28, 29, 30, 31, 32, 33, 34, 44, 45, 46, 47,
                 48, 49, 50, 51, 52, 35, 36, 37, 38, 39, 40, 41, 42, 43),
                (3, 7, 4, 5, 0, 6, 1, 2, 44, 48, 52, 49, 50, 45, 51, 46, 47, 62,
                 66, 70, 67, 68, 63, 69, 64, 65, 71, 75, 79, 76, 77, 72, 78, 73,
                 74, 8, 12, 16, 13, 14, 9, 15, 10, 11, 26, 30, 34, 31, 32, 27,
                 33, 28, 29, 35, 39, 43, 40, 41, 36, 42, 37, 38, 53, 57, 61, 58,
                 59, 54, 60, 55, 56, 17, 21, 25, 22, 23, 18, 24, 19, 20),
                (8, 17, 26, 35, 44, 53, 62, 71, 0, 9, 18, 27, 36, 45, 54, 63,
                 72, 1, 10, 19, 28, 37, 46, 55, 64, 73, 2, 11, 20, 29, 38, 47,
                 56, 65, 74, 3, 12, 21, 30, 39, 48, 57, 66, 75, 4, 13, 22, 31,
                 40, 49, 58, 67, 76, 5, 14, 23, 32, 41, 50, 59, 68, 77, 6, 15,
                 24, 33, 42, 51, 60, 69, 78, 7, 16, 25, 34, 43, 52, 61, 70, 79),
            ),
            id="s0(9)",
        ),
        pytest.param(
            lambda: sl2(5).perm_group("nonzero"),
            (
                (0, 1, 2, 3, 5, 6, 7, 8, 4, 11, 12, 13, 9, 10, 17, 18, 14, 15,
                 16, 23, 19, 20, 21, 22),
                (4, 9, 14, 19, 3, 8, 13, 18, 23, 2, 7, 12, 17, 22, 1, 6, 11, 16,
                 21, 0, 5, 10, 15, 20),
            ),
            id="sl2(5)",
        ),
        pytest.param(
            lambda: table1_matrix_group(1).perm_group("nonzero"),
            (
                (0, 1, 2, 3, 19, 20, 21, 22, 23, 14, 15, 16, 17, 18, 9, 10, 11,
                 12, 13, 4, 5, 6, 7, 8),
                (1, 3, 0, 2, 9, 11, 13, 10, 12, 19, 21, 23, 20, 22, 4, 6, 8, 5,
                 7, 14, 16, 18, 15, 17),
                (19, 14, 9, 4, 3, 23, 18, 13, 8, 2, 22, 17, 12, 7, 1, 21, 16,
                 11, 6, 0, 20, 15, 10, 5),
            ),
            id="G1 stabilizer",
        ),
        pytest.param(
            lambda: agl1(37),
            (
                (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32,
                 34, 36, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29,
                 31, 33, 35),
                (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
                 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
                 35, 36, 0),
            ),
            id="agl1(37)",
        ),
    ],
)
def test_witnesses_are_pinned(make, witness):
    # the first witness in the canonical order, small and large groups alike;
    # reports quote witnesses, so a change of search must not move them
    assert tuple(tuple(g.images) for g in d_exact(make()).witness.elements) == witness


def test_witness_is_deterministic():
    a = d_exact(symmetric_group(4))
    b = d_exact(symmetric_group(4))
    assert a.witness.elements == b.witness.elements
    assert a.method == b.method == "exhaustive"


def test_d_order_cap():
    with pytest.raises(PreconditionError):
        d_exact(symmetric_group(9))  # order 362880 over the 10^5 cap


def test_generates_checks_membership():
    G = symmetric_group(4)
    assert generates(G, G.generators)
    assert not generates(G, (Perm.from_cycles(4, [(0, 1)]),))
    with pytest.raises(PreconditionError):
        generates(G, (Perm.from_cycles(5, [(0, 1)]),))  # wrong degree
    with pytest.raises(PreconditionError):
        generates(
            PermGroup(4, (Perm.from_cycles(4, [(0, 1, 2)]),)),
            (Perm.from_cycles(4, [(0, 1)]),),  # not a member
        )


# ---------------------------------------------------------------------------
# lower bound from the abelianization


def test_d_lower_bound_abelian():
    assert d_lower_bound_abelian(elementary_8()) == 3
    assert d_lower_bound_abelian(quaternion8()) == 2  # Q8 maps onto Klein
    assert d_lower_bound_abelian(cyclic_regular(6)) == 1
    assert d_lower_bound_abelian(symmetric_group(4)) == 1  # abelianization C2
    assert d_lower_bound_abelian(PermGroup(3, ())) == 0
    A5 = PermGroup(5, (Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])))
    assert A5.order() == 60
    assert d_lower_bound_abelian(A5) == 0  # perfect group


def test_lower_bound_never_exceeds_d():
    for G in (quaternion8(), symmetric_group(4), elementary_8(), z_group(7, 3, 2)):
        assert d_lower_bound_abelian(G) <= d_exact(G).value


# Reference copies of the l-rank counts made before every l-rank was read
# off an index |X : Y X^l|: both count the elements whose l-th power
# lands in the subgroup, one over all of G, one over a multiplication
# table of G/[G,G].


def lower_bound_by_enumeration(G):
    """max over primes l of the l-rank of G/[G,G], from the number of x
    in G with x**l in [G,G]."""
    n = G.order()
    if n == 1:
        return 0
    D = derived_subgroup(G)
    dn = D.order()
    if dn == n:
        return 0
    best = 0
    elems = G.elements()
    for ell in prime_factors(n // dn):
        cnt = sum(1 for x in elems if (x**ell) in D)
        cnt //= dn
        r = 0
        while cnt % ell == 0:
            cnt //= ell
            r += 1
        assert cnt == 1
        best = max(best, r)
    return best


class AbelianFilterByTable:
    """The abelian filter on its own multiplication table of G/[G,G]:
    spans by breadth-first closure, l-torsion counted by a power loop."""

    def __init__(self, G, D):
        ca = coset_action(G, D)
        self.size = len(ca.reps)
        # each element n * e of coset e, keyed like coset_action's labels
        base = G.keyed().base
        self.phi = {
            (n * e).images_of(base): idx for idx, e in enumerate(ca.reps) for n in D.elements()
        }
        rows = {0: tuple(range(self.size))}
        queue = [0]
        for a in queue:
            for q in ca.group.generators:
                b = q.images[a]
                if b not in rows:
                    rows[b] = q.images_of(rows[a])
                    queue.append(b)
        self._mul = [rows[a] for a in range(self.size)]

    def span(self, labels):
        seen = {0}
        queue = [0]
        for x in labels:
            if x not in seen:
                seen.add(x)
                queue.append(x)
        k = 0
        while k < len(queue):
            row = self._mul[queue[k]]
            for x in labels:
                b = row[x]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
            k += 1
        return frozenset(seen)

    def gens_needed(self, span):
        quotient = self.size // len(span)
        need = 0
        for ell in prime_factors(quotient) if quotient > 1 else []:
            cnt = sum(1 for x in range(self.size) if self._pow(x, ell) in span)
            cnt //= len(span)
            r = 0
            while cnt % ell == 0:
                cnt //= ell
                r += 1
            need = max(need, r)
        return need

    def good_last(self, span):
        return frozenset(
            x for x in range(self.size) if len(self.span(tuple(span) + (x,))) == self.size
        )

    def _pow(self, x, e):
        acc = 0
        for _ in range(e):
            acc = self._mul[acc][x]
        return acc


RANK_CORPUS = [
    pytest.param(lambda: [random_small_group(s) for s in range(200)], id="random"),
    pytest.param(lambda: [s0_group(q).perm_group("nonzero") for q in (5, 9, 13)], id="s0"),
    pytest.param(lambda: [agl1(13)], id="agl1(13)"),
    pytest.param(lambda: [table1_matrix_group(1).perm_group("nonzero")], id="G1 stabilizer"),
]


@pytest.mark.parametrize("make", RANK_CORPUS)
def test_lower_bound_matches_enumeration_reference(make):
    for G in make():
        assert d_lower_bound_abelian(G) == lower_bound_by_enumeration(G), G.generators


@pytest.mark.parametrize("make", RANK_CORPUS)
def test_abelian_filter_matches_table_reference(make):
    spans = 0
    for seed, G in enumerate(make()):
        D = derived_subgroup(G)
        if D.order() == G.order():
            continue
        ab, ref = _AbelianFilter(G, D), AbelianFilterByTable(G, D)
        assert (ab.size, ab.phi) == (ref.size, ref.phi)
        rng = random.Random(seed)
        draws = [()] + [(x,) for x in range(ab.size)]
        draws += [tuple(rng.sample(range(ab.size), min(k, ab.size))) for k in (2, 2, 3, 3)]
        for labels in draws:
            span = ab.span(labels)
            assert span == ref.span(labels), labels
            assert ab.gens_needed(span) == ref.gens_needed(span), labels
            assert ab.good_last(span) == ref.good_last(span), labels
            spans += 1
    assert spans > 0


def s5_s5_s4():
    """S5 x S5 x S4 on 14 points: order 345,600, abelianization C2^3."""
    gens = []
    for lo, n in ((0, 5), (5, 5), (10, 4)):
        gens.append(Perm.from_cycles(14, [tuple(range(lo, lo + n))]))
        gens.append(Perm.from_cycles(14, [(lo, lo + 1)]))
    return PermGroup(14, gens)


def test_lower_bound_enumerates_nothing(monkeypatch):
    big = s5_s5_s4()
    assert big.order() == 345_600
    monkeypatch.setattr(PermGroup, "elements", lambda self: pytest.fail("elements enumerated"))
    monkeypatch.setattr(Perm, "order", lambda self: pytest.fail("element order computed"))
    assert d_lower_bound_abelian(big) == 3
    assert d_lower_bound_abelian(symmetric_group(9)) == 1


# ---------------------------------------------------------------------------
# budget behavior: exhaustive, bound-meet, indeterminate


def test_budget_exhaustive_when_it_fits():
    res = d_exact(quaternion8(), budget=50)
    assert res.value == 2
    assert res.method == "exhaustive"


def test_budget_bound_meet_fallback():
    res = d_exact(quaternion8(), budget=10)
    assert res.value == 2
    assert res.method == "bound-meet"
    assert generates(quaternion8(), res.witness.elements)


def test_budget_indeterminate():
    with pytest.raises(IndeterminateError):
        d_exact(quaternion8(), budget=3)
    with pytest.raises(PreconditionError):
        d_exact(quaternion8(), budget=0)


# ---------------------------------------------------------------------------
# the monomial family dichotomy, exercised directly


@pytest.mark.parametrize("q,expected", [(3, 2), (5, 3), (7, 2), (9, 3), (13, 3)])
def test_s0_d_dichotomy(q, expected):
    G = s0_group(q).perm_group("nonzero")
    res = d_exact(G)
    assert res.value == expected
    assert generates(G, res.witness.elements)


def test_s0_13_triple_cross_check():
    # order 48, d = 3: check the witness and that no pair suffices by
    # re-running with the exhaustive method confirmed
    G = s0_group(13).perm_group("nonzero")
    res = d_exact(G)
    assert G.order() == 48
    assert res.value == 3
    assert res.method == "exhaustive"
    assert d_lower_bound_abelian(G) == 3  # abelianization is C2^3 here


# ---------------------------------------------------------------------------
# d_affine


def test_d_affine_matches_direct_search_on_row1():
    direct = d_exact(table1_group(1))
    short = d_affine(table1_group(1))
    assert direct.value == short.value == 3
    assert direct.method == "exhaustive"
    assert short.method == "shortcut-LM"
    assert generates(table1_group(1), short.witness.elements)
    assert short.witness.verified


def test_d_affine_matches_direct_search_on_s0_5():
    aff = affine_group(s0_group(5))
    res = d_affine(aff)
    assert res.value == d_exact(aff).value == 3
    assert generates(aff, res.witness.elements)


def test_d_affine_agl1_style_group_is_2():
    # the full monomial overgroups: affine images are 2-generated
    res = d_affine(table2_group(1))
    assert res.value == 2
    assert generates(table2_group(1), res.witness.elements)


def test_d_affine_requires_irreducible():
    f = field_make(5)
    diag = MatrixGroup(f, 2, [MatrixF_from(f, [[2, 0], [0, 1]])])
    with pytest.raises(PreconditionError, match="irreducible"):
        d_affine(affine_group(diag))


def test_d_affine_requires_nontrivial():
    f = field_make(5)
    with pytest.raises(PreconditionError, match="irreducible"):
        d_affine(affine_group(MatrixGroup(f, 2, [identity_matrix(f, 2)])))
    # every line is invariant in dimension 1, so only the order rules it out
    with pytest.raises(PreconditionError, match="nontrivial"):
        d_affine(affine_group(MatrixGroup(f, 1, [identity_matrix(f, 1)])))


def test_d_affine_takes_only_an_affine_group():
    G0 = s0_group(5)
    plain = PermGroup(25, table1_group(1).generators)
    for not_affine in (G0, G0.perm_group("all"), plain):
        with pytest.raises(PreconditionError, match="affine group"):
            d_affine(not_affine)


@pytest.mark.parametrize(
    "make",
    [lambda: corollary3_case2_overgroup(3), lambda: corollary3_case2_overgroup(10), lambda: table2_group(1)],
    ids=["case2-T03", "case2-T10", "M1"],
)
def test_d_affine_on_a_linear_part_given_by_permutations_matches_d_exact(make):
    A = make()
    res = d_affine(A)
    assert res.value == d_exact(A).value
    assert res.witness.verified and generates(A, res.witness.elements)


@pytest.mark.parametrize(
    "make",
    [lambda i=i: table1_group(i) for i in (1, 2, 3, 4)],
    ids=["G1", "G2", "G3", "G4"],
)
def test_d_affine_builds_no_chain_on_the_nonzero_vectors(make, monkeypatch):
    # the linear part's chain is the one A's chain stands on, and its
    # search runs on the orbits of its base points, which here are fewer
    # than the q^dim - 1 nonzero vectors
    A = make()
    A.chain()
    degrees = []
    real = permgroup.build_chain

    def recording(degree, *args, **kwargs):
        degrees.append(degree)
        return real(degree, *args, **kwargs)

    monkeypatch.setattr(permgroup, "build_chain", recording)
    d_affine(A)
    assert degrees and A.degree - 1 not in degrees


def s0_3_over_gf9():
    """S_0(3)'s generators in GL(2, 9): irreducible over GF(9), while V
    is reducible over GF(3)."""
    f = field_make(3, 2)
    rows = ([[0, 1], [1, 0]], [[1, 0], [0, 2]], [[2, 0], [0, 2]])
    return MatrixGroup(f, 2, [MatrixF_from(f, r) for r in rows])


def minus_one_over_gf9():
    """<-1> in GL(1, 9): V . G0 is generalized dihedral on C_3 x C_3."""
    f = field_make(3, 2)
    return MatrixGroup(f, 1, [MatrixF_from(f, [[2]])])


def test_d_affine_needs_a_two_slot_lift_for_s0_3_over_gf9():
    aff = affine_group(s0_3_over_gf9())
    assert aff.order() == 81 * 8
    res = d_affine(aff)
    assert res.value == d_exact(aff).value == 2
    assert res.method == "shortcut-LM"
    assert generates(aff, res.witness.elements)
    # all 2 * 80 one-slot lifts fail; the third two-slot lift generates
    with pytest.raises(IndeterminateError, match="translation-lift budget exhausted"):
        d_affine(aff, 162)
    assert d_affine(aff, 163) == res


def test_d_affine_finds_no_lift_for_minus_one_over_gf9():
    aff = affine_group(minus_one_over_gf9())
    assert aff.order() == 18
    assert d_exact(aff).value == 3
    # 2 * 8 one-slot and 8 * 8 two-slot lifts, none generating
    with pytest.raises(IndeterminateError, match="translation-lift budget exhausted"):
        d_affine(aff, 79)
    # then d is searched on V . G0 itself, with the same budget
    with pytest.raises(IndeterminateError, match="budget 80 exhausted inside the size-2 scan"):
        d_affine(aff, 80)
    res = d_affine(aff)
    assert res == d_exact(aff)
    assert res.value == 3 and res.method == "exhaustive"
    assert res.witness.verified and generates(aff, res.witness.elements)


def test_d_affine_builds_each_translation_once(monkeypatch):
    import gen32.gens

    built = []

    def recording(field, dim, codes):
        for u in codes:
            built.append(u)
            yield from translations(field, dim, (u,))

    monkeypatch.setattr(gen32.gens, "translations", recording)
    assert d_affine(affine_group(minus_one_over_gf9())).value == 3
    assert built == list(range(1, 9))
    built.clear()
    d_affine(affine_group(s0_group(5)))
    assert built == [1]


def translation_by_field_arithmetic(G0, u):
    """v -> v + u through FieldElement addition: the reference for the
    digit-wise translations."""
    f, dim = G0.field, G0.dim
    du = decode_vector(f, dim, u)
    return Perm(
        [
            encode_vector(f, tuple(a + b for a, b in zip(decode_vector(f, dim, v), du)))
            for v in range(f.q**dim)
        ]
    )


@pytest.mark.parametrize(
    "make",
    [lambda: s0_group(5), lambda: s0_group(9), lambda: table1_matrix_group(2)],
    ids=["s0(5)", "s0(9)", "table1(2)"],
)
def test_translations_match_field_arithmetic(make):
    G0 = make()
    q, total = G0.field.q, G0.field.q**G0.dim
    expected = [translation_by_field_arithmetic(G0, u) for u in range(1, total)]
    assert list(translations(G0.field, G0.dim, range(1, total))) == expected
    # the basis translations v -> v + e_i, e_i of code q^i
    assert translation_perms(G0.field, G0.dim) == [expected[q**i - 1] for i in range(G0.dim)]


def test_translations_match_field_arithmetic_gf25():
    # 624 translations: compare a spread of codes, each at its position
    G0 = s0_group(25)
    got = list(translations(G0.field, G0.dim, range(1, 625)))
    assert len(got) == 624
    for u in (1, 4, 5, 24, 25, 26, 137, 312, 600, 624):
        assert got[u - 1] == translation_by_field_arithmetic(G0, u)


def MatrixF_from(f, rows):
    from gen32.matgroup import MatrixF

    return MatrixF.from_codes(f, rows)


# ---------------------------------------------------------------------------
# cyclic-abelian-subgroup predicate


def test_all_abelian_subgroups_cyclic_positives():
    assert all_abelian_subgroups_cyclic(quaternion8())
    assert all_abelian_subgroups_cyclic(quaternion16())
    assert all_abelian_subgroups_cyclic(sl2(5).perm_group("nonzero"))
    assert all_abelian_subgroups_cyclic(z_group(5, 4, 2))
    assert all_abelian_subgroups_cyclic(z_group(7, 3, 2))
    assert all_abelian_subgroups_cyclic(cyclic_regular(12))
    assert all_abelian_subgroups_cyclic(PermGroup(3, ()))
    assert all_abelian_subgroups_cyclic(symmetric_group(3))  # Sylows C2, C3


def test_all_abelian_subgroups_cyclic_negatives():
    assert not all_abelian_subgroups_cyclic(
        PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])))
    )
    assert not all_abelian_subgroups_cyclic(symmetric_group(4))
    assert not all_abelian_subgroups_cyclic(dihedral(4))
    assert not all_abelian_subgroups_cyclic(s0_group(5).perm_group("nonzero"))
    assert not all_abelian_subgroups_cyclic(elementary_8())


def abelian_subgroups_cyclic_by_pairs(G):
    """The definition, pair by pair: every commuting x, y generate a
    cyclic group, that is, one whose order is the exponent lcm(|x|, |y|)."""
    elements = G.elements()
    return all(
        PermGroup(G.degree, (x, y)).order() == lcm(x.order(), y.order())
        for i, x in enumerate(elements)
        for y in elements[i + 1 :]
        if x * y == y * x
    )


def elementary_pp(p):
    """C_p x C_p, as two disjoint p-cycles."""
    cycles = (Perm.from_cycles(2 * p, [range(p)]), Perm.from_cycles(2 * p, [range(p, 2 * p)]))
    return PermGroup(2 * p, cycles)


def random_small_groups(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        G = PermGroup(degree, gens)
        if G.order() <= 120:
            out.append(G)
    return out


def test_all_abelian_subgroups_cyclic_matches_the_pairwise_definition():
    named = [
        (elementary_pp(2), False),
        (elementary_pp(3), False),
        (elementary_pp(5), False),
        (quaternion8(), True),
        (quaternion16(), True),
        (sl2(3).perm_group("nonzero"), True),
        (sl2(5).perm_group("nonzero"), True),
        (z_group(5, 4, 2), True),
        (z_group(7, 3, 2), True),
        (z_group(13, 4, 5), True),
        (symmetric_group(4), False),
        (dihedral(4), False),
        (dihedral(6), False),
        (dihedral(5), True),
        (cyclic_regular(12), True),
    ]
    for G, expected in named:
        assert abelian_subgroups_cyclic_by_pairs(G) == expected
        assert all_abelian_subgroups_cyclic(G) == expected
    verdicts = []
    for G in random_small_groups(2024, 40):
        verdicts.append(abelian_subgroups_cyclic_by_pairs(G))
        assert all_abelian_subgroups_cyclic(G) == verdicts[-1]
    assert True in verdicts and False in verdicts


def test_predicate_builds_one_chain_per_genlemmas_group(monkeypatch):
    corpus = _positive_corpus() + _negative_corpus()
    assert len(corpus) == 13
    build_chain = permgroup.build_chain
    calls = []

    def counting_build_chain(*args, **kwargs):
        calls.append(args[0])
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(permgroup, "build_chain", counting_build_chain)
    for name, G in corpus:
        calls.clear()
        all_abelian_subgroups_cyclic(G)
        assert len(calls) == 1, name


def test_predicate_above_the_enumeration_cap_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="enumeration cap"):
        all_abelian_subgroups_cyclic(agl1(343))


def test_cyclic_abelian_predicate_implies_d_le_2():
    # the structural fact the predicate feeds into, spot-checked
    for G in (quaternion8(), quaternion16(), z_group(5, 4, 3), z_group(13, 4, 5)):
        assert all_abelian_subgroups_cyclic(G)
        assert d_exact(G).value <= 2


def test_search_state_is_freed_without_the_cycle_collector(monkeypatch):
    """The scan holds no reference cycle, so its _Search (with its filter
    and key sets) dies by reference counting when d_exact returns."""
    import gc
    import weakref

    from gen32 import gens

    refs = []
    init = gens._Search.__init__

    def recording_init(self, G):
        init(self, G)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(gens._Search, "__init__", recording_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert d_exact(symmetric_group(4)).value == 2
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if was_enabled:
            gc.enable()

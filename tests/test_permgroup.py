import gc
import math
import random
from itertools import combinations

import pytest

from gen32.constructions import (
    agl1,
    s0_group,
    sl2,
    table1_group,
    table1_matrix_group,
    table2_group,
    table2_matrix_group,
    z_group,
)
from gen32.errors import PreconditionError
from gen32.permgroup import (
    ElementTable,
    _compose,
    Perm,
    PermGroup,
    build_chain,
    coset_action,
    derived_subgroup,
    group_from_text,
    group_to_text,
    normal_closure,
    normal_in,
    perm_to_text,
    subgroups_up_to_conjugacy,
    symmetric_group,
)


def dihedral(n):
    """Dihedral group of the regular n-gon on n vertices."""
    rot = Perm([(i + 1) % n for i in range(n)])
    flip = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, (rot, flip))


def quaternion8():
    x = Perm([1, 2, 3, 0, 7, 4, 5, 6])
    y = Perm([4, 5, 6, 7, 2, 3, 0, 1])
    return PermGroup(8, (x, y))


def klein4():
    return PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])))


# ---------------------------------------------------------------------------
# Perm


def test_perm_composition_convention():
    # (p * q)[x] == q[p[x]]: p first, then q
    p = Perm([1, 2, 0])
    q = Perm([0, 2, 1])
    assert (p * q).images == (2, 1, 0)
    assert all((p * q)[x] == q[p[x]] for x in range(3))


def test_perm_inverse_and_power():
    g = Perm([2, 0, 3, 1])
    assert g * g.inv() == Perm.identity(4)
    assert g.inv() * g == Perm.identity(4)
    assert g**0 == Perm.identity(4)
    assert g**3 == g * g * g
    assert g**-1 == g.inv()
    assert g ** g.order() == Perm.identity(4)


def test_perm_from_cycles():
    g = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert g.images == (1, 2, 0, 4, 3)
    assert g.order() == 6
    assert sorted(map(sorted, g.cycles())) == [[0, 1, 2], [3, 4]]


def test_perm_conjugation():
    g = Perm.from_cycles(4, [(0, 1)])
    h = Perm.from_cycles(4, [(0, 2)])
    # conj by h maps the cycle (0 1) to (h[0] h[1]) = (2 1)
    assert g.conj(h) == Perm.from_cycles(4, [(2, 1)])
    assert g.conj(h) == h.inv() * g * h


def test_perm_validation():
    with pytest.raises(PreconditionError):
        Perm([0, 0, 1])
    with pytest.raises(PreconditionError):
        Perm([0, 2])
    with pytest.raises(PreconditionError):
        Perm([1, -1])


def test_perm_fixed_points_and_min_moved():
    g = Perm.from_cycles(6, [(2, 4)])
    assert sum(1 for i, x in enumerate(g.images) if i == x) == 4
    assert g.min_moved() == 2
    with pytest.raises(PreconditionError):
        Perm.identity(3).min_moved()


def test_perm_lex_order():
    assert Perm([0, 1, 2]) < Perm([0, 2, 1]) < Perm([1, 0, 2])


def random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


def random_group(seed):
    """A group of degree 1..9 from ``random.Random(seed)``: 1-4
    generators, each a uniformly random permutation or a random cycle."""
    rng = random.Random(seed)
    degree = rng.randint(1, 9)
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            gens.append(random_perm(rng, degree))
        else:
            cycle = rng.sample(range(degree), rng.randint(1, degree))
            gens.append(Perm.from_cycles(degree, [cycle]))
    return PermGroup(degree, gens)


@pytest.mark.parametrize("seed", range(0, 400, 100))
def test_perm_algebra_on_random_permutations(seed):
    for s in range(seed, seed + 100):
        rng = random.Random(s)
        n = rng.randint(1, 12)
        a, b, c = (random_perm(rng, n) for _ in range(3))
        e = Perm.identity(n)
        assert (a * b) * c == a * (b * c)
        assert a * e == a == e * a
        assert a * a.inv() == e == a.inv() * a
        assert a.inv().inv() == a
        assert (a * b).inv() == b.inv() * a.inv()
        k = rng.randint(1, 7)
        assert a**0 == e
        assert a ** (k + 1) == a**k * a
        assert a**-k == a.inv() ** k == (a**k).inv()
        assert a ** -a.order() == e
        points = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
        assert a.images_of(points) == tuple(a[x] for x in points)
        assert (a * b).images_of(points) == b.images_of(a.images_of(points))
        assert e.is_identity()
        assert a.is_identity() == (a == e) == all(a[x] == x for x in range(n))
        assert (a * a.inv()).is_identity()


@pytest.mark.parametrize("seed", range(0, 100, 25))
def test_keys_compose_and_determine_elements(seed):
    # key(x) = x.images_of(base): key(x * g) == g.images_of(key(x)), and
    # distinct elements of the group have distinct keys
    for s in range(seed, seed + 25):
        G = random_group(s)
        if G.order() > 5000:
            continue
        rng = random.Random(s)
        base = G.chain().base
        elems = G.elements()
        assert len({x.images_of(base) for x in elems}) == len(elems)
        for _ in range(10):
            x, g = rng.choice(elems), rng.choice(elems)
            assert (x * g).images_of(base) == g.images_of(x.images_of(base))


# The image gather reads many points in one call, which needs two or more
# points; products, keys and compositions with fewer take another path.


def test_products_at_degree_1_and_2():
    e1 = Perm.identity(1)
    assert (e1 * e1).images == (0,)
    assert e1.inv() * e1 == e1 ** 5 == e1
    s, e2 = Perm([1, 0]), Perm.identity(2)
    assert (s * s).images == (0, 1)
    assert (s * e2).images == (e2 * s).images == (1, 0)
    assert s**3 == s.inv() == s
    for p in (e1 * e1, s * s, s * e2):
        assert type(p.images) is tuple


@pytest.mark.parametrize(
    "points", [(), [], frozenset(), (1,), [2], frozenset({1}), (2, 0), [0, 0]]
)
def test_images_of_few_points_is_a_tuple(points):
    g = Perm([2, 0, 1])
    got = g.images_of(points)
    assert type(got) is tuple
    assert got == tuple(g[x] for x in points)


def test_compose_of_few_factors():
    assert _compose([(2, 0, 1)]) == (2, 0, 1)
    assert _compose([(0,)]) == _compose([(0,), (0,)]) == (0,)
    assert _compose([(1, 0), (1, 0)]) == (0, 1)
    assert _compose([(1, 2, 0), (1, 2, 0), (0, 2, 1)]) == (1, 0, 2)


def test_contains_in_degree_1_groups():
    for G in (PermGroup(1, ()), PermGroup(1, (Perm.identity(1),))):
        assert G.order() == 1
        assert G.contains(Perm.identity(1))
        assert not G.contains(Perm.identity(2))


def test_key_of_a_generator_free_group_is_empty():
    G = PermGroup(5, ())
    base = G.chain().base
    assert base == ()
    assert G.identity().images_of(base) == ()
    assert G.elements() == [G.identity()]
    assert G.conjugacy_classes() == [[G.identity()]]


# ---------------------------------------------------------------------------
# orders via the stabilizer chain


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_symmetric_group_order(n):
    assert symmetric_group(n).order() == math.factorial(n)


def test_trivial_group():
    G = PermGroup(4, ())
    assert G.order() == 1
    assert G.is_trivial()
    assert G.elements() == [Perm.identity(4)]


@pytest.mark.parametrize(
    "G,order",
    [
        (dihedral(4), 8),
        (dihedral(6), 12),
        (quaternion8(), 8),
        (klein4(), 4),
        (PermGroup(5, (Perm.from_cycles(5, [(0, 1, 2, 3, 4)]),)), 5),
    ],
)
def test_known_orders(G, order):
    assert G.order() == order


def test_chain_order_equals_element_closure():
    # independent count: breadth-first closure under multiplication
    for G in (symmetric_group(4), dihedral(6), quaternion8(), symmetric_group(5)):
        elems = {Perm.identity(G.degree)}
        frontier = [Perm.identity(G.degree)]
        while frontier:
            nxt = []
            for g in frontier:
                for s in G.generators:
                    h = g * s
                    if h not in elems:
                        elems.add(h)
                        nxt.append(h)
            frontier = nxt
        assert G.order() == len(elems)
        assert set(G.elements()) == elems


def chain_by_strip(degree, generators, initial_base=()):
    """Schreier-Sims with two products per Schreier generator and one
    per sifted level: the reference for build_chain.  Returns one
    (point, strong generators, orbit, transversal) per level."""
    identity = Perm.identity(degree)
    gens = [g for g in generators if g != identity]
    points, level_gens, orbits, transversals = [], [], [], []

    def add_level(pt):
        points.append(pt)
        level_gens.append([])
        orbits.append(None)
        transversals.append(None)

    def prefix_fixed(g, upto):
        return all(g[points[i]] == points[i] for i in range(upto))

    def close(i):
        orbit, transversal = [points[i]], {points[i]: identity}
        for gamma in orbit:
            for s in level_gens[i]:
                if s[gamma] not in transversal:
                    transversal[s[gamma]] = transversal[gamma] * s
                    orbit.append(s[gamma])
        orbits[i], transversals[i] = orbit, transversal

    def strip(g, start):
        for i in range(start, len(points)):
            delta = g[points[i]]
            if delta != points[i]:
                if delta not in transversals[i]:
                    return g, i
                g = g * transversals[i][delta].inv()
        return g, len(points)

    for pt in initial_base:
        if pt not in points:
            add_level(pt)
    for g in gens:
        if prefix_fixed(g, len(points)):
            add_level(g.min_moved())
    for g in gens:
        for i in range(len(points)):
            if not prefix_fixed(g, i):
                break
            level_gens[i].append(g)
    for i in range(len(points)):
        close(i)
    i = len(points) - 1
    while i >= 0:
        modified_at = None
        for gamma in orbits[i]:
            for s in level_gens[i]:
                u_delta = transversals[i][s[gamma]]
                sg = transversals[i][gamma] * s
                if sg == u_delta:
                    continue
                residue, j = strip(sg * u_delta.inv(), i + 1)
                if residue == identity:
                    continue
                if j == len(points):
                    add_level(residue.min_moved())
                for l in range(i + 1, j + 1):
                    level_gens[l].append(residue)
                    close(l)
                modified_at = j
                break
            if modified_at is not None:
                break
        i = modified_at if modified_at is not None else i - 1
    levels = list(zip(points, level_gens, orbits, transversals))

    def contains(g):
        residue, depth = strip(g, 0)
        return depth == len(points) and residue == identity

    return levels, contains


def chain_levels(chain):
    """(point, strong generators, orbit, u_delta for each delta in orbit
    order) per level, each u_delta built from the level's Schreier tree."""
    return [
        (lv.point, lv.gens, lv.orbit, [Perm(lv.u(delta)) for delta in lv.orbit])
        for lv in chain.levels
    ]


def reference_levels(levels):
    """The reference's levels in the form of ``chain_levels``."""
    return [
        (point, gens, orbit, [transversal[delta] for delta in orbit])
        for point, gens, orbit, transversal in levels
    ]


def assert_chain_matches_reference(G, initial_base):
    chain = build_chain(G.degree, G.generators, initial_base)
    levels, contains = chain_by_strip(G.degree, G.generators, initial_base)
    # the same orbits in the same order, and the same transversal elements
    assert chain_levels(chain) == reference_levels(levels)
    return chain, contains


@pytest.mark.parametrize("seed", range(0, 400, 100))
def test_chain_matches_strip_reference_on_random_groups(seed):
    for s in range(seed, seed + 100):
        G = random_group(s)
        rng = random.Random(s)
        forced = tuple(rng.sample(range(G.degree), rng.randint(1, min(3, G.degree))))
        for initial_base in ((), forced):
            chain, contains = assert_chain_matches_reference(G, initial_base)
            members = [G.generators[0] * G.generators[-1], G.generators[-1].inv()]
            for g in members + [random_perm(rng, G.degree) for _ in range(5)]:
                assert chain.contains(g) == contains(g), s
            assert all(chain.contains(g) for g in members)


BUNDLED_GROUPS = [
    pytest.param(lambda i=i: table1_group(i), id=f"table1_group({i})") for i in (1, 2, 3, 4)
] + [
    pytest.param(lambda i=i: table2_group(i), id=f"table2_group({i})") for i in (1, 2)
] + [
    pytest.param(lambda i=i: table1_matrix_group(i).perm_group(), id=f"G{i}-nonzero")
    for i in (1, 2, 3, 4)
] + [
    pytest.param(lambda i=i: table2_matrix_group(i).perm_group(), id=f"M{i}-nonzero")
    for i in (1, 2)
]


@pytest.mark.parametrize("make", BUNDLED_GROUPS)
def test_chain_matches_strip_reference_on_bundled_groups(make):
    G = make()
    for initial_base in ((), (0,), (G.degree - 1, 1)):
        assert_chain_matches_reference(G, initial_base)


def assert_known_base_chain_matches_reference(degree, generators, known_base, initial_base=()):
    chain = build_chain(degree, generators, initial_base, known_base)
    levels, _ = chain_by_strip(degree, generators, initial_base)
    assert chain_levels(chain) == reference_levels(levels)


@pytest.mark.parametrize("seed", range(0, 400, 100))
def test_known_base_chain_matches_strip_reference_on_random_groups(seed):
    # the known base is the base of a chain with a random forced prefix,
    # so it is often neither lex-least nor the base the chain picks
    for s in range(seed, seed + 100):
        G = random_group(s)
        rng = random.Random(s)
        forced = tuple(rng.sample(range(G.degree), rng.randint(1, min(3, G.degree))))
        known = build_chain(G.degree, G.generators, forced).base
        every_point = tuple(range(G.degree))
        for initial_base in ((), forced):
            assert_known_base_chain_matches_reference(G.degree, G.generators, known, initial_base)
            # with no base known, build_chain decides on every point
            assert_known_base_chain_matches_reference(G.degree, G.generators, every_point, initial_base)


def affine_linear_parts():
    return [table1_group(i) for i in (1, 2, 3, 4)] + [table2_group(i) for i in (1, 2)]


STRUCTURAL_BASES = (
    [
        pytest.param(lambda i=i: table1_matrix_group(i), id=f"G{i}") for i in (1, 2, 3, 4)
    ]
    + [pytest.param(lambda i=i: table2_matrix_group(i), id=f"M{i}") for i in (1, 2)]
    + [pytest.param(lambda p=p: sl2(p), id=f"sl2({p})") for p in (5, 7, 11, 13, 17, 19, 23, 29)]
    + [pytest.param(lambda q=q: s0_group(q), id=f"s0({q})") for q in (5, 9, 25)]
)


@pytest.mark.parametrize("make", STRUCTURAL_BASES)
def test_matrix_group_chains_on_the_basis_vectors_match_reference(make):
    M = make()
    for action in ("nonzero", "all"):
        G = M.perm_group(action)
        shift = 1 if action == "nonzero" else 0
        assert G._base == tuple(M.field.q**i - shift for i in range(M.dim))
        assert_known_base_chain_matches_reference(G.degree, G.generators, G._base)
        assert G.chain().base == build_chain(G.degree, G.generators).base


def test_affine_linear_chains_on_the_basis_codes_match_reference():
    for G in affine_linear_parts():
        L = G.linear
        # the codes p^k of the F_p-basis vectors, k < log_p(degree)
        p, width = L._base[1], len(L._base)
        assert L._base == tuple(p**k for k in range(width)) and p**width == G.degree
        assert_known_base_chain_matches_reference(L.degree, L.generators, L._base)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 127])
def test_agl1_chain_on_0_and_1_matches_reference(q):
    G = agl1(q)
    assert G._base == (0, 1)
    assert_known_base_chain_matches_reference(G.degree, G.generators, G._base)


@pytest.mark.parametrize("m,n,r", [(1, 1, 1), (7, 3, 2), (5, 4, 2), (13, 4, 5), (9, 2, 8)])
def test_z_group_chain_on_0_matches_reference(m, n, r):
    G = z_group(m, n, r)
    assert G._base == (0,)
    assert_known_base_chain_matches_reference(G.degree, G.generators, G._base)


def assert_is_base(degree, generators, base):
    """Only the identity fixes the base: a chain with it forced first
    has no further level."""
    assert build_chain(degree, generators, base).base == tuple(dict.fromkeys(base))


def test_structural_bases_are_bases():
    matrix_groups = (sl2(5), sl2(7), s0_group(5), s0_group(9))
    for M in matrix_groups + (table1_matrix_group(1), table2_matrix_group(1)):
        for action in ("nonzero", "all"):
            G = M.perm_group(action)
            assert_is_base(G.degree, G.generators, G._base)
    for G in affine_linear_parts()[:2]:
        assert_is_base(G.degree, G.linear.generators, G.linear._base)
    for q in (2, 3, 4, 5, 7, 8, 9):
        G = agl1(q)
        assert_is_base(G.degree, G.generators, G._base)
    for m, n, r in [(7, 3, 2), (5, 4, 2), (9, 2, 8)]:
        G = z_group(m, n, r)
        assert_is_base(G.degree, G.generators, G._base)
    for G in (symmetric_group(4), agl1(7)):
        N = derived_subgroup(G)
        quotient = coset_action(G, N).group
        assert quotient._base == (0,)
        assert_is_base(quotient.degree, quotient.generators, quotient._base)


def test_subgroups_inherit_the_chain_base():
    G = sl2(7).perm_group("all")
    H = G.subgroup(G.generators[:1])
    assert H._base == G.chain().base
    assert G.point_stabilizer(0)._base == G.chain().base
    assert derived_subgroup(G)._base == G.chain().base
    assert_is_base(H.degree, H.generators, H._base)


def test_known_base_chain_composes_few_degree_n_tuples(monkeypatch):
    from gen32 import permgroup

    # verifying sl2(29)'s chain on 840 points sifts over a thousand
    # Schreier generators, and its first level's tree has 840 points; on
    # the base only the residues that become strong generators, and the
    # transversal elements they are divided by, are built at full degree
    G = sl2(29).perm_group()
    given = {id(g.images) for g in G.generators}
    # every degree-840 tuple made, by identity, held so no id is reused
    made = {}

    def counting(real, images_of):
        def wrapper(*args):
            out = real(*args)
            images = images_of(out)
            if len(images) == 840 and id(images) not in given:
                made[id(images)] = images
            return out

        return wrapper

    monkeypatch.setattr(permgroup, "_take", counting(permgroup._take, lambda t: t))
    monkeypatch.setattr(permgroup, "_compose", counting(permgroup._compose, lambda t: t))
    monkeypatch.setattr(
        permgroup.Perm, "__mul__", counting(permgroup.Perm.__mul__, lambda p: p.images)
    )
    assert G.order() == 29 * (29 * 29 - 1)
    assert 0 < len(made) <= 10


def test_regular_chain_on_a_known_base_stays_small():
    import tracemalloc

    # one level of 3,660 points: a transversal of degree-3,660 tuples
    # would take about 100 MB, its Schreier tree well under 4 MB
    G = z_group(61, 60, 2)
    tracemalloc.start()
    try:
        chain = G.chain()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.order() == 3660
    assert peak < 4 * 2**20


def keyed_by_key_reference(G):
    """The keyed enumeration one key and one generator at a time, with
    classes from one conjugate key at a time: (keys, classes)."""
    base = G.keyed().base
    gens = [g for g in G.generators if not g.is_identity()]
    keys = [base]
    seen = {base}
    layer = [0]
    while layer:
        found = []
        for i in layer:
            for g in gens:
                y = g.images_of(keys[i])
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        found.sort()
        layer = list(range(len(keys), len(keys) + len(found)))
        keys.extend(found)
    width = len(G.keyed().chain.base)
    elements = [G.keyed().chain.element(k[:width]) for k in keys]
    index = {k: i for i, k in enumerate(keys)}
    classes, done = [], set()
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if i in done:
            continue
        members, queue = {i}, [i]
        while queue:
            x = elements[queue.pop()]
            for g in gens:
                j = index[x.conj(g).images_of(base)]
                if j not in members:
                    members.add(j)
                    queue.append(j)
        done |= members
        classes.append(sorted(members, key=keys.__getitem__))
    return keys, classes


def test_layer_gathers_match_per_key_reference():
    groups = [random_group(s) for s in range(60)] + [
        agl1(13), agl1(16), sl2(5).perm_group("all"), z_group(7, 3, 2), symmetric_group(5)
    ]
    for G in (G for G in groups if G.order() <= 2000):
        keyed = G.keyed()
        keys, classes = keyed_by_key_reference(G)
        assert keyed.keys == keys
        assert keyed.classes() == classes


def test_action_on_base_orbits_is_faithful_and_keeps_the_key_order():
    rng = random.Random(7)
    checked = 0
    for s in range(200):
        H = random_group(s)
        if H.degree < 2 or H.order() > 2000:
            continue
        # H twice over, on 2n points shuffled, plus a fixed point
        n = H.degree
        relabel = list(range(2 * n + 1))
        rng.shuffle(relabel)
        gens = []
        for g in H.generators:
            images = [0] * (2 * n + 1)
            for x in range(n):
                images[relabel[x]] = relabel[g[x]]
                images[relabel[n + x]] = relabel[n + g[x]]
            images[relabel[2 * n]] = relabel[2 * n]
            gens.append(Perm(images))
        G = PermGroup(2 * n + 1, gens)
        action, points = G.on_base_orbits()
        if action is G:
            assert points == list(range(G.degree)) or G.order() == 1
            continue
        checked += 1
        assert points == sorted(points) and len(points) < G.degree
        assert action.order() == G.order()
        assert action.lex_least_chain() is action.chain()
        assert action.keyed().keys == [
            tuple(points.index(y) for y in key) for key in G.keyed().keys
        ]
        assert action.keyed().classes() == G.keyed().classes()
        # the given chain is a chain of the action
        fresh = PermGroup(action.degree, action.generators)
        given = action.chain().levels
        assert all(fresh.contains(Perm(lv.u(delta))) for lv in given for delta in lv.orbit)
    assert checked >= 50


def test_action_on_base_orbits_builds_one_chain_on_the_relabelled_base(monkeypatch):
    import gen32.permgroup as permgroup

    # Sym({1, 3, 4}) on six points, and S_0(7) on all 49 vectors
    sym = PermGroup(6, [Perm.from_cycles(6, [(1, 3)]), Perm.from_cycles(6, [(1, 3, 4)])])
    groups = [sym, s0_group(7).perm_group("all")]
    for G in groups:
        G.lex_least_chain()
    calls = []
    real = permgroup.build_chain

    def spy(degree, generators, initial_base=(), known_base=None):
        calls.append((degree, tuple(initial_base), known_base))
        return real(degree, generators, initial_base, known_base)

    monkeypatch.setattr(permgroup, "build_chain", spy)
    for G in groups:
        calls.clear()
        action, points = G.on_base_orbits()
        base = tuple(points.index(b) for b in G.lex_least_chain().base)
        assert calls == [(len(points), base, base)]
        assert action.chain().base == base and action.order() == G.order()
    action, points = sym.on_base_orbits()
    assert (points, action.chain().base) == ([1, 3, 4], (0, 1))


def test_is_transitive_reads_the_cached_orbits(monkeypatch):
    groups = [symmetric_group(4), PermGroup(4, [Perm.from_cycles(4, [(0, 1)])])]
    for G in groups:
        G.orbits()

    def refuse(self, alpha):
        raise AssertionError("orbit searched again")

    monkeypatch.setattr(PermGroup, "orbit", refuse)
    assert [G.is_transitive() for G in groups] == [True, False]


def test_elements_sorted_lex_first_is_identity():
    G = symmetric_group(4)
    elems = G.elements()
    assert elems[0] == Perm.identity(4)
    assert len(set(elems)) == 24


def test_membership():
    G = PermGroup(4, (Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)])))
    # this is Alt(4)
    assert G.order() == 12
    assert Perm.from_cycles(4, [(0, 1), (2, 3)]) in G
    assert Perm.from_cycles(4, [(0, 1)]) not in G
    for g in G.elements():
        assert G.contains(g)


def test_build_chain_with_initial_base():
    gens = symmetric_group(4).generators
    chain = build_chain(4, gens, initial_base=(2,))
    assert chain.base[0] == 2
    assert chain.order() == 24


def test_point_stabilizer():
    G = symmetric_group(5)
    H = G.point_stabilizer(2)
    assert H.order() == 24
    assert all(g.images[2] == 2 for g in H.generators)
    # orbit-stabilizer in several groups
    for G in (dihedral(5), quaternion8(), symmetric_group(4), klein4()):
        for alpha in range(G.degree):
            assert len(G.orbit(alpha)) * G.point_stabilizer(alpha).order() == G.order()


def test_point_stabilizer_reuses_the_chain_based_at_the_point(monkeypatch):
    from gen32 import permgroup
    from gen32.constructions import sl2, table1_group

    # a plain group on the affine generators: table1_group's own chain is
    # assembled from its translations and linear part, not by build_chain
    affine = table1_group(4)
    G = PermGroup(affine.degree, affine.generators)
    based_at_1 = sl2(5).perm_group("all")
    calls = []
    real = permgroup.build_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permgroup, "build_chain", counting)
    assert G.chain().base[0] == 0
    G.point_stabilizer(0)
    assert len(calls) == 1  # the group's own chain, and no second one
    # the chain a forced base would give has the same strong generators
    forced = real(G.degree, G.generators, (0,))
    assert G.point_stabilizer(0).generators == tuple(forced.levels[1].gens)

    assert based_at_1.chain().base[:2] == (1, 5)
    calls.clear()
    H = based_at_1.point_stabilizer(0)
    assert len(calls) == 1
    assert calls[0][2] == (0,)
    # the rebuild is given the chain's base as a known base
    assert calls[0][3] == based_at_1.chain().base
    assert all(g.images[0] == 0 for g in H.generators)
    assert len(based_at_1.orbit(0)) * H.order() == based_at_1.order()


def test_orbits():
    g = Perm.from_cycles(6, [(0, 1, 2), (3, 4)])
    G = PermGroup(6, (g,))
    assert sorted(sorted(o) for o in G.orbits()) == [[0, 1, 2], [3, 4], [5]]
    assert not G.is_transitive()
    assert symmetric_group(3).is_transitive()


def test_orbits_of_the_trivial_group_on_many_points():
    orbits = PermGroup(100_000, ()).orbits()
    assert len(orbits) == 100_000
    assert orbits[:2] == [[0], [1]] and orbits[-1] == [99_999]


def orbit_by_queue(G, alpha):
    """The orbit of a point by a breadth-first queue, one point at a time:
    the algorithm ``PermGroup.orbit`` used before it grew by frontiers."""
    seen = {alpha}
    queue = [alpha]
    i = 0
    while i < len(queue):
        x = queue[i]
        for g in G.generators:
            y = g.images[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
        i += 1
    return sorted(seen)


def assert_orbits_match_queue_reference(G):
    expected = []
    for alpha in range(G.degree):
        o = orbit_by_queue(G, alpha)
        assert G.orbit(alpha) == o
        if o[0] == alpha:
            expected.append(o)
    assert G.orbits() == expected


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_orbits_match_queue_reference_on_random_groups(seed):
    for s in range(seed, seed + 50):
        assert_orbits_match_queue_reference(random_group(s))


@pytest.mark.parametrize("degree", [1, 2, 7])
def test_orbits_match_queue_reference_without_moved_points(degree):
    for gens in ((), (Perm.identity(degree),), (Perm.identity(degree),) * 2):
        G = PermGroup(degree, gens)
        assert_orbits_match_queue_reference(G)
        assert G.orbits() == [[x] for x in range(degree)]


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda i=i: table1_group(i), id=f"table1_group({i})") for i in (1, 2, 3, 4)]
    + [pytest.param(lambda i=i: table2_group(i), id=f"table2_group({i})") for i in (1, 2)],
)
def test_orbits_match_queue_reference_on_bundled_affine_groups(make):
    G = make()
    assert_orbits_match_queue_reference(G)
    assert_orbits_match_queue_reference(G.point_stabilizer(0))


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_orbit_length_with_matches_the_joined_group(seed):
    seen = set()
    for s in range(seed, seed + 50):
        G = random_group(s)
        n = G.degree
        rng = random.Random(s)
        for P in (PermGroup(n, ()), PermGroup(n, G.generators[:1]), G):
            for g in (random_perm(rng, n), *G.generators):
                joined = PermGroup(n, P.generators + (g,))
                for a in range(n):
                    points = P.orbit_with(g, a)
                    assert len(points) == len(set(points)), s
                    assert sorted(points) == joined.orbit(a), s
                    if not P.generators:
                        seen.add("no generators")
                    elif len(P.orbit(a)) == 1:
                        seen.add("fixed point")
                if P.generators and not P.is_transitive():
                    seen.add("intransitive")
    assert seen == {"no generators", "fixed point", "intransitive"}


def test_orbit_length_with_small_cases():
    P = PermGroup(5, (Perm.from_cycles(5, [(0, 1)]),))
    g = Perm.from_cycles(5, [(1, 2)])
    assert [sorted(P.orbit_with(g, a)) for a in range(5)] == [[0, 1, 2]] * 3 + [[3], [4]]
    assert sorted(PermGroup(5, ()).orbit_with(g, 2)) == [1, 2]
    with pytest.raises(PreconditionError):
        P.orbit_with(g, 5)
    with pytest.raises(PreconditionError):
        P.orbit_with(Perm.identity(4), 0)


def exponent_divides(G, e):
    return all((x**e).is_identity() for x in G.elements())


def test_is_abelian_and_exponent():
    assert klein4().is_abelian()
    assert exponent_divides(klein4(), 2)
    assert not exponent_divides(klein4(), 1)
    assert not symmetric_group(3).is_abelian()
    assert exponent_divides(symmetric_group(3), 6)
    assert not quaternion8().is_abelian()


# ---------------------------------------------------------------------------
# conjugacy classes


def test_conjugacy_classes_sym4():
    G = symmetric_group(4)
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    # cycle types: 1, 2, 2+2, 3, 4
    assert sizes == [1, 3, 6, 6, 8]


def test_conjugacy_classes_sl2_5_nonzero_action():
    from gen32.constructions import sl2

    G = sl2(5).perm_group("nonzero")
    assert G.order() == 120
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    assert sum(sizes) == 120
    assert all(120 % s == 0 for s in sizes)


def test_class_equation_and_invariance():
    for G in (quaternion8(), dihedral(6), symmetric_group(4)):
        classes = G.conjugacy_classes()
        assert sum(len(c) for c in classes) == G.order()
        seen = set()
        for cls in classes:
            assert not (set(cls) & seen)
            seen |= set(cls)
            # closed under conjugation by every generator
            for g in cls:
                for s in G.generators:
                    assert g.conj(s) in set(cls)
        assert len(seen) == G.order()


def test_groups_leave_no_cyclic_garbage():
    """Dropped groups are freed by reference counting alone: no chain,
    cached inverse or class list forms a reference cycle."""
    gc.collect()
    gc.disable()
    try:
        groups = [agl1(13), sl2(5).perm_group("nonzero")]
        for G in groups:
            G.order()
            G.conjugacy_classes()
        del groups, G
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# normality, quotients, derived subgroups


def test_normal_in():
    S4 = symmetric_group(4)
    V = PermGroup(
        4, (Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)]))
    )
    assert V.order() == 4
    assert normal_in(V, S4)
    C2 = PermGroup(3, (Perm.from_cycles(3, [(0, 1)]),))
    assert not normal_in(C2, symmetric_group(3))


def test_coset_action_sym4_mod_klein():
    S4 = symmetric_group(4)
    V = PermGroup(
        4, (Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)]))
    )
    ca = coset_action(S4, V)
    assert ca.group.order() == 6
    assert not ca.group.is_abelian()  # S4/V is Sym(3)
    assert len(ca.reps) == 6
    assert ca.reps[0] == Perm.identity(4)  # coset 0 is the subgroup itself
    base = S4.keyed().base
    assert len(ca.labels) == 24
    # each coset has exactly |V| elements and reps land in their own coset
    counts = [0] * 6
    for g in S4.elements():
        counts[ca.labels[g.images_of(base)]] += 1
    assert counts == [4] * 6
    for idx, rep in enumerate(ca.reps):
        assert ca.labels[rep.images_of(base)] == idx


def test_coset_action_is_homomorphism():
    S4 = symmetric_group(4)
    V = PermGroup(
        4, (Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)]))
    )
    ca = coset_action(S4, V)
    base = S4.keyed().base
    images = {}
    for g in S4.elements():
        images[g] = tuple(ca.labels[(r * g).images_of(base)] for r in ca.reps)
    for a in list(S4.elements())[:8]:
        for b in list(S4.elements())[:8]:
            composed = tuple(images[b][x] for x in images[a])
            assert composed == images[a * b]


def test_quotient_of_quaternion_by_center():
    Q = quaternion8()
    center = PermGroup(8, (Perm([2, 3, 0, 1, 6, 7, 4, 5]),))  # x^2
    assert center.order() == 2
    assert normal_in(center, Q)
    Qbar = coset_action(Q, center).group
    assert Qbar.order() == 4
    assert Qbar.is_abelian()
    assert exponent_divides(Qbar, 2)  # Q8 over its center is Klein


def test_coset_action_requires_normal():
    with pytest.raises(PreconditionError):
        coset_action(symmetric_group(3), PermGroup(3, (Perm.from_cycles(3, [(0, 1)]),)))


def test_derived_subgroup():
    assert derived_subgroup(symmetric_group(4)).order() == 12  # Alt(4)
    A4 = derived_subgroup(symmetric_group(4))
    assert derived_subgroup(A4).order() == 4  # Klein
    assert derived_subgroup(klein4()).order() == 1
    assert derived_subgroup(quaternion8()).order() == 2


def test_normal_closure():
    S4 = symmetric_group(4)
    three_cycle = Perm.from_cycles(4, [(0, 1, 2)])
    assert normal_closure(S4, (three_cycle,)).order() == 12
    transposition = Perm.from_cycles(4, [(0, 1)])
    assert normal_closure(S4, (transposition,)).order() == 24


# ---------------------------------------------------------------------------
# subgroup census


def naive_subgroup_census(G):
    """All subgroups by brute force over subsets of elements; only usable
    for very small groups."""
    elems = G.elements()
    ident = Perm.identity(G.degree)
    found = set()
    for r in range(len(elems) + 1):
        for subset in combinations(elems, r):
            s = set(subset)
            if ident not in s:
                continue
            if all(a * b in s for a in s for b in s):
                found.add(frozenset(s))
    return found


@pytest.mark.parametrize(
    "G,subgroup_count,class_count",
    [
        (symmetric_group(3), 6, 4),
        (klein4(), 5, 5),
        (dihedral(4), 10, 8),
        (quaternion8(), 6, 6),
    ],
)
def test_subgroup_census_against_naive(G, subgroup_count, class_count):
    naive = naive_subgroup_census(G)
    assert len(naive) == subgroup_count
    classes = subgroups_up_to_conjugacy(G)
    assert len(classes) == class_count
    assert sum(c.class_size for c in classes) == subgroup_count
    # orders agree as multisets
    naive_orders = sorted(len(s) for s in naive)
    census_orders = sorted(
        c.representative.order() for c in classes for _ in range(c.class_size)
    )
    assert naive_orders == census_orders


def test_subgroup_census_sym4():
    classes = subgroups_up_to_conjugacy(symmetric_group(4))
    assert len(classes) == 11
    assert sum(c.class_size for c in classes) == 30
    orders = sorted(c.representative.order() for c in classes)
    assert orders == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]
    # census is sorted by order and every representative is a subgroup
    assert orders == [c.representative.order() for c in classes]
    for c in classes:
        for g in c.representative.generators:
            assert g in symmetric_group(4)


def test_subgroup_census_cyclic():
    C6 = PermGroup(6, (Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),))
    classes = subgroups_up_to_conjugacy(C6)
    assert [c.representative.order() for c in classes] == [1, 2, 3, 6]
    assert all(c.class_size == 1 for c in classes)


def test_subgroup_census_quaternion_structure():
    classes = subgroups_up_to_conjugacy(quaternion8())
    orders = [c.representative.order() for c in classes]
    assert orders == [1, 2, 4, 4, 4, 8]
    # every subgroup of Q8 is normal
    assert all(c.class_size == 1 for c in classes)


def closure_by_products(perms, identity):
    """The group generated by some permutations, by breadth-first closure
    from the identity under right multiplication: the reference for
    ElementTable.closure."""
    seen = {identity}
    queue = [identity]
    for x in queue:
        for g in perms:
            y = x * g
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def census_by_every_extension(G):
    """Every subgroup, from the cyclic ones by extending every subgroup
    found by every element outside it, then classified by conjugating
    each with every element, all by Perm products: the reference for
    subgroups_up_to_conjugacy.  Returns (order, class size, element set
    of the least conjugate) per class, sorted like the census; the least
    conjugate is the one whose sorted elements are least, as sorting
    element ids sorts the elements."""
    elems = sorted(G.elements())
    identity = Perm.identity(G.degree)
    found = {}
    for x in elems:
        found.setdefault(closure_by_products([x], identity), () if x == identity else (x,))
    worklist = list(found)
    for sub in worklist:
        for x in elems:
            if x not in sub:
                bigger = closure_by_products(found[sub] + (x,), identity)
                if bigger not in found:
                    found[bigger] = found[sub] + (x,)
                    worklist.append(bigger)
    classes = {}
    for sub in found:
        key = min(tuple(sorted(h.conj(g) for h in sub)) for g in elems)
        classes.setdefault(key, set()).add(sub)
    return [
        (len(key), len(classes[key]), frozenset(key))
        for key in sorted(classes, key=lambda k: (len(k), k))
    ]


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_subgroup_census_matches_every_extension_reference(seed):
    checked = 0
    for s in range(seed, seed + 50):
        G = random_group(s)
        if G.order() > 60:
            continue
        census = [
            (c.order, c.class_size, frozenset(c.representative.elements()))
            for c in subgroups_up_to_conjugacy(G)
        ]
        assert census == census_by_every_extension(G), s
        checked += 1
    assert checked >= 20


def test_subgroup_census_sym5():
    # beyond the reference censuses above: 156 subgroups in 19 classes
    classes = subgroups_up_to_conjugacy(symmetric_group(5))
    assert len(classes) == 19
    assert sum(c.class_size for c in classes) == 156
    assert [c.order for c in classes] == [
        1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 8, 10, 12, 12, 20, 24, 60, 120
    ]
    assert [c.representative.order() for c in classes] == [c.order for c in classes]
    # the quotient M_0 / G_0 of the second Corollary 3 case is Sym(5)
    G0 = table1_matrix_group(2).perm_group("nonzero")
    M0 = table2_matrix_group(2).perm_group("nonzero")
    quotient = subgroups_up_to_conjugacy(coset_action(M0, G0).group)
    assert sorted((c.order, c.class_size) for c in quotient) == sorted(
        (c.order, c.class_size) for c in classes
    )


# ---------------------------------------------------------------------------
# element table


def test_element_table():
    G = symmetric_group(4)
    table = ElementTable(G)
    keyed = G.keyed()
    assert len(table) == 24
    assert keyed.perm(0) == Perm.identity(4)
    # rows are filled on first use; the rest stay None
    assert table._rows == [None] * 24
    for i in (0, 1, 5, 23):
        for j in (0, 2, 17):
            assert keyed.perm(table.row(j)[i]) == keyed.perm(i) * keyed.perm(j)
    assert sum(r is not None for r in table._rows) == 3
    assert table.cyclic(0) == frozenset({0})
    number = {keyed.perm(i): i for i in range(24)}
    assert len(table.closure([number[Perm.from_cycles(4, [(0, 1)])]])) == 2
    assert len(table.closure([])) == 1
    v4 = table.closure(
        [number[Perm.from_cycles(4, [(0, 1), (2, 3)])],
         number[Perm.from_cycles(4, [(0, 2), (1, 3)])]]
    )
    assert len(v4) == 4
    # V4 is normal in S4: every generator's conjugation fixes it
    for conj in keyed.conjugations():
        assert frozenset(conj[i] for i in v4) == v4


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_element_table_closure_matches_product_closure(seed):
    checked = 0
    for s in range(seed, seed + 50):
        G = random_group(s)
        if G.order() > 200:
            continue
        table = ElementTable(G)
        keyed = G.keyed()
        identity = Perm.identity(G.degree)
        rng = random.Random(s)
        for _ in range(10):
            ids = [rng.randrange(len(table)) for _ in range(rng.randint(0, 3))]
            expected = closure_by_products([keyed.perm(i) for i in ids], identity)
            assert {keyed.perm(i) for i in table.closure(ids)} == expected, s
            for i in ids:
                j = rng.randrange(len(table))
                assert keyed.perm(table.row(j)[i]) == keyed.perm(i) * keyed.perm(j), s
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_conjugations_match_perm_conj(seed):
    checked = 0
    for s in range(seed, seed + 50):
        G = random_group(s)
        if G.order() > 720:
            continue
        keyed = G.keyed()
        perms = keyed.perms()
        gens = [g for g in G.generators if not g.is_identity()]
        maps = keyed.conjugations()
        assert len(maps) == len(gens), s
        for g, conj in zip(gens, maps):
            assert [perms[j] for j in conj] == [x.conj(g) for x in perms], s
        checked += 1
    assert checked >= 35


# ---------------------------------------------------------------------------
# serialization


def test_group_text_round_trip():
    randoms = [random_group(s) for s in range(100)]
    for G in (symmetric_group(4), quaternion8(), PermGroup(3, ()), *randoms):
        text = group_to_text(G)
        H = group_from_text(text)
        assert H.degree == G.degree
        assert H.generators == G.generators
        assert H.order() == G.order()


def test_perm_to_text():
    assert perm_to_text(Perm([2, 0, 1])) == "2 0 1"


@pytest.mark.parametrize(
    "text",
    ["", "degree", "degree x", "degree 0", "degree 3\n0 0 1", "degree 3\n0 1", "nonsense\n0 1",
     "degree 1000001\n"],
)
def test_group_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        group_from_text(text)

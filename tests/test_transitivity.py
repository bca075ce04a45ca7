import random

import pytest

from gen32 import transitivity
from gen32.constructions import (
    affine_group,
    agl1,
    s0_group,
    table1_group,
    z_group,
    z_group_kernel_action,
)
from gen32.errors import PreconditionError
from gen32.permgroup import Perm, PermGroup, symmetric_group
from gen32.transitivity import (
    analyze,
    is_frobenius,
    is_half_transitive,
    is_primitive,
    is_regular,
    is_semiregular,
    is_three_halves_transitive,
    minimal_block_with,
    rank,
)


def dihedral(n):
    rot = Perm([(i + 1) % n for i in range(n)])
    flip = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, (rot, flip))


def cyclic_regular(n):
    return PermGroup(n, (Perm([(i + 1) % n for i in range(n)]),))


def test_half_transitive():
    assert is_half_transitive(cyclic_regular(4))
    # orbits {0,1} and {2,3}: equal sizes > 1
    G = PermGroup(4, (Perm.from_cycles(4, [(0, 1), (2, 3)]),))
    assert is_half_transitive(G)
    # a fixed point breaks it
    H = PermGroup(5, (Perm.from_cycles(5, [(0, 1), (2, 3)]),))
    assert not is_half_transitive(H)
    # all orbits trivial: not half-transitive unless degree 1
    assert not is_half_transitive(PermGroup(3, ()))
    assert is_half_transitive(PermGroup(1, ()))  # degree-1 convention


def test_semiregular_and_regular():
    assert is_semiregular(cyclic_regular(5))
    assert is_regular(cyclic_regular(5))
    G = PermGroup(4, (Perm.from_cycles(4, [(0, 1), (2, 3)]),))
    assert is_semiregular(G)
    assert not is_regular(G)  # intransitive
    assert not is_semiregular(symmetric_group(3))
    assert not is_regular(symmetric_group(3))


def test_rank_known_values():
    assert rank(symmetric_group(4)) == 2
    assert rank(cyclic_regular(4)) == 4  # trivial stabilizer: every point its own orbit
    assert rank(dihedral(4)) == 3  # stabilizer orbits {self}, {opposite}, {two adjacent}
    assert rank(table1_group(1)) == 4
    assert rank(agl1(5)) == 2


def test_rank_requires_transitive():
    with pytest.raises(PreconditionError):
        rank(PermGroup(4, (Perm.from_cycles(4, [(0, 1)]),)))


def test_two_transitive():
    assert analyze(symmetric_group(3)).two_transitive
    assert analyze(agl1(7)).two_transitive
    assert not analyze(cyclic_regular(5)).two_transitive
    assert not analyze(dihedral(5)).two_transitive
    assert not analyze(table1_group(1)).two_transitive


def test_three_halves_transitive():
    # 2-transitive implies 3/2-transitive
    assert is_three_halves_transitive(symmetric_group(4))
    # the bundled degree-25 group: stabilizer orbits 1 + 8 + 8 + 8
    assert is_three_halves_transitive(table1_group(1))
    # Frobenius groups are 3/2-transitive
    assert is_three_halves_transitive(z_group_kernel_action(7, 3, 2))
    # dihedral of the square: stabilizer orbits on the rest have sizes 1, 2
    assert not is_three_halves_transitive(dihedral(4))


def test_minimal_block_atkinson():
    # C4 regular: 0 and 2 lie in the block {0, 2}
    assert sorted(minimal_block_with(cyclic_regular(4), 0, 2)) == [0, 2]
    # adjacent points generate the whole domain as a block
    assert len(minimal_block_with(cyclic_regular(4), 0, 1)) == 4
    # Sym(4): any pair spans everything
    assert len(minimal_block_with(symmetric_group(4), 0, 3)) == 4
    # dihedral on 4 vertices: diagonals are blocks
    assert sorted(minimal_block_with(dihedral(4), 0, 2)) == [0, 2]


def test_minimal_block_range_checks_both_points():
    C4 = cyclic_regular(4)
    for alpha, beta in ((0, 9), (9, 0), (0, -1), (-1, 0), (0, 4)):
        with pytest.raises(PreconditionError):
            minimal_block_with(C4, alpha, beta)
    with pytest.raises(PreconditionError):
        minimal_block_with(C4, 2, 2)
    with pytest.raises(PreconditionError):
        minimal_block_with(PermGroup(4, (Perm.from_cycles(4, [(0, 1)]),)), 0, 1)


def test_primitive():
    assert is_primitive(symmetric_group(5))
    assert is_primitive(cyclic_regular(5))  # prime degree regular
    assert not is_primitive(cyclic_regular(4))
    assert not is_primitive(dihedral(4))
    assert is_primitive(dihedral(5))
    assert is_primitive(table1_group(1))
    assert is_primitive(agl1(9))


def test_primitive_preconditions():
    with pytest.raises(PreconditionError):
        is_primitive(PermGroup(4, (Perm.from_cycles(4, [(0, 1)]),)))  # intransitive
    with pytest.raises(PreconditionError):
        is_primitive(PermGroup(1, ()))  # degree < 2


def test_frobenius():
    assert is_frobenius(agl1(5))
    assert is_frobenius(z_group_kernel_action(7, 3, 2))
    assert is_frobenius(dihedral(5))
    assert not is_frobenius(cyclic_regular(5))  # regular is excluded
    assert not is_frobenius(symmetric_group(4))  # two-point stabilizers nontrivial
    assert not is_frobenius(dihedral(4))


def test_analyze_regular_cyclic():
    rep = analyze(cyclic_regular(4))
    assert rep.degree == 4
    assert rep.order == 4
    assert rep.orbit_sizes == (4,)
    assert rep.transitive
    assert rep.half_transitive
    assert rep.regular
    assert rep.semiregular
    assert not rep.three_halves
    assert not rep.two_transitive
    assert rep.rank == 4
    assert rep.primitive is False
    assert rep.frobenius is False


def test_analyze_table1_row1():
    rep = analyze(table1_group(1))
    assert rep.degree == 25
    assert rep.order == 400
    assert rep.transitive
    assert rep.rank == 4
    assert rep.primitive
    assert rep.three_halves
    assert not rep.two_transitive
    assert rep.frobenius is False


def test_analyze_intransitive():
    G = PermGroup(5, (Perm.from_cycles(5, [(0, 1, 2)]),))
    rep = analyze(G)
    assert rep.orbit_sizes == (1, 1, 3)
    assert not rep.transitive
    assert rep.rank is None
    assert rep.primitive is None
    assert not rep.three_halves
    assert not rep.two_transitive
    assert not rep.regular


def test_analyze_frobenius_zgroup():
    rep = analyze(z_group_kernel_action(5, 4, 2))
    assert rep.degree == 5
    assert rep.order == 20
    assert rep.frobenius
    assert rep.two_transitive  # stabilizer C4 is transitive on the other 4 points
    assert rep.three_halves


def test_analyze_regular_zgroup_representation():
    rep = analyze(z_group(7, 3, 2))
    assert rep.degree == 21
    assert rep.order == 21
    assert rep.regular
    assert not rep.three_halves


def test_degree_one_analyze():
    rep = analyze(PermGroup(1, ()))
    assert rep.transitive
    assert rep.half_transitive
    assert rep.rank == 1
    assert rep.primitive is None
    assert not rep.two_transitive


# ---------------------------------------------------------------------------
# stabilizer-orbit predicates against their definitions


def frobenius_by_enumeration(G):
    """The definition: transitive, not regular, and every nonidentity
    element fixes at most one point."""
    if not G.is_transitive() or G.order() == G.degree:
        return False
    return all(
        sum(1 for i, x in enumerate(g.images) if i == x) <= 1
        for g in G.elements()
        if not g.is_identity()
    )


def primitive_by_full_sweep(G):
    """The least block containing 0 and beta, for every point beta != 0."""
    return all(len(minimal_block_with(G, 0, beta)) == G.degree for beta in range(1, G.degree))


def s2_wr_s3():
    # blocks {0,1}, {2,3}, {4,5}; stabilizer orbits {0}, {1}, {2..5}
    return PermGroup(
        6,
        (
            Perm.from_cycles(6, [(0, 1)]),
            Perm.from_cycles(6, [(0, 2), (1, 3)]),
            Perm.from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
        ),
    )


def s3_wr_s2():
    # blocks {0,1,2}, {3,4,5}; stabilizer orbits {0}, {1,2}, {3,4,5}
    return PermGroup(
        6,
        (
            Perm.from_cycles(6, [(0, 1)]),
            Perm.from_cycles(6, [(0, 1, 2)]),
            Perm.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
        ),
    )


# (group, Frobenius, primitive); primitive is None where it is undefined
ORACLE_PANEL = {
    "agl1(5)": (lambda: agl1(5), True, True),
    "dihedral(5)": (lambda: dihedral(5), True, True),
    "zgroup-kernel(7,3,2)": (lambda: z_group_kernel_action(7, 3, 2), True, True),
    "agl1(9)": (lambda: agl1(9), True, True),
    "sym(4)": (lambda: symmetric_group(4), False, True),
    "table1(1)": (lambda: table1_group(1), False, True),
    "affine-s0(5)": (lambda: affine_group(s0_group(5)), False, True),
    "affine-s0(9)": (lambda: affine_group(s0_group(9)), False, True),
    "dihedral(4)": (lambda: dihedral(4), False, False),
    "dihedral(6)": (lambda: dihedral(6), False, False),
    "s2-wr-s3": (s2_wr_s3, False, False),
    "s3-wr-s2": (s3_wr_s2, False, False),
    "cyclic(4)": (lambda: cyclic_regular(4), False, False),
    "cyclic(5)": (lambda: cyclic_regular(5), False, True),
    "zgroup(7,3,2)": (lambda: z_group(7, 3, 2), False, False),
    "intransitive": (lambda: PermGroup(5, (Perm.from_cycles(5, [(0, 1, 2)]),)), False, None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PANEL))
def test_frobenius_matches_enumeration(name):
    make, expected, _ = ORACLE_PANEL[name]
    G = make()
    assert is_frobenius(G) == frobenius_by_enumeration(G) == expected


@pytest.mark.parametrize("name", sorted(n for n, row in ORACLE_PANEL.items() if row[2] is not None))
def test_primitive_matches_full_sweep(name):
    make, _, expected = ORACLE_PANEL[name]
    G = make()
    assert is_primitive(G) == primitive_by_full_sweep(G) == expected


@pytest.mark.parametrize("name", ["affine-s0(9)", "table1(1)", "dihedral(6)", "s3-wr-s2"])
def test_primitive_sweeps_once_per_stabilizer_orbit(name, monkeypatch):
    G = ORACLE_PANEL[name][0]()
    sweeps = []

    def counting(G, alpha, beta):
        sweeps.append(beta)
        return minimal_block_with(G, alpha, beta)

    monkeypatch.setattr(transitivity, "minimal_block_with", counting)
    primitive = is_primitive(G)
    least_points = [o[0] for o in G.point_stabilizer(0).orbits() if o != [0]]
    # one sweep per orbit, stopping at the first proper block
    assert sweeps == least_points[: len(sweeps)]
    if primitive:
        assert len(sweeps) == rank(G) - 1


# ---------------------------------------------------------------------------
# blocks against Atkinson's union-find sweep


def block_by_union_find(G, alpha, beta):
    """The block containing alpha of the finest G-invariant partition
    merging alpha and beta, by Atkinson's union-find sweep: merge the
    pair, then the images of every merged pair under each generator."""
    parent = list(range(G.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        u, v = queue.pop()
        for g in G.generators:
            x, y = g.images[u], g.images[v]
            if union(x, y):
                queue.append((x, y))
    root = find(alpha)
    return [x for x in range(G.degree) if find(x) == root]


def random_transitive_group(seed):
    """A transitive group from ``random.Random(seed)``: 1-3 random
    elements of Sym(a) wr Sym(b) on a*b points (a, b in 2..4), each
    permuting the blocks {a*j .. a*j + a - 1} and moving points within
    them, conjugated by one random permutation; every third seed adds a
    uniformly random permutation, which most often makes it primitive.
    None when the generators are intransitive."""
    rng = random.Random(seed)
    a, b = rng.randint(2, 4), rng.randint(2, 4)
    n = a * b
    relabel = list(range(n))
    rng.shuffle(relabel)
    gens = []
    for _ in range(rng.randint(1, 3)):
        blocks = rng.sample(range(b), b)
        images = [0] * n
        for j in range(b):
            inside = rng.sample(range(a), a)
            for i in range(a):
                images[relabel[a * j + i]] = relabel[a * blocks[j] + inside[i]]
        gens.append(Perm(images))
    if seed % 3 == 0:
        gens.append(Perm(rng.sample(range(n), n)))
    G = PermGroup(n, gens)
    return G if G.is_transitive() else None


def assert_blocks_match_union_find(G):
    for alpha in range(G.degree):
        for beta in range(G.degree):
            if alpha != beta:
                expected = block_by_union_find(G, alpha, beta)
                assert minimal_block_with(G, alpha, beta) == expected, (alpha, beta)


@pytest.mark.parametrize("start", range(0, 240, 60))
def test_minimal_block_matches_union_find_on_random_transitive_groups(start):
    seen = set()
    for seed in range(start, start + 60):
        G = random_transitive_group(seed)
        if G is not None:
            assert_blocks_match_union_find(G)
            seen.add("primitive" if is_primitive(G) else "imprimitive")
            if G.chain().base[0] != 0:
                seen.add("base off 0")
    assert seen == {"primitive", "imprimitive", "base off 0"}


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: table1_group(1), id="table1_group(1)"),
        pytest.param(lambda: agl1(9), id="agl1(9)"),
    ],
)
def test_minimal_block_matches_union_find_on_known_groups(make):
    assert_blocks_match_union_find(make())


def test_minimal_block_with_a_chain_based_off_zero():
    G = PermGroup(3, (Perm.from_cycles(3, [(1, 2)]), Perm.from_cycles(3, [(0, 1, 2)])))
    assert G.chain().base == (1, 0)
    assert_blocks_match_union_find(G)

import os
import random
import shutil
import sys

import pytest

from field_reference import primitive_element, rows
from gen32.constructions import (
    affine_group,
    affine_of_linear_perms,
    agl1,
    data_dir,
    extend_fixing_zero,
    s0_group,
    sl2,
    sl2_order,
    sl2_twisted_check,
    sl2_twisted_group,
    table1_group,
    table1_matrix_group,
    table2_group,
    table2_matrix_group,
    translation_perms,
    z_group,
    z_group_kernel_action,
)
from gen32.errors import PreconditionError
from gen32.field import field_make, prime_power
from gen32.matgroup import MatrixF, MatrixGroup, is_irreducible, perm_from_matrix
from gen32.permgroup import Perm, PermGroup, coset_action, subgroups_up_to_conjugacy
from gen32.transitivity import analyze, is_frobenius, rank


def gf(q):
    return field_make(*prime_power(q))


# ---------------------------------------------------------------------------
# the monomial stabilizer family


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 49])
def test_s0_order(q):
    G = s0_group(q)
    assert G.order() == 4 * (q - 1)
    assert G.perm_group("nonzero").degree == q * q - 1


@pytest.mark.parametrize("q", [2, 4, 8, 16, 6, 15])
def test_s0_rejects_even_or_composite(q):
    with pytest.raises(PreconditionError):
        s0_group(q)


def test_s0_is_monomial_with_det_pm1():
    # monomial matrices of determinant +-1 are closed under products, so
    # checking the generators covers the group
    G = s0_group(5)
    for m in G.generators:
        assert m.det() in (1, 4)  # +-1 in GF(5)
        for row in rows(m):
            assert sum(1 for x in row if x.code != 0) == 1


def test_s0_generator_shapes():
    G = s0_group(9)
    u, v, w = G.generators
    assert u.codes() == ((0, 1), (1, 0))
    # v = diag(1, -1); -1 has code 2 in GF(9) over GF(3)
    assert v.codes() == ((1, 0), (0, 2))
    # w = diag(omega, omega^-1) for the canonical primitive element
    omega = primitive_element(gf(9))
    assert w.codes()[0][0] == omega.code
    assert w.codes()[0][1] == 0
    assert is_irreducible(affine_group(G))


# ---------------------------------------------------------------------------
# translations and affine glue


def test_translation_perms_structure():
    f = gf(5)
    ts = translation_perms(f, 2)
    assert len(ts) == 2
    V = PermGroup(25, tuple(ts))
    assert V.order() == 25
    assert V.is_abelian()
    assert all(t.order() == 5 for t in ts)
    rep = analyze(V)
    assert rep.regular


def test_translation_perms_gf9():
    # each generator adds one standard basis vector, so over GF(9) the
    # two of them only span the prime-subfield translations; S_0(9)
    # moves them onto all of V, so affine_group appends no other
    f = gf(9)
    ts = translation_perms(f, 2)
    V = PermGroup(81, tuple(ts))
    assert V.order() == 9
    assert all((x**3).is_identity() for x in V.elements())
    A = affine_group(s0_group(9))
    assert A.order() == 81 * 32
    assert A.is_transitive()  # so all 81 translations are present


def test_affine_groups_over_one_space_share_their_basis_translations():
    f = gf(9)
    ts = translation_perms(f, 2)
    again = translation_perms(f, 2)
    # a fresh list each time, of the same translations, built once
    assert again == ts and again is not ts
    assert all(a is t for a, t in zip(again, ts))
    A, B = affine_group(s0_group(9)), affine_group(s0_group(9))
    assert all(a is b for a, b in zip(A.generators[:2], B.generators[:2]))
    assert A.generators[:2] == tuple(ts)


def test_extend_fixing_zero():
    g = Perm([1, 0, 2])
    e = extend_fixing_zero(g)
    assert e.images == (0, 2, 1, 3)
    assert e.degree == 4


def test_affine_group_of_s0_5():
    G0 = s0_group(5)
    A = affine_group(G0)
    assert A.degree == 25
    assert A.order() == 25 * 16
    assert A.is_transitive()
    assert A.point_stabilizer(0).order() == 16


def test_affine_of_linear_perms_matches_affine_group():
    G0 = s0_group(5)
    nonzero = [perm_from_matrix(m) for m in G0.generators]
    A = affine_of_linear_perms(G0.field, 2, nonzero)
    B = affine_group(G0)
    assert A.order() == B.order()
    assert set(A.generators) == set(B.generators)


def _count_conversions(monkeypatch):
    """Count calls of ``perm_from_matrix``, rebound in every gen32 module
    that binds it by name."""
    calls = []
    original = perm_from_matrix

    def counted(M, action="nonzero"):
        calls.append((M, action))
        return original(M, action)

    for name, module in list(sys.modules.items()):
        if name.startswith("gen32") and getattr(module, "perm_from_matrix", None) is original:
            monkeypatch.setattr(module, "perm_from_matrix", counted)
    return calls


def test_affine_group_converts_each_matrix_once(monkeypatch):
    calls = _count_conversions(monkeypatch)
    G0 = s0_group(5)
    affine_group(G0)
    G0.perm_group("nonzero")
    affine_group(G0)
    assert calls == [(M, "nonzero") for M in G0.generators]


@pytest.mark.parametrize(
    "table,i",
    [(table1_matrix_group, i) for i in (1, 2, 3, 4)] + [(table2_matrix_group, i) for i in (1, 2)],
    ids=["G1", "G2", "G3", "G4", "M1", "M2"],
)
def test_affine_group_generators_are_the_all_vectors_images(table, i):
    G0 = table(i)
    linear = affine_group(G0).generators[G0.dim :]
    assert linear == tuple(perm_from_matrix(M, "all") for M in G0.generators)


# ---------------------------------------------------------------------------
# assembled affine chains against Schreier-Sims on the same generators


def _corollary3_groups(case):
    """The affine groups the corollary3 suite checks, built the same way:
    V . T_0 for one T_0 per class of subgroups between G_0 and M_0."""
    G0m = table1_matrix_group(case)
    G0 = G0m.perm_group("nonzero")
    ca = coset_action(table2_matrix_group(case).perm_group("nonzero"), G0)
    for sc in subgroups_up_to_conjugacy(ca.group):
        lifts = tuple(ca.reps[g.images[0]] for g in sc.representative.generators)
        yield affine_of_linear_perms(G0m.field, G0m.dim, tuple(G0.generators) + lifts)


# element lists are compared up to this order: it takes in Table 1's
# largest group (18,496 elements), while the 10^5 cap would add a minute
# of enumeration and ~300 MB lists for s0 at q = 25
ELEMENTS_COMPARED_UP_TO = 2 * 10**4


def _assert_chain_matches_schreier_sims(G, seed):
    reference = PermGroup(G.degree, G.generators)
    chain = G.chain()
    # translations move 0; the linear generators fix it
    linear = [g for g in G.generators if g.images[0] == 0 and not g.is_identity()]
    assert chain.base[0] == 0
    # the levels below the first are the chain of the linear part alone
    assert chain.levels[1].gens == linear if linear else len(chain.levels) == 1
    assert G.order() == reference.order()

    rng = random.Random(seed)
    gens = G.generators
    for _ in range(200):
        images = list(range(G.degree))
        rng.shuffle(images)
        x = Perm(images)
        assert G.contains(x) == reference.contains(x)
    for _ in range(50):
        word = Perm.identity(G.degree)
        for _ in range(rng.randint(1, 30)):
            word = word * rng.choice(gens)
        assert G.contains(word) and reference.contains(word)
        a, b = rng.sample(range(G.degree), 2)
        near = word * Perm.from_cycles(G.degree, [(a, b)])
        assert G.contains(near) == reference.contains(near)

    stab, ref_stab = G.point_stabilizer(0), reference.point_stabilizer(0)
    assert stab.orbits() == ref_stab.orbits()
    assert stab.order() == ref_stab.order() == G.order() // len(G.orbit(0))
    if G.order() <= ELEMENTS_COMPARED_UP_TO:
        assert G.elements() == reference.elements()


AFFINE_GROUPS = {
    **{f"table1-G{i}": (lambda i=i: table1_group(i)) for i in (1, 2, 3, 4)},
    **{f"table2-M{i}": (lambda i=i: table2_group(i)) for i in (1, 2)},
    **{f"s0-q{q}": (lambda q=q: affine_group(s0_group(q))) for q in (3, 5, 7, 9, 25)},
    # over GF(9) the basis translations alone span only the prime-subfield
    # vectors, so the translations by codes 3 and 27 are appended: regular
    "gf9-translations-only": lambda: affine_of_linear_perms(gf(9), 2, ()),
}


@pytest.mark.parametrize("name", sorted(AFFINE_GROUPS))
def test_affine_chain_matches_schreier_sims(name):
    _assert_chain_matches_schreier_sims(AFFINE_GROUPS[name](), seed=len(name))


def _gf9_group(dim, *rows):
    f = gf(9)
    return MatrixGroup(f, dim, [MatrixF.from_codes(f, r) for r in rows])


@pytest.mark.parametrize(
    "make,order,appended",
    [
        # S_0(3)'s generators: irreducible over GF(9), not over GF(3)
        (lambda: _gf9_group(2, [[0, 1], [1, 0]], [[1, 0], [0, 2]], [[2, 0], [0, 2]]), 81 * 8, [3]),
        # -1 fixes every GF(3)-line of GF(9)
        (lambda: _gf9_group(1, [[2]]), 9 * 2, [3]),
        # S_0(9) moves the GF(9)-basis onto all of V
        (lambda: s0_group(9), 81 * 32, []),
    ],
    ids=["s0(3)-in-GL(2,9)", "minus-one-in-GL(1,9)", "s0(9)"],
)
def test_affine_group_over_gf9_has_every_translation(make, order, appended):
    G0 = make()
    A = affine_group(G0)
    assert A.order() == order
    assert A.is_transitive()
    # the translations appended after the linear generators, by code
    extra = A.generators[G0.dim + len(G0.generators) :]
    assert [g.images[0] for g in extra] == appended
    linear = G0.perm_group("nonzero").generators
    assert affine_of_linear_perms(G0.field, G0.dim, linear).generators == A.generators
    _assert_chain_matches_schreier_sims(A, seed=order)


@pytest.mark.parametrize("case", [1, 2])
def test_affine_chain_matches_schreier_sims_on_corollary3_groups(case):
    groups = list(_corollary3_groups(case))
    assert len(groups) == {1: 4, 2: 19}[case]
    for j, G in enumerate(groups):
        _assert_chain_matches_schreier_sims(G, seed=100 * case + j)


def test_affine_constructions_build_no_chain_until_asked(monkeypatch):
    from gen32 import permgroup

    calls = []
    real = permgroup.build_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permgroup, "build_chain", counting)
    G = table1_group(4)
    assert calls == []
    assert G.order() == 289 * 64
    # one Schreier-Sims run, on the linear generators alone
    assert [args[1] for args in calls] == [G.generators[2:]]


def test_affine_rejects_a_linear_part_moving_zero():
    from gen32.constructions import _AffineGroup

    moves_zero = Perm.from_cycles(25, [(0, 1)])
    with pytest.raises(PreconditionError, match="zero vector"):
        _AffineGroup(gf(5), 2, (moves_zero,))


@pytest.mark.parametrize(
    "q,dim,cycle",
    # each cycle swaps the nonzero vectors of codes c + 1
    [
        (5, 1, (1, 2)),  # 2, 3: image(2) must be image(1) + image(1)
        (5, 2, (9, 14)),  # 10, 15: image(10) must be image(5) + image(5)
        (5, 2, (5, 6)),  # 6, 7: image(6) must be image(5) + image(1)
        (4, 2, (13, 14)),  # 14, 15 over GF(4): image(15) must be image(8) xor image(7)
    ],
)
def test_affine_rejects_a_linear_part_that_is_not_additive(q, dim, cycle):
    # a transposition of two nonzero vectors fixes 0 but is not additive
    g = Perm.from_cycles(q**dim - 1, [cycle])
    with pytest.raises(PreconditionError, match="not additive"):
        affine_of_linear_perms(gf(q), dim, (g,))


def test_affine_accepts_additive_maps_that_are_not_linear():
    # the Frobenius map x -> x^2 of GF(4) is additive but not GF(4)-linear;
    # with x -> wx it generates the semilinear group of order 4 * 6
    f = gf(4)
    frob = Perm([(f.element(c) * f.element(c)).code - 1 for c in range(1, 4)])
    w = Perm([(f.element(c) * primitive_element(f)).code - 1 for c in range(1, 4)])
    G = affine_of_linear_perms(f, 1, (frob, w))
    assert G.order() == PermGroup(G.degree, G.generators).order() == 24


# ---------------------------------------------------------------------------
# bundled matrix groups


@pytest.mark.parametrize(
    "i,q,dim,order",
    # rows 2 and 3 are stored over the prime field GF(3) in dimension 4
    [(1, 5, 2, 16), (2, 3, 4, 32), (3, 3, 4, 32), (4, 17, 2, 64)],
)
def test_table1_stabilizers(i, q, dim, order):
    G0 = table1_matrix_group(i)
    assert G0.field.q == q
    assert G0.dim == dim
    assert G0.order() == order
    assert is_irreducible(affine_group(G0))


@pytest.mark.parametrize("i,degree,order", [(1, 25, 400), (2, 81, 2592), (3, 81, 2592), (4, 289, 18496)])
def test_table1_affine_groups(i, degree, order):
    G = table1_group(i)
    assert G.degree == degree
    assert G.order() == order


@pytest.mark.parametrize("i,order", [(1, 96), (2, 3840)])
def test_table2_stabilizers(i, order):
    M0 = table2_matrix_group(i)
    assert M0.order() == order
    assert is_irreducible(affine_group(M0))


def test_table2_affine_groups_two_transitive():
    assert rank(table2_group(1)) == 2
    assert rank(table2_group(2)) == 2


@pytest.mark.parametrize("i", [1, 2])
def test_table1_inside_table2(i):
    # the smaller stabilizer embeds in the bigger one, point by point
    G0 = table1_matrix_group(i).perm_group("nonzero")
    M0 = table2_matrix_group(i).perm_group("nonzero")
    for g in G0.generators:
        assert g in M0
    assert M0.order() % G0.order() == 0


@pytest.mark.parametrize("i", [0, 5, -1])
def test_table1_bad_index(i):
    with pytest.raises(PreconditionError):
        table1_matrix_group(i)


@pytest.mark.parametrize("i", [0, 3])
def test_table2_bad_index(i):
    with pytest.raises(PreconditionError):
        table2_matrix_group(i)


def test_data_dir_env_override(tmp_path, monkeypatch):
    import gen32.constructions as cons

    src = data_dir()
    for name in os.listdir(src):
        shutil.copy(os.path.join(src, name), tmp_path / name)
    monkeypatch.setenv("GEN32_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cons, "_TABLE_CACHE", {})  # force a fresh load
    assert data_dir() == tmp_path
    assert table1_matrix_group(1).order() == 16


def test_data_dir_missing_file(tmp_path, monkeypatch):
    import gen32.constructions as cons

    monkeypatch.setenv("GEN32_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cons, "_TABLE_CACHE", {})
    with pytest.raises(PreconditionError):
        table1_matrix_group(2)


def test_data_dir_corrupt_file(tmp_path, monkeypatch):
    import gen32.constructions as cons

    (tmp_path / "table1_G1.mat").write_text("not a matrix group\n")
    monkeypatch.setenv("GEN32_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cons, "_TABLE_CACHE", {})
    with pytest.raises(PreconditionError):
        table1_matrix_group(1)


# ---------------------------------------------------------------------------
# SL(2, p) and the twisted pair


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sl2_order(p):
    assert sl2(p).order() == p * (p * p - 1) == sl2_order(p)


def test_sl2_dets_are_one():
    for p in (2, 3, 5):
        assert all(m.det() == 1 for m in sl2(p).generators)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_sl2_rejects_bad_p(p):
    with pytest.raises(PreconditionError):
        sl2(p)


@pytest.mark.parametrize("p", [5, 7])
def test_sl2_twisted(p):
    assert sl2_twisted_group(p).order() == sl2_order(p)
    assert sl2_twisted_check(p)


@pytest.mark.parametrize("p", [2, 3])
def test_sl2_twisted_group_needs_a_prime_over_3(p):
    with pytest.raises(PreconditionError, match="p > 3"):
        sl2_twisted_group(p)


# ---------------------------------------------------------------------------
# metacyclic regular groups and their kernel actions


def test_z_group_relations():
    G = z_group(7, 3, 2)
    a, b = G.generators
    assert G.degree == 21
    assert G.order() == 21
    assert a.order() == 7
    assert b.order() == 3
    assert a.conj(b.inv()) == a**2  # b a b^-1 = a^r
    assert analyze(G).regular


@pytest.mark.parametrize(
    "m,n,r",
    [(5, 4, 2), (7, 3, 2), (5, 4, 3), (7, 6, 3), (13, 4, 5), (3, 4, 2), (1, 4, 1)],
)
def test_z_group_valid_parameters(m, n, r):
    G = z_group(m, n, r)
    assert G.order() == m * n
    assert analyze(G).regular


@pytest.mark.parametrize(
    "m,n,r",
    [
        (4, 2, 1),  # gcd(m, n) != 1
        (6, 3, 2),  # gcd(m, n) != 1
        (7, 3, 3),  # r^n != 1 mod m
        (5, 4, 1),  # gcd(r - 1, m) != 1 without r-orbit freeness
    ],
)
def test_z_group_invalid_parameters(m, n, r):
    with pytest.raises(PreconditionError):
        z_group(m, n, r)


@pytest.mark.parametrize("make", [z_group, z_group_kernel_action])
def test_z_group_over_the_point_cap_is_refused_before_any_list(make):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="exceeds cap"):
            make(1000003, 2, 1000002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # an image list of 10^6 points takes megabytes


def test_z_group_kernel_action():
    G = z_group_kernel_action(7, 3, 2)
    assert G.degree == 7
    assert G.order() == 21
    assert is_frobenius(G)
    rep = analyze(G)
    assert rep.three_halves
    assert rep.rank == 3  # stabilizer C3 splits the other 6 points into two 3-orbits


def test_z_group_kernel_action_agrees_with_quotient_structure():
    G = z_group_kernel_action(5, 4, 2)
    assert G.degree == 5
    assert G.order() == 20
    assert rank(G) == 2  # the twist 2 generates all of (Z/5)*


# ---------------------------------------------------------------------------
# one-dimensional affine groups


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
def test_agl1(q):
    G = agl1(q)
    assert G.degree == q
    assert G.order() == q * (q - 1)
    assert rank(G) == 2
    assert is_frobenius(G)


@pytest.mark.parametrize("q", [1, 6, 12])
def test_agl1_rejects_non_prime_powers(q):
    with pytest.raises(PreconditionError):
        agl1(q)


def test_coset_action_indexes_more_than_ten_thousand_cosets():
    G = agl1(101)
    ca = coset_action(G, PermGroup(101, ()))
    assert ca.group.degree == len(ca.reps) == 101 * 100
    assert ca.reps[0].is_identity()

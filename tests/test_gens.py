from itertools import combinations

import pytest

from gen32.constructions import s0_group, sl2, table1_group, table1_matrix_group, z_group
from gen32.errors import IndeterminateError, PreconditionError
from gen32.gens import (
    _translations,
    all_abelian_subgroups_cyclic,
    d_affine,
    d_exact,
    d_lower_bound_abelian,
    generates,
)
from gen32.matgroup import MatrixGroup, decode_vector, encode_vector
from gen32.field import field_make
from gen32.permgroup import Perm, PermGroup, symmetric_group


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
    short = d_affine(table1_matrix_group(1))
    assert direct.value == short.value == 3
    assert direct.method == "exhaustive"
    assert short.method == "shortcut-LM"
    assert generates(table1_group(1), short.witness.elements)
    assert short.witness.verified


def test_d_affine_matches_direct_search_on_s0_5():
    stab = s0_group(5)
    from gen32.constructions import affine_group

    aff = affine_group(stab)
    assert d_affine(stab).value == d_exact(aff).value == 3
    assert generates(aff, d_affine(stab).witness.elements)


def test_d_affine_agl1_style_group_is_2():
    # the full monomial overgroups: affine images are 2-generated
    from gen32.constructions import table2_matrix_group, table2_group

    res = d_affine(table2_matrix_group(1))
    assert res.value == 2
    assert generates(table2_group(1), res.witness.elements)


def test_d_affine_requires_irreducible():
    f = field_make(5)
    diag = MatrixGroup(f, 2, [MatrixF_from(f, [[2, 0], [0, 1]])])
    with pytest.raises(PreconditionError):
        d_affine(diag)


def test_d_affine_requires_nontrivial():
    f = field_make(5)
    from gen32.matgroup import MatrixF

    with pytest.raises(PreconditionError):
        d_affine(MatrixGroup(f, 2, [MatrixF.identity(f, 2)]))


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
    total = G0.field.q**G0.dim
    expected = [translation_by_field_arithmetic(G0, u) for u in range(1, total)]
    assert list(_translations(G0)) == expected


def test_translations_match_field_arithmetic_gf25():
    # 624 translations: compare a spread of codes, each at its position
    G0 = s0_group(25)
    got = list(_translations(G0))
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


def test_cyclic_abelian_predicate_implies_d_le_2():
    # the structural fact the predicate feeds into, spot-checked
    for G in (quaternion8(), quaternion16(), z_group(5, 4, 3), z_group(13, 4, 5)):
        assert all_abelian_subgroups_cyclic(G)
        assert d_exact(G).value <= 2

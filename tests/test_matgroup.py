import itertools
import random

import pytest

from field_reference import (
    apply_vector,
    decode_vector,
    encode_vector,
    identity_matrix,
    matrix_product,
)
from gen32.constructions import affine_group, table1_matrix_group, table2_matrix_group
from gen32.errors import PreconditionError
from gen32.field import FieldSpec, add_codes, field_make, prime_power
from gen32.matgroup import (
    MatrixF,
    MatrixGroup,
    is_irreducible,
    matrix_group_from_text,
    perm_from_matrix,
)
from gen32.permgroup import Perm


def gf(q):
    return field_make(*prime_power(q))


def mat(q, rows):
    return MatrixF.from_codes(gf(q), rows)


def all_2x2_matrices(q):
    f = gf(q)
    for codes in itertools.product(range(q), repeat=4):
        yield MatrixF.from_codes(f, [codes[:2], codes[2:]])


# ---------------------------------------------------------------------------
# MatrixF


def test_matrix_multiplication_known_value():
    a = mat(5, [[1, 2], [3, 4]])
    b = mat(5, [[0, 1], [1, 0]])
    assert matrix_product(a, b).codes() == ((2, 1), (4, 3))
    assert matrix_product(b, a).codes() == ((3, 4), (1, 2))


def test_identity_is_neutral():
    f = gf(7)
    ident = identity_matrix(f, 2)
    for m in [mat(7, [[1, 2], [3, 4]]), mat(7, [[0, 1], [6, 0]])]:
        assert matrix_product(m, ident) == m
        assert matrix_product(ident, m) == m


def test_det_known_values():
    assert mat(5, [[1, 2], [3, 4]]).det() == (4 - 6) % 5
    assert mat(3, [[1, 0], [0, 1]]).det() == 1
    assert mat(3, [[1, 2], [2, 1]]).det() == (1 - 4) % 3


def test_det_multiplicative_exhaustive_gf2():
    element = gf(2).element
    for a in all_2x2_matrices(2):
        for b in all_2x2_matrices(2):
            assert element(matrix_product(a, b).det()) == element(a.det()) * element(b.det())


def test_gl2_3_brute_force_count_matches_gl_order():
    # |GL(2, 3)| = (3^2 - 1)(3^2 - 3)
    invertible = [m for m in all_2x2_matrices(3) if m.is_invertible()]
    assert len(invertible) == (9 - 1) * (9 - 3) == 48
    singular = [m for m in all_2x2_matrices(3) if not m.is_invertible()]
    assert all(m.det() == 0 for m in singular)
    assert len(singular) == 81 - 48


def test_matrix_order():
    # the action on all vectors is faithful, so a matrix and its
    # permutation have the same order
    assert perm_from_matrix(mat(5, [[1, 1], [0, 1]])).order() == 5
    assert perm_from_matrix(mat(7, [[1, 1], [0, 1]])).order() == 7
    assert perm_from_matrix(identity_matrix(gf(3), 2)).order() == 1
    w = mat(5, [[2, 0], [0, 1]])  # 2 has multiplicative order 4 mod 5
    assert perm_from_matrix(w).order() == 4


def test_matrix_shape_validation():
    f = gf(3)
    with pytest.raises(PreconditionError):
        MatrixF.from_codes(f, [[1, 2]])
    with pytest.raises(PreconditionError):
        MatrixF.from_codes(f, [])


# ---------------------------------------------------------------------------
# vector coding and the permutation action


def test_vector_code_round_trip():
    for q, dim in [(3, 2), (5, 2), (9, 2), (2, 4)]:
        f = gf(q)
        for code in range(q**dim):
            assert encode_vector(f, decode_vector(f, dim, code)) == code


def test_row_vector_action_convention():
    # v * M uses v as a row vector: basis vector e_i maps to row i
    f = gf(5)
    m = mat(5, [[1, 2], [3, 4]])
    e0 = decode_vector(f, 2, encode_vector(f, (f.one(), f.zero())))
    assert [x.code for x in apply_vector(e0, m)] == [1, 2]


def test_perm_from_matrix_is_homomorphism():
    # the defining convention check: perm(A) * perm(B) == perm(A * B)
    for q in (3, 5):
        sample = [
            mat(q, [[1, 1], [0, 1]]),
            mat(q, [[0, 1], [1, 0]]),
            mat(q, [[1, 0], [1, 1]]),
            mat(q, [[2, 0], [0, 1]]),
        ]
        for a in sample:
            for b in sample:
                pa = perm_from_matrix(a)
                pb = perm_from_matrix(b)
                assert pa * pb == perm_from_matrix(matrix_product(a, b))


def test_perm_from_matrix_degrees():
    m = mat(5, [[0, 1], [1, 0]])
    assert MatrixGroup(gf(5), 2, [m]).perm_group("nonzero").generators[0].degree == 24
    assert perm_from_matrix(m).degree == 25
    assert perm_from_matrix(m).images[0] == 0  # zero vector is fixed
    with pytest.raises(PreconditionError, match="unknown action"):
        MatrixGroup(gf(5), 2, [m]).perm_group("some")


def test_perm_from_matrix_requires_invertible():
    with pytest.raises(PreconditionError):
        perm_from_matrix(mat(3, [[1, 1], [1, 1]]))


def test_perm_from_matrix_nonzero_point_meaning():
    # nonzero point c corresponds to the vector with code c + 1
    f = gf(3)
    m = mat(3, [[0, 1], [1, 0]])
    p = MatrixGroup(f, 2, [m]).perm_group("nonzero").generators[0]
    for point in range(8):
        vec = decode_vector(f, 2, point + 1)
        image = apply_vector(vec, m)
        assert p.images[point] == encode_vector(f, image) - 1


def perm_by_field_arithmetic(M, action):
    """Every point decoded, multiplied by M with FieldElement arithmetic
    and encoded again: the reference for perm_from_matrix ("all") and
    its relabelling in MatrixGroup.perm_group ("nonzero")."""
    f, offset = M.field, (0 if action == "all" else 1)
    return Perm(
        [
            encode_vector(f, apply_vector(decode_vector(f, M.dim, c), M)) - offset
            for c in range(offset, f.q**M.dim)
        ]
    )


BUNDLED_MATRIX_GROUPS = [table1_matrix_group(i) for i in (1, 2, 3, 4)] + [
    table2_matrix_group(i) for i in (1, 2)
]


def random_invertible(rng, f, dim):
    while True:
        M = MatrixF.from_codes(f, [[rng.randrange(f.q) for _ in range(dim)] for _ in range(dim)])
        if M.is_invertible():
            return M


def test_perm_from_matrix_matches_field_arithmetic_on_bundled_groups():
    for G in BUNDLED_MATRIX_GROUPS:
        for action in ("nonzero", "all"):
            want = tuple(perm_by_field_arithmetic(M, action) for M in G.generators)
            assert G.perm_group(action).generators == want


# GF(p), GF(p^2) and GF(2^k), each in the dimensions that stay small
@pytest.mark.parametrize(
    "q,dims",
    [(2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (2, 3)), (7, (2,)), (4, (1, 2, 3)), (9, (2,)),
     (25, (2,)), (8, (2,)), (16, (2,))],
)
def test_perm_from_matrix_matches_field_arithmetic_on_random_matrices(q, dims):
    rng = random.Random(q)
    f = gf(q)
    for dim in dims:
        for _ in range(6):
            M = random_invertible(rng, f, dim)
            assert perm_from_matrix(M) == perm_by_field_arithmetic(M, "all")
            nonzero = MatrixGroup(f, dim, [M]).perm_group("nonzero").generators[0]
            assert nonzero == perm_by_field_arithmetic(M, "nonzero")


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27])
def test_add_codes_is_vector_addition(q):
    f = gf(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b = rng.randrange(q**3), rng.randrange(q**3)
        va, vb = decode_vector(f, 3, a), decode_vector(f, 3, b)
        assert add_codes(f.p, a, b) == encode_vector(f, [x + y for x, y in zip(va, vb)])


# ---------------------------------------------------------------------------
# MatrixGroup


def test_matrix_group_order_equals_perm_order():
    f = gf(3)
    G = MatrixGroup(f, 2, [mat(3, [[1, 1], [0, 1]]), mat(3, [[0, 1], [2, 0]])])
    assert G.order() == 24  # SL(2, 3)
    assert G.perm_group("nonzero").order() == 24
    assert G.perm_group("all").order() == 24
    assert all(m.det() == 1 for m in G.generators)


def test_matrix_group_rejects_mismatched_generators():
    with pytest.raises(PreconditionError):
        MatrixGroup(gf(3), 2, [mat(5, [[1, 0], [0, 1]])])


def test_matrix_group_rejects_singular_generators():
    with pytest.raises(PreconditionError):
        MatrixGroup(gf(3), 2, [mat(3, [[1, 1], [1, 1]])])


# ---------------------------------------------------------------------------
# irreducibility with an independent all-lines oracle (dim 2)


def canonical_lines(q):
    """One representative per 1-dimensional subspace of GF(q)^2."""
    f = gf(q)
    reps = [(f.one(), f.element(c)) for c in range(q)]
    reps.append((f.zero(), f.one()))
    return reps


def reducible_by_line_scan(G):
    # dim 2: proper nontrivial invariant subspaces are exactly lines
    q = G.field.q
    f = G.field
    for v in canonical_lines(q):
        ok = True
        for M in G.generators:
            w = apply_vector(v, M)
            # w must be a scalar multiple of v
            if v[0].code != 0:
                scalar_ok = w == tuple(x * (w[0] * v[0].inv()) for x in v)
            else:
                scalar_ok = w[0].code == 0
            if not scalar_ok:
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("q", [3, 5])
def test_is_irreducible_matches_line_scan(q):
    f = gf(q)
    corpus = [
        MatrixGroup(f, 2, [mat(q, [[1, 1], [0, 1]]), mat(q, [[0, 1], [q - 1, 0]])]),  # SL(2,q)
        MatrixGroup(f, 2, [mat(q, [[0, 1], [1, 0]])]),  # swap: reducible (fixed lines)
        MatrixGroup(f, 2, [mat(q, [[1, 1], [0, 1]])]),  # unipotent: invariant line
        MatrixGroup(f, 2, [mat(q, [[2, 0], [0, 1]])]),  # diagonal: invariant axes
        MatrixGroup(f, 2, [identity_matrix(f, 2)]),  # trivial
        MatrixGroup(f, 2, [mat(q, [[2, 0], [0, 2]])]),  # scalar
        MatrixGroup(f, 2, [mat(q, [[0, 1], [1, 0]]), mat(q, [[1, 0], [0, q - 1]])]),
    ]
    for G in corpus:
        assert is_irreducible(affine_group(G)) == (not reducible_by_line_scan(G))


def test_s0_groups_are_irreducible():
    from gen32.constructions import s0_group

    for q in (3, 5, 9, 13):
        assert is_irreducible(affine_group(s0_group(q)))
        assert not reducible_by_line_scan(s0_group(q))


# ---------------------------------------------------------------------------
# serialization


def matrix_group_text(G):
    """The matrix-group text format, written out independently."""
    blocks = ["\n".join(" ".join(map(str, row)) for row in M.codes()) for M in G.generators]
    return "\n\n".join([f"{G.field.p} {G.field.m} {G.dim}"] + blocks) + "\n"


def test_matrix_group_text_round_trip():
    from gen32.constructions import s0_group, sl2

    for G in (s0_group(5), s0_group(9), sl2(5), *BUNDLED_MATRIX_GROUPS):
        text = matrix_group_text(G)
        H = matrix_group_from_text(text)
        assert H.field.q == G.field.q
        assert H.dim == G.dim
        assert [m.codes() for m in H.generators] == [m.codes() for m in G.generators]


@pytest.mark.parametrize(
    "text",
    ["", "3 1", "3 1 2\n1 0\n0 1\nextra", "4 1 2\n1 0\n0 1", "3 1 2\n1 9\n0 1"],
)
def test_matrix_group_from_text_rejects_malformed(text):
    with pytest.raises((ValueError, PreconditionError)):
        matrix_group_from_text(text)


# ---------------------------------------------------------------------------
# irreducibility against an orbit-span oracle (dims 3 and 4)


def rank_by_field_arithmetic(vectors):
    """The rank of FieldElement vectors, by elimination in FieldElement
    arithmetic."""
    rows = []
    for v in vectors:
        v = list(v)
        for piv, r in rows:
            if not v[piv].is_zero():
                factor = v[piv]
                v = [a - factor * b for a, b in zip(v, r)]
        piv = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if piv is not None:
            scale = v[piv].inv()
            rows.append((piv, [scale * x for x in v]))
    return len(rows)


def irreducible_by_orbit_spans(G):
    """G is irreducible exactly when the orbit of every nonzero vector
    spans the whole space; orbits come from the permutation action."""
    f, n = G.field, G.dim
    P = G.perm_group("all")
    seen = set()
    for c in range(1, f.q**n):
        if c not in seen:
            orbit = P.orbit(c)
            seen.update(orbit)
            if rank_by_field_arithmetic([decode_vector(f, n, x) for x in orbit]) < n:
                return False
    return True


def block_triangular(rng, f, dim, k):
    """A random invertible [[A, B], [0, C]] with A of size k: the row
    vectors (0, y) span an invariant subspace."""
    A = random_invertible(rng, f, k).codes()
    C = random_invertible(rng, f, dim - k).codes()
    top = [list(A[i]) + [rng.randrange(f.q) for _ in range(dim - k)] for i in range(k)]
    bottom = [[0] * k + list(C[i]) for i in range(dim - k)]
    return MatrixF.from_codes(f, top + bottom)


def test_is_irreducible_matches_orbit_spans_on_bundled_dim4_groups():
    for G in (table1_matrix_group(2), table1_matrix_group(3), table2_matrix_group(2)):
        assert G.dim == 4
        assert is_irreducible(affine_group(G)) == irreducible_by_orbit_spans(G) is True


@pytest.mark.parametrize("q,dim", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_is_irreducible_matches_orbit_spans_on_random_groups(q, dim):
    rng = random.Random(100 * q + dim)
    f = gf(q)
    verdicts = []
    for _ in range(8):
        k = rng.randrange(1, dim)
        reducible = MatrixGroup(f, dim, [block_triangular(rng, f, dim, k) for _ in range(2)])
        assert not irreducible_by_orbit_spans(reducible)
        assert not is_irreducible(affine_group(reducible))
        G = MatrixGroup(f, dim, [random_invertible(rng, f, dim) for _ in range(rng.randint(1, 2))])
        verdicts.append(irreducible_by_orbit_spans(G))
        assert is_irreducible(affine_group(G)) == verdicts[-1]
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# the engine computes on codes


FIELD_ELEMENT_OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "inv", "__pow__")


def test_engine_calls_no_field_element_operator(monkeypatch):
    from gen32.constructions import agl1, s0_group, sl2
    from gen32.field import FieldElement

    def forbidden(*args):
        raise AssertionError("FieldElement operator called")

    for op in FIELD_ELEMENT_OPERATORS:
        monkeypatch.setattr(FieldElement, op, forbidden)
    # set the code tables up again under the guard
    for q in (3, 9, 13, 49, 81):
        monkeypatch.delitem(vars(gf(q)), "ops", raising=False)
    groups = [s0_group(9), s0_group(49), sl2(13), table1_matrix_group(2), table2_matrix_group(2)]
    groups.append(matrix_group_from_text(matrix_group_text(groups[0])))
    for G in groups:
        assert is_irreducible(affine_group(G))
        for M in G.generators:
            assert M.det() != 0
            perm_from_matrix(M)
    assert not is_irreducible(affine_group(MatrixGroup(gf(3), 2, [mat(3, [[1, 1], [0, 1]])])))
    assert agl1(81).order() == 81 * 80
    assert agl1(13).order() == 13 * 12


def test_perm_from_matrix_checks_the_point_cap_before_any_table():
    base = field_make(2, 10)
    f = FieldSpec(base.p, base.m, base.modulus)  # a copy with no tables yet
    with pytest.raises(PreconditionError, match="exceeds cap"):
        perm_from_matrix(identity_matrix(f, 2))
    assert "ops" not in vars(f)


def test_det_over_a_field_beyond_the_table_cap_is_a_precondition_error():
    f = FieldSpec(3, 13, (1,) + (0,) * 11 + (2, 1))
    with pytest.raises(PreconditionError, match="code-table cap"):
        identity_matrix(f, 1).det()

import itertools
import random
import time

import pytest

from field_reference import decode_vector, encode_vector, primitive_element
from gen32.errors import PreconditionError
from gen32.field import (
    FieldSpec,
    _primitive_code,
    additive_images,
    field_make,
    is_prime,
    prime_factors,
    prime_power,
)


def gf(q):
    return field_make(*prime_power(q))


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]
    with pytest.raises(PreconditionError):
        prime_factors(0)


@pytest.mark.parametrize(
    "q,expected",
    [
        (2, (2, 1)),
        (3, (3, 1)),
        (4, (2, 2)),
        (9, (3, 2)),
        (25, (5, 2)),
        (49, (7, 2)),
        (32, (2, 5)),
        (999983, (999983, 1)),
    ],
)
def test_prime_power(q, expected):
    assert prime_power(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 15, 100])
def test_prime_power_rejects_non_prime_powers(q):
    with pytest.raises(PreconditionError):
        prime_power(q)


@pytest.mark.parametrize("q", [1000003, 2**31, 10**18 + 3])
def test_prime_power_refuses_q_over_the_point_cap_before_factoring(monkeypatch, q):
    monkeypatch.setattr("gen32.field.prime_factors", lambda n: pytest.fail("factored"))
    with pytest.raises(PreconditionError, match="exceeds cap"):
        prime_power(q)


def test_prime_field_arithmetic():
    f = gf(5)
    assert f.q == 5
    assert f.modulus is None
    elems = [f.element(c) for c in range(f.q)]
    assert [e.code for e in elems] == [0, 1, 2, 3, 4]
    for a in elems:
        for b in elems:
            assert (a + b).code == (a.code + b.code) % 5
            assert (a * b).code == (a.code * b.code) % 5
            assert (a - b).code == (a.code - b.code) % 5
    for a in elems[1:]:
        assert (a * a.inv()) == f.one()
        assert (a ** 4) == f.one()


@pytest.mark.parametrize(
    "q,modulus",
    [
        # lexicographically least monic irreducibles, coefficients low-degree first
        (4, (1, 1, 1)),  # x^2 + x + 1
        (9, (1, 0, 1)),  # x^2 + 1
        (25, (1, 1, 1)),  # x^2 + x + 1, which has no root mod 5
        (16, (1, 0, 0, 1, 1)),  # x^4 + x^3 + 1
        (27, (1, 0, 2, 1)),  # x^3 + 2x^2 + 1, no root mod 3
    ],
)
def test_extension_modulus_choice(q, modulus):
    f = gf(q)
    assert f.modulus == modulus


def test_extension_modulus_is_irreducible_by_brute_force():
    # degree-2 modulus over GF(3): no root in GF(3) means irreducible
    f = gf(9)
    c0, c1, c2 = f.modulus
    assert c2 == 1
    for x in range(3):
        assert (c0 + c1 * x + c2 * x * x) % 3 != 0


def test_gf9_field_axioms_exhaustive():
    f = gf(9)
    elems = [f.element(c) for c in range(f.q)]
    assert len(elems) == 9
    assert len({e.code for e in elems}) == 9
    zero, one = f.zero(), f.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    for a in elems[1:]:
        assert a * a.inv() == one


def test_element_code_round_trip():
    for q in (2, 3, 4, 5, 8, 9, 16, 25):
        f = gf(q)
        for code in range(q):
            assert f.element(code).code == code
        with pytest.raises(PreconditionError):
            f.element(q)
        with pytest.raises(PreconditionError):
            f.element(-1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 49])
def test_primitive_element_has_full_order(q):
    f = gf(q)
    w = f.element(f.ops.primitive)
    powers = set()
    x = f.one()
    for _ in range(q - 1):
        powers.add(x.code)
        x = x * w
    assert len(powers) == q - 1


def test_primitive_element_is_canonical():
    # the scan takes the least code of full multiplicative order
    assert gf(5).ops.primitive == 2
    assert gf(7).ops.primitive == 3
    assert gf(2).ops.primitive == 1
    # in GF(9) = GF(3)[x]/(x^2+1), x^2 = -1 gives x order 4; the first
    # generator is 1 + x (code 4), whose square is 2x
    assert gf(9).ops.primitive == 4
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 81, 125):
        assert gf(q).ops.primitive == primitive_element(gf(q)).code


def test_multiplicative_order_divides_group_order():
    f = gf(25)
    for e in (f.element(c) for c in range(1, f.q)):
        assert e**24 == f.one()


def test_zero_has_no_inverse():
    f = gf(5)
    with pytest.raises(PreconditionError):
        f.zero().inv()


def test_field_make_is_cached():
    assert gf(9) is gf(9)
    assert isinstance(gf(9), FieldSpec)


def test_frobenius_is_additive_in_gf9():
    f = gf(9)
    for a in (f.element(c) for c in range(f.q)):
        for b in (f.element(c) for c in range(f.q)):
            assert (a + b) ** 3 == a**3 + b**3


def test_pow_negative_exponent():
    f = gf(7)
    a = f.element(3)
    assert a ** (-1) == a.inv()
    assert a ** (-2) == (a * a).inv()


def test_cross_field_operations_rejected():
    a = gf(5).element(2)
    b = gf(7).element(2)
    with pytest.raises(PreconditionError):
        _ = a + b


# ---------------------------------------------------------------------------
# arithmetic on codes, against FieldElement


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 17, 25, 27, 49])
def test_code_arithmetic_matches_field_elements(q):
    f = gf(q)
    ops = f.ops
    elems = [f.element(c) for c in range(q)]
    for a, x in enumerate(elems):
        assert ops.neg(a) == (-x).code
        if a:
            assert ops.inv(a) == x.inv().code
        for b, y in enumerate(elems):
            assert ops.add(a, b) == (x + y).code
            assert ops.sub(a, b) == (x - y).code
            assert ops.mul(a, b) == (x * y).code
    with pytest.raises(PreconditionError):
        ops.inv(0)


@pytest.mark.parametrize("q", [4, 9, 49, 81])
def test_extension_field_sums_go_through_add_codes(monkeypatch, q):
    from gen32 import field

    f = field_make.__wrapped__(*prime_power(q))
    calls = []
    add_codes = field.add_codes

    def counted(p, a, b):
        calls.append(p)
        return add_codes(p, a, b)

    monkeypatch.setattr(field, "add_codes", counted)
    ops = f.ops
    for a in range(q):
        for b in range(q):
            assert ops.add(a, b) == add_codes(f.p, a, b)
            assert ops.sub(a, b) == add_codes(f.p, a, ops.neg(b))
    assert calls == [f.p] * (2 * q * q)


def test_field_make_builds_no_tables():
    f = field_make.__wrapped__(7, 2)
    assert "ops" not in vars(f)
    assert f.ops.mul(f.ops.primitive, 1) == f.ops.primitive
    assert "ops" in vars(f)


def test_primitive_element_builds_no_tables():
    f = field_make.__wrapped__(2, 16)
    code = _primitive_code(f.p, f.m, f.modulus)
    assert "ops" not in vars(f)
    assert code == f.ops.primitive == primitive_element(f).code


def test_code_tables_are_capped():
    # GF(3^13) has 1594323 elements, more than the cap allows a table
    f = FieldSpec(3, 13, (1,) + (0,) * 11 + (2, 1))
    with pytest.raises(PreconditionError, match="code-table cap"):
        f.ops
    assert _primitive_code(f.p, f.m, f.modulus) == primitive_element(f).code == 3


@pytest.mark.parametrize(
    "p,m", [(3, 19), (2, 31), (1000003, 1), (10**18 + 3, 1), (3, 10**8)]
)
def test_field_make_refuses_fields_over_the_point_cap_first(monkeypatch, p, m):
    def refuse(*args):
        raise AssertionError("primality test or modulus scan ran for a field over the cap")

    monkeypatch.setattr("gen32.field.is_prime", refuse)
    monkeypatch.setattr("gen32.field._poly_is_irreducible", refuse)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="exceeds cap"):
        field_make(p, m)
    # 3^(10^8) alone would take minutes to compute
    assert time.perf_counter() - start < 1


def test_field_make_accepts_a_prime_field_at_the_point_cap():
    assert field_make(999983).q == 999983  # the largest prime below 10^6


def test_fields_and_elements_are_immutable_values():
    import pickle

    f = gf(9)
    copy = FieldSpec(f.p, f.m, f.modulus)
    assert copy == f and hash(copy) == hash(f) and copy is not f
    assert FieldSpec(3, 1, None) != FieldSpec(5, 1, None)
    assert f != (3, 2, f.modulus)
    x, y = f.element(5), copy.element(5)
    assert x == y and hash(x) == hash(y) and x != f.element(4)
    assert len({x, y, f.element(4)}) == 2
    assert repr(f) == "GF(9)" and repr(x) == "5@GF(9)"
    for obj, name in ((f, "p"), (x, "coeffs"), (x, "field")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert pickle.loads(pickle.dumps(x)) == x
    assert pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_additive_images_are_sums_of_basis_images(p, n):
    # code c = sum of d_k * p^k goes to the vector sum of d_k times the
    # k-th basis image, over GF(p)^n; p = 2 sums codes by XOR
    f = field_make(p)
    rng = random.Random(p * 10 + n)
    basis = [rng.randrange(p**n) for _ in range(n)]
    vectors = [decode_vector(f, n, b) for b in basis]
    want = []
    for code in range(p**n):
        total = decode_vector(f, n, 0)
        for k, v in enumerate(vectors):
            digit = f.element(code // p**k % p)
            total = tuple(x + digit * y for x, y in zip(total, v))
        want.append(encode_vector(f, total))
    assert additive_images(p, basis) == want

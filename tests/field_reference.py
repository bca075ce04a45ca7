"""Field, vector and matrix arithmetic by ``FieldElement`` polynomial
arithmetic: the references the engine's code arithmetic is tested
against.

The engine computes on integer codes alone (``FieldSpec.ops``,
``add_codes``); nothing here is used by it.  Each helper wraps codes as
``FieldElement`` values, computes with their operators and unwraps the
result.
"""

from gen32.errors import PreconditionError
from gen32.field import FieldElement, FieldSpec, prime_factors
from gen32.matgroup import MatrixF


def primitive_element(field: FieldSpec) -> FieldElement:
    """The element of least code >= 2 and multiplicative order q - 1 (for
    q = 2, the identity, code 1): an element has that order exactly when
    none of its powers (q - 1) / l, for the primes l dividing q - 1, is 1."""
    q, one = field.q, field.one()
    if q == 2:
        return one
    exponents = [(q - 1) // ell for ell in prime_factors(q - 1)]
    return next(
        w for w in map(field.element, range(2, q)) if all(w**e != one for e in exponents)
    )


def encode_vector(field: FieldSpec, vec) -> int:
    """The point code of a vector of field elements."""
    acc = 0
    for x in reversed(vec):
        acc = acc * field.q + x.code
    return acc


def decode_vector(field: FieldSpec, dim: int, code: int) -> tuple[FieldElement, ...]:
    """The vector of field elements with a given point code."""
    out = []
    for _ in range(dim):
        code, r = divmod(code, field.q)
        out.append(field.element(r))
    if code:
        raise PreconditionError("vector code out of range")
    return tuple(out)


def rows(M) -> tuple[tuple[FieldElement, ...], ...]:
    """A matrix's rows as field elements."""
    return tuple(tuple(map(M.field.element, r)) for r in M.codes())


def apply_vector(vec, M) -> tuple[FieldElement, ...]:
    """v * M for a row vector v of field elements."""
    entries = rows(M)
    out = []
    for k in range(M.dim):
        acc = M.field.zero()
        for j in range(M.dim):
            acc = acc + vec[j] * entries[j][k]
        out.append(acc)
    return tuple(out)


def identity_matrix(field: FieldSpec, dim: int) -> MatrixF:
    """The dim x dim identity matrix."""
    return MatrixF.from_codes(field, [[int(i == j) for j in range(dim)] for i in range(dim)])


def matrix_product(A, B) -> MatrixF:
    """A * B for matrices of one shape over one field: row i is row i
    of A times B."""
    return MatrixF.from_codes(A.field, [[x.code for x in apply_vector(r, B)] for r in rows(A)])

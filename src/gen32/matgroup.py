"""Matrices over small finite fields and their permutation actions.

Matrices act on ROW vectors from the right: v -> v * M.  Vectors of
length ``dim`` over GF(q) are serialized as integer point codes
``sum(v[i].code * q**i)``, which enumerates the full space as
0 .. q^dim - 1 with the zero vector at code 0.  Converting a matrix to
the permutation it induces on point codes is therefore a homomorphism
onto a permutation group under the left-to-right product convention of
:mod:`gen32.permgroup`, and all group-level questions about a matrix
group (order, membership) are settled on the faithful permutation image
on nonzero vectors.

The text format for matrix-group files is::

    p m dim
    <dim rows of dim element codes>
    <blank line>
    <next matrix>
    ...

with one generator matrix per blank-line-separated block.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError
from .field import FieldElement, FieldSpec, field_make
from .permgroup import Perm, PermGroup

POINT_LIMIT = 10**6


class MatrixF:
    """An immutable dim x dim matrix over a FieldSpec."""

    __slots__ = ("field", "dim", "rows")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence[FieldElement]]):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.dim = len(self.rows)
        if self.dim < 1 or any(len(r) != self.dim for r in self.rows):
            raise PreconditionError("matrix must be square and nonempty")
        for r in self.rows:
            for x in r:
                if x.field != field:
                    raise PreconditionError("matrix entry from a different field")

    @classmethod
    def from_codes(cls, field: FieldSpec, code_rows: Sequence[Sequence[int]]) -> MatrixF:
        return cls(field, [[field.element(c) for c in row] for row in code_rows])

    @classmethod
    def identity(cls, field: FieldSpec, dim: int) -> MatrixF:
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(dim)] for i in range(dim)])

    def codes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(x.code for x in r) for r in self.rows)

    def __mul__(self, other: MatrixF) -> MatrixF:
        if self.field != other.field or self.dim != other.dim:
            raise PreconditionError("matrix shape or field mismatch")
        n = self.dim
        rows = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = self.field.zero()
                for j in range(n):
                    acc = acc + self.rows[i][j] * other.rows[j][k]
                row.append(acc)
            rows.append(row)
        return MatrixF(self.field, rows)

    def det(self) -> FieldElement:
        """The determinant, by Gaussian elimination."""
        n = self.dim
        f = self.field
        work = [list(r) for r in self.rows]
        det = f.one()
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if not work[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                return f.zero()
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            inv = work[col][col].inv()
            det = det * work[col][col]
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r != col and not work[r][col].is_zero():
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det

    def is_invertible(self) -> bool:
        return not self.det().is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixF)
            and self.field == other.field
            and self.codes() == other.codes()
        )

    def __hash__(self) -> int:
        return hash((self.field, self.codes()))

    def __repr__(self) -> str:
        return f"MatrixF({self.field!r}, {list(map(list, self.codes()))})"


# ---------------------------------------------------------------------------
# vectors as integer codes


def encode_vector(field: FieldSpec, vec: Sequence[FieldElement]) -> int:
    acc = 0
    for x in reversed(vec):
        acc = acc * field.q + x.code
    return acc


def decode_vector(field: FieldSpec, dim: int, code: int) -> tuple[FieldElement, ...]:
    out = []
    for _ in range(dim):
        code, r = divmod(code, field.q)
        out.append(field.element(r))
    if code:
        raise PreconditionError("vector code out of range")
    return tuple(out)


def add_codes(p: int, a: int, b: int) -> int:
    """The code of the sum of the vectors (or field elements) of codes a
    and b over a field of characteristic p.

    Codes are base-p digit strings of the coordinates' polynomial
    coefficients, so the sum adds them digit by digit mod p; for p = 2
    that is XOR.
    """
    if p == 2:
        return a ^ b
    out, weight = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + y) % p * weight
        weight *= p
    return out


def apply_vector(vec: Sequence[FieldElement], M: MatrixF) -> tuple[FieldElement, ...]:
    """v * M for a row vector v."""
    n = M.dim
    out = []
    for k in range(n):
        acc = M.field.zero()
        for j in range(n):
            acc = acc + vec[j] * M.rows[j][k]
        out.append(acc)
    return tuple(out)


def perm_from_matrix(M: MatrixF, action: str = "nonzero") -> Perm:
    """The permutation a matrix induces on vector point codes.

    ``action`` is ``"all"`` (degree q^dim, zero vector = point 0) or
    ``"nonzero"`` (degree q^dim - 1, vector of code c+1 = point c).  The
    matrix must be invertible and the point count is capped at 10^6.

    Images are built in code order by linearity.  For r < q^j the code
    d*q^j + r is the vector d*e_j + r, so its image is
    image(d*q^j) + image(r): only the images d * (row j of M) of the
    q*dim vectors d*e_j use field arithmetic, and every other point
    costs one code addition.
    """
    if not M.is_invertible():
        raise PreconditionError("only invertible matrices induce permutations")
    f = M.field
    total = f.q**M.dim
    if total > POINT_LIMIT:
        raise PreconditionError(f"point count {total} exceeds cap {POINT_LIMIT}")
    if action not in ("all", "nonzero"):
        raise PreconditionError(f"unknown action {action!r} (use 'all' or 'nonzero')")
    images = [0]
    for row in M.rows:
        lower = images[:]
        for d in range(1, f.q):
            scalar = f.element(d)
            head = encode_vector(f, [scalar * x for x in row])
            images.extend(add_codes(f.p, head, r) for r in lower)
    if action == "all":
        return Perm(images)
    return Perm([x - 1 for x in images[1:]])


# ---------------------------------------------------------------------------


class MatrixGroup:
    """A group of invertible matrices, given by generators.

    All group-theoretic questions are delegated to the faithful
    permutation image on nonzero vectors (a linear map fixing every
    nonzero vector is the identity), so the order of the matrix group is
    by definition the order of that permutation group.
    """

    __slots__ = ("field", "dim", "generators", "_perm_groups")

    def __init__(self, field: FieldSpec, dim: int, generators: Iterable[MatrixF]):
        self.field = field
        self.dim = dim
        self.generators = tuple(generators)
        for M in self.generators:
            if M.field != field or M.dim != dim:
                raise PreconditionError("generator shape or field mismatch")
            if not M.is_invertible():
                raise PreconditionError("matrix group generators must be invertible")
        self._perm_groups: dict[str, PermGroup] = {}

    def perm_group(self, action: str = "nonzero") -> PermGroup:
        if action not in self._perm_groups:
            q = self.field.q
            degree = q**self.dim - (0 if action == "all" else 1)
            self._perm_groups[action] = PermGroup(
                degree, tuple(perm_from_matrix(M, action) for M in self.generators)
            )
        return self._perm_groups[action]

    def order(self) -> int:
        return self.perm_group("nonzero").order()

    def __repr__(self) -> str:
        return f"MatrixGroup({self.field!r}, dim={self.dim}, {len(self.generators)} gens)"


def is_irreducible(G: MatrixGroup) -> bool:
    """Whether the natural module has no proper nonzero invariant
    subspace.

    Spins every one-dimensional subspace (represented by its vectors of
    lowest nonzero code) under the generators, reducing against a growing
    echelon basis; reducibility is witnessed by a spin that stalls below
    full dimension.
    """
    f, n = G.field, G.dim
    if n == 1:
        return True
    seeds = []
    seen_lines = set()
    for c in range(1, f.q**n):
        v = decode_vector(f, n, c)
        leading = next(x for x in v if not x.is_zero())
        canon = tuple((leading.inv() * x).code for x in v)
        if canon not in seen_lines:
            seen_lines.add(canon)
            seeds.append(v)
    for v in seeds:
        basis: list[tuple[FieldElement, ...]] = []
        pivots: list[int] = []

        def reduce_add(w: tuple[FieldElement, ...]) -> bool:
            w = list(w)
            for b, piv in zip(basis, pivots):
                if not w[piv].is_zero():
                    factor = w[piv]
                    w = [a - factor * c2 for a, c2 in zip(w, b)]
            piv = next((i for i, x in enumerate(w) if not x.is_zero()), None)
            if piv is None:
                return False
            lead_inv = w[piv].inv()
            basis.append(tuple(lead_inv * x for x in w))
            pivots.append(piv)
            return True

        reduce_add(v)
        queue = [v]
        while queue and len(basis) < n:
            w = queue.pop(0)
            for M in G.generators:
                u = apply_vector(w, M)
                if reduce_add(u):
                    queue.append(u)
        if len(basis) < n:
            return False
    return True


# ---------------------------------------------------------------------------
# matrix-group text format


def matrix_group_from_text(text: str) -> MatrixGroup:
    """Parse the matrix-group text format; raises ValueError when
    malformed."""
    raw_lines = text.splitlines()
    lines = [ln.strip() for ln in raw_lines]
    idx = 0
    while idx < len(lines) and not lines[idx]:
        idx += 1
    if idx == len(lines):
        raise ValueError("empty matrix group text")
    head = lines[idx].split()
    idx += 1
    if len(head) != 3:
        raise ValueError(f"expected 'p m dim' header, got {lines[idx - 1]!r}")
    try:
        p, m, dim = (int(tok) for tok in head)
    except ValueError as exc:
        raise ValueError(f"bad header {lines[idx - 1]!r}") from exc
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    try:
        field = field_make(p, m)
    except PreconditionError as exc:
        raise ValueError(str(exc)) from exc
    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    for ln in lines[idx:]:
        if not ln:
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"bad matrix row {ln!r}") from exc
        current.append(row)
    if current:
        blocks.append(current)
    gens = []
    for block in blocks:
        if len(block) != dim or any(len(row) != dim for row in block):
            raise ValueError(f"matrix block is not {dim}x{dim}: {block}")
        for row in block:
            for c in row:
                if not 0 <= c < field.q:
                    raise ValueError(f"entry code {c} out of range for GF({field.q})")
        gens.append(MatrixF.from_codes(field, block))
    return MatrixGroup(field, dim, gens)

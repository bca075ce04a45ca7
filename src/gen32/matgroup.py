"""Matrices over small finite fields and their permutation actions.

Matrices act on ROW vectors from the right: v -> v * M.  Vectors of
length ``dim`` over GF(q) are serialized as integer point codes
``sum(c[i] * q**i)``, c[i] the code of the i-th coordinate, which
enumerates the full space as 0 .. q^dim - 1 with the zero vector at
code 0.  Converting a matrix to the permutation it induces on point
codes is therefore a homomorphism onto a permutation group under the
left-to-right product convention of :mod:`gen32.permgroup`, and all
group-level questions about a matrix group (order, membership) are
settled on the faithful permutation image on nonzero vectors.

A matrix holds the integer codes of its entries, is built from codes
(``MatrixF.from_codes``), and every computation here (products, the
determinant's code, the point images of ``perm_from_matrix``, the
echelon reduction of ``is_irreducible``) runs on codes through the
field's ``FieldSpec.ops``.

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
from .field import POINT_LIMIT, CodeOps, FieldSpec, add_codes, field_make
from .permgroup import Perm, PermGroup


class MatrixF:
    """An immutable dim x dim matrix over a FieldSpec, held as the codes
    of its entries."""

    __slots__ = ("field", "dim", "_codes")

    @classmethod
    def from_codes(cls, field: FieldSpec, code_rows: Sequence[Sequence[int]]) -> MatrixF:
        M = cls.__new__(cls)
        M.field = field
        M._codes = tuple(tuple(r) for r in code_rows)
        M.dim = len(M._codes)
        if M.dim < 1 or any(len(r) != M.dim for r in M._codes):
            raise PreconditionError("matrix must be square and nonempty")
        bad = next((c for r in M._codes for c in r if not 0 <= c < field.q), None)
        if bad is not None:
            raise PreconditionError(f"entry code {bad} out of range for GF({field.q})")
        return M

    @classmethod
    def identity(cls, field: FieldSpec, dim: int) -> MatrixF:
        return cls.from_codes(field, [[int(i == j) for j in range(dim)] for i in range(dim)])

    def codes(self) -> tuple[tuple[int, ...], ...]:
        return self._codes

    def __mul__(self, other: MatrixF) -> MatrixF:
        if self.field != other.field or self.dim != other.dim:
            raise PreconditionError("matrix shape or field mismatch")
        ops = self.field.ops
        return MatrixF.from_codes(
            self.field, [_row_times(r, other._codes, ops) for r in self._codes]
        )

    def det(self) -> int:
        """The code of the determinant, by Gaussian elimination."""
        ops = self.field.ops
        sub, mul = ops.sub, ops.mul
        n = self.dim
        work = [list(r) for r in self._codes]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = ops.neg(det)
            lead = work[col][col]
            det = mul(det, lead)
            scale = ops.inv(lead)
            row = [mul(scale, x) for x in work[col]]
            for r in range(col + 1, n):
                factor = work[r][col]
                if factor:
                    work[r] = [sub(a, mul(factor, b)) for a, b in zip(work[r], row)]
        return det

    def is_invertible(self) -> bool:
        return self.det() != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixF)
            and self.field == other.field
            and self._codes == other._codes
        )

    def __hash__(self) -> int:
        return hash((self.field, self._codes))

    def __repr__(self) -> str:
        return f"MatrixF({self.field!r}, {list(map(list, self._codes))})"


def _row_times(v: Sequence[int], rows: Sequence[Sequence[int]], ops: CodeOps) -> list[int]:
    """The codes of v * M for the codes v of a row vector and rows of M:
    the combination of M's rows with v's coordinates as coefficients."""
    add, mul = ops.add, ops.mul
    out = [0] * len(rows)
    for x, row in zip(v, rows):
        if x:
            out = [add(a, mul(x, b)) for a, b in zip(out, row)]
    return out


def perm_from_matrix(M: MatrixF, action: str = "nonzero") -> Perm:
    """The permutation a matrix induces on vector point codes.

    ``action`` is ``"all"`` (degree q^dim, zero vector = point 0) or
    ``"nonzero"`` (degree q^dim - 1, vector of code c+1 = point c).  The
    matrix must be invertible and the point count is capped at 10^6.

    Images are built in code order by linearity.  For r < q^j the code
    d*q^j + r is the vector d*e_j + r, so its image is
    image(d*q^j) + image(r): only the images d * (row j of M) of the
    q*dim vectors d*e_j multiply codes, and every other point costs one
    code addition.
    """
    f = M.field
    total = f.q**M.dim
    if total > POINT_LIMIT:
        raise PreconditionError(f"point count {total} exceeds cap {POINT_LIMIT}")
    if action not in ("all", "nonzero"):
        raise PreconditionError(f"unknown action {action!r} (use 'all' or 'nonzero')")
    if not M.is_invertible():
        raise PreconditionError("only invertible matrices induce permutations")
    p, q, mul = f.p, f.q, f.ops.mul
    images = [0]
    for row in M.codes():
        lower = images[:]
        for d in range(1, q):
            head = 0
            for x in reversed(row):
                head = head * q + mul(d, x)
            images.extend(add_codes(p, head, r) for r in lower)
    if action == "all":
        return Perm(images)
    return Perm([x - 1 for x in images[1:]])


# ---------------------------------------------------------------------------


class MatrixGroup:
    """A group of invertible matrices, given by generators.

    All group-theoretic questions are delegated to the faithful
    permutation image on nonzero vectors (a linear map fixing every
    nonzero vector is the identity), so the order of the matrix group is
    by definition the order of that permutation group.  A linear map
    fixing the standard basis vectors is the identity, so their points,
    the codes q^i (q^i - 1 on nonzero vectors), are a base of either
    permutation group.
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
            shift = 0 if action == "all" else 1
            self._perm_groups[action] = PermGroup._with_base(
                q**self.dim - shift,
                tuple(perm_from_matrix(M, action) for M in self.generators),
                tuple(q**i - shift for i in range(self.dim)),
            )
        return self._perm_groups[action]

    def order(self) -> int:
        return self.perm_group("nonzero").order()

    def __repr__(self) -> str:
        return f"MatrixGroup({self.field!r}, dim={self.dim}, {len(self.generators)} gens)"


def is_irreducible(A: PermGroup) -> bool:
    """Whether the linear part of an affine group A = V . L, as
    ``affine_group`` or ``affine_of_linear_perms`` builds it, leaves no
    proper nonzero subspace of V = GF(q)^dim invariant.

    Spins the code of one vector of every one-dimensional subspace (the
    one whose first nonzero coordinate is 1) under ``A.linear``'s
    permutations, one lookup per image, reducing each image's coordinates
    against a growing echelon basis; reducibility is witnessed by a spin
    that stalls below full dimension.
    """
    linear = getattr(A, "linear", None)
    if not isinstance(linear, PermGroup):
        raise PreconditionError("is_irreducible needs an affine group")
    q, n = A.field.q, A.dim
    if n == 1:
        return True
    images = [g.images for g in linear.generators]
    for lead in range(n):
        for tail in range(q ** (n - 1 - lead)):
            if not _spin_fills_space(q**lead * (1 + q * tail), images, A.field, n):
                return False
    return True


def _spin_fills_space(v: int, images: Sequence[Sequence[int]], field: FieldSpec, n: int) -> bool:
    """Whether the images of the vector of code v under products of the
    permutations, given by their images, span the whole space."""
    q, ops = field.q, field.ops
    basis: list[tuple[int, list[int]]] = []
    _echelon_add(basis, [v // q**i % q for i in range(n)], ops)
    queue = [v]
    for w in queue:
        if len(basis) == n:
            break
        for g in images:
            u = g[w]
            if _echelon_add(basis, [u // q**i % q for i in range(n)], ops):
                queue.append(u)
    return len(basis) == n


def _echelon_add(basis: list[tuple[int, list[int]]], w: Sequence[int], ops: CodeOps) -> bool:
    """Reduce the code vector w against an echelon basis of (pivot, row)
    pairs, each row 1 at its pivot and 0 at every earlier row's pivot;
    append the remainder, scaled to 1 at its first nonzero coordinate,
    and say whether it was nonzero."""
    sub, mul = ops.sub, ops.mul
    for piv, row in basis:
        factor = w[piv]
        if factor:
            w = [sub(a, mul(factor, b)) for a, b in zip(w, row)]
    for piv, x in enumerate(w):
        if x:
            scale = ops.inv(x)
            basis.append((piv, [mul(scale, y) for y in w]))
            return True
    return False


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
        try:
            gens.append(MatrixF.from_codes(field, block))
        except PreconditionError as exc:
            raise ValueError(str(exc)) from exc
    return MatrixGroup(field, dim, gens)

"""Named group constructions.

Everything the CLI and the claim suites can build lives here:

* ``s0_group(q)`` — the monomial subgroup of GL(2, q) generated by the
  coordinate swap, diag(1, -1) and diag(w, w^-1) for the canonical
  primitive element w; it consists of the 4(q - 1) matrices
  diag(a, +-1/a) and antidiag(a; +-1/a) and is irreducible for odd q.
* ``affine_group(G0)`` — the semidirect product V . G0 of the
  translation group of V = GF(q)^dim with a matrix group G0, as a
  permutation group on the q^dim vector codes, and
  ``affine_of_linear_perms`` for a linear part given by permutations of
  those codes.  Both check that every linear generator fixes the zero
  vector and is additive: that it equals the map ``additive_images``
  builds from its images of the GF(p)-basis codes p^k.  Then the
  translations are a regular normal subgroup and the linear part is the
  whole stabilizer of 0, so the stabilizer chain is assembled, when
  first needed, from a level for the orbit of 0 on top of a Schreier-Sims
  chain of the linear generators alone, instead of a Schreier-Sims run
  over V . G0.  Its ``field``, ``dim`` and ``linear`` are all that
  ``is_irreducible`` and ``gens.d_affine`` read.
* ``table1_group(i)`` / ``table2_group(i)`` — affine groups over
  stabilizer matrix groups loaded from the bundled ``data/*.mat`` files
  (four exceptional 3/2-transitive groups and the two larger monomial
  overgroups that normalize two of them).
* ``sl2(p)`` — SL(2, p) from its two standard generators, plus the
  twisted pair check that an upper and a lower unitriangular generator
  already give the whole group.
* ``z_group(m, n, r)`` — the metacyclic group <a, b | a^m, b^n,
  conjugation by b raises a to the r-th power> in its regular action,
  and ``z_group_kernel_action`` for the degree-m action on <a>'s points.
* ``agl1(q)`` — the 1-dimensional affine group, x -> ax + b.

Generator order and point codings are fixed by each constructor, so
every construction is bit-reproducible.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator

from .errors import PreconditionError
from .field import POINT_LIMIT, FieldSpec, add_codes, additive_images, field_make, prime_power
# is_irreducible is here for gens, which takes affine groups from this module
from .matgroup import MatrixF, MatrixGroup, is_irreducible, matrix_group_from_text
from .permgroup import Perm, PermGroup, StabChain, chain_from_stabilizer

DATA_ENV = "GEN32_DATA_DIR"


# ---------------------------------------------------------------------------
# monomial groups S_0(q)


def s0_group(q: int) -> MatrixGroup:
    """The monomial group of order 4(q - 1) inside GL(2, q), q odd, with
    q^2 - 1 <= POINT_LIMIT nonzero vectors to act on.

    Generated by u = antidiag(1; 1), v = diag(1, -1) and
    w = diag(w0, w0^-1) with w0 the canonical primitive element.
    """
    p, m = prime_power(q)
    if p == 2:
        raise PreconditionError("s0_group needs odd q")
    if q * q - 1 > POINT_LIMIT:
        raise PreconditionError(f"point count {q * q - 1} exceeds cap {POINT_LIMIT}")
    f = field_make(p, m)
    ops = f.ops
    w0 = ops.primitive
    u = MatrixF.from_codes(f, [[0, 1], [1, 0]])
    v = MatrixF.from_codes(f, [[1, 0], [0, ops.neg(1)]])
    w = MatrixF.from_codes(f, [[w0, 0], [0, ops.inv(w0)]])
    return MatrixGroup(f, 2, [u, v, w])


# ---------------------------------------------------------------------------
# affine groups


def translations(field: FieldSpec, dim: int, codes: Iterable[int]) -> Iterator[Perm]:
    """Permutations v -> v + u of the vector codes, one per code u, in
    the given order.

    A vector code is the base-p digit string of its coordinates' codes,
    so v + u is a digit-wise sum mod p of the two codes (``add_codes``).
    """
    p = field.p
    points = range(field.q**dim)
    for u in codes:
        yield Perm([add_codes(p, v, u) for v in points])


@lru_cache(maxsize=None)
def _basis_translation(field: FieldSpec, dim: int, code: int) -> Perm:
    """The translation by a GF(p)-basis code p^k, built once per field,
    dimension and code: every affine group over the same space shares
    it."""
    return next(translations(field, dim, (code,)))


def translation_perms(field: FieldSpec, dim: int) -> list[Perm]:
    """The dim standard-basis translations v -> v + e_i on vector codes;
    e_i has code q^i.  They generate V only over a prime field; over
    GF(p^m) they generate the GF(p)-span of the e_i, of order p^dim."""
    q = field.q
    total = q**dim
    if total > POINT_LIMIT:
        raise PreconditionError(f"point count {total} exceeds cap {POINT_LIMIT}")
    return [_basis_translation(field, dim, q**i) for i in range(dim)]


def extend_fixing_zero(g: Perm) -> Perm:
    """Reindex a permutation of nonzero vector codes (point c = vector
    c + 1) to the full code space, fixing the zero vector."""
    return Perm._raw((0,) + tuple(x + 1 for x in g.images))


def _check_additive(p: int, g: Perm) -> None:
    """Raise unless a permutation of the vector codes fixes the zero
    vector and is additive, g[a + b] = g[a] + g[b]: g must equal the
    additive map that ``additive_images`` builds from g's own images of
    the GF(p)-basis codes p^k, one code sum per point.
    """
    images = g.images
    if images[0] != 0:
        raise PreconditionError("linear generator moves the zero vector")
    basis, w = [], 1
    while w < len(images):
        basis.append(images[w])
        w *= p
    if tuple(additive_images(p, basis)) != images:
        raise PreconditionError("linear generator is not additive")


class _AffineGroup(PermGroup):
    """The affine group G = V . H on the q^dim vector codes, for a group
    H of additive permutations fixing the zero vector.

    V is GF(q)^dim for ``field`` and ``dim``, and ``linear`` is H on all
    q^dim codes with a known base, such as the GF(p)-basis codes p^k: an
    additive permutation fixing them fixes every code.

    Its generators are the dim GF(q)-basis translations (codes q^i), then
    H's generators, then the translation by each GF(p)-basis code p^k
    that the orbit of 0 under the generators before it does not reach.
    Over a prime field p^k = q^k, so none is appended.  Over GF(p^m)
    with m > 1 the orbit of 0 under the GF(q)-basis translations and H
    is the H-submodule over GF(p) that the basis spans, which may be
    smaller than V even for H irreducible over GF(q); the appended
    translations make up the rest, so the translations given generate V.

    The q^dim translations form a regular group T, and each generator of
    H is additive, so it normalizes T.  Hence every element of G is
    t_v * h with t_v a translation and h in H; it fixes the zero vector
    only when v = 0, so the stabilizer G_0 is exactly H.  The stabilizer
    chain is therefore assembled, on first use, from a level for the
    orbit of 0 (all of V, so |G| = q^dim * |H|) on top of H's chain
    (``chain_from_stabilizer``), with no Schreier-Sims run over G.
    """

    __slots__ = ("field", "dim", "linear")

    def __init__(self, field: FieldSpec, dim: int, linear: PermGroup):
        total = field.q**dim
        gens = translation_perms(field, dim) + list(linear.generators)
        for g in linear.generators:
            _check_additive(field.p, g)
        for k in range(field.m * dim):
            if k % field.m and field.p**k not in PermGroup(total, gens).orbit(0):
                gens.append(_basis_translation(field, dim, field.p**k))
        super().__init__(total, gens)
        self.field = field
        self.dim = dim
        self.linear = linear

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = chain_from_stabilizer(self.degree, self.generators, 0, self.linear.chain())
        return self._chain


def affine_of_linear_perms(field: FieldSpec, dim: int, linear_perms: tuple[Perm, ...]) -> PermGroup:
    """The affine group V . L for a linear group L given by its
    permutations of all q^dim vector codes.

    Generators are the dim GF(q)-basis translations, the linear
    generators, and over GF(p^m) with m > 1 the GF(p)-basis translations
    still needed to generate V.  Each linear generator must have degree
    q^dim, fix the zero vector and be additive (else
    ``PreconditionError``), and the stabilizer chain is assembled from
    the translations and a chain of L alone (``_AffineGroup``).
    """
    base = [field.p**k for k in range(field.m * dim)]
    return _AffineGroup(field, dim, PermGroup._with_base(field.q**dim, linear_perms, base))


def affine_group(G0: MatrixGroup) -> PermGroup:
    """The semidirect product V . G0 on all q^dim vector codes.

    The linear part is G0's own permutation group on all vectors
    (``MatrixGroup.perm_group("all")``, with its chain shared), so the
    generators are the dim standard-basis translations followed by the
    permutations of the matrix generators of G0.  Over GF(p^m) with
    m > 1 the translations by the GF(p)-basis codes p^k that these do
    not yet reach follow, so the translations generate V even when G0
    is irreducible over GF(q) but not over GF(p).
    """
    return _AffineGroup(G0.field, G0.dim, G0.perm_group("all"))


# ---------------------------------------------------------------------------
# bundled stabilizer tables


def data_dir() -> Path:
    env = os.environ.get(DATA_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


_TABLE_CACHE: dict[str, MatrixGroup] = {}


def _load_matrix_group(stem: str) -> MatrixGroup:
    if stem not in _TABLE_CACHE:
        path = data_dir() / f"{stem}.mat"
        try:
            text = path.read_text()
        except OSError as exc:
            raise PreconditionError(f"cannot read bundled data file {path}: {exc}") from exc
        try:
            _TABLE_CACHE[stem] = matrix_group_from_text(text)
        except ValueError as exc:
            raise PreconditionError(f"corrupt data file {path}: {exc}") from exc
    return _TABLE_CACHE[stem]


def table1_matrix_group(i: int) -> MatrixGroup:
    """Stabilizer matrix group of the i-th bundled exceptional group,
    i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise PreconditionError(f"table1 index must be 1..4, got {i}")
    return _load_matrix_group(f"table1_G{i}")


def table2_matrix_group(i: int) -> MatrixGroup:
    """Stabilizer matrix group of the i-th bundled monomial overgroup,
    i in 1..2."""
    if i not in (1, 2):
        raise PreconditionError(f"table2 index must be 1..2, got {i}")
    return _load_matrix_group(f"table2_M{i}")


def table1_group(i: int) -> PermGroup:
    return affine_group(table1_matrix_group(i))


def table2_group(i: int) -> PermGroup:
    return affine_group(table2_matrix_group(i))


# ---------------------------------------------------------------------------
# SL(2, p)


def sl2(p: int) -> MatrixGroup:
    """SL(2, p) for prime p, from the standard generator pair
    [[1,1],[0,1]] and [[0,1],[-1,0]]."""
    f = field_make(p, 1)
    u = MatrixF.from_codes(f, [[1, 1], [0, 1]])
    v = MatrixF.from_codes(f, [[0, 1], [p - 1, 0]])
    return MatrixGroup(f, 2, [u, v])


def sl2_twisted_group(p: int) -> MatrixGroup:
    """The subgroup <u, u^t'> of SL(2, p) generated by [[1,1],[0,1]] and
    its twisted transpose [[1,0],[-w,1]], w the canonical primitive
    element mod p, for prime p > 3; then this is again all of SL(2, p)."""
    if p <= 3:
        raise PreconditionError(f"sl2_twisted_group needs a prime p > 3, got {p}")
    f = field_make(p, 1)
    u = MatrixF.from_codes(f, [[1, 1], [0, 1]])
    ut = MatrixF.from_codes(f, [[1, 0], [f.ops.neg(f.ops.primitive), 1]])
    return MatrixGroup(f, 2, [u, ut])


def sl2_order(p: int) -> int:
    return p * (p * p - 1)


def sl2_twisted_check(p: int) -> bool:
    """Whether the unitriangular pair generates the full SL(2, p)."""
    return sl2_twisted_group(p).order() == sl2_order(p)


# ---------------------------------------------------------------------------
# metacyclic Z-groups


def _z_group_check(m: int, n: int, r: int) -> None:
    if m < 1 or n < 1:
        raise PreconditionError("z_group needs m, n >= 1")
    if m * n > POINT_LIMIT:
        raise PreconditionError(f"point count {m * n} exceeds cap {POINT_LIMIT}")
    if not 1 <= r <= m:
        raise PreconditionError(f"z_group twist r must satisfy 1 <= r <= m, got {r}")
    if gcd(m, n) != 1:
        raise PreconditionError(f"z_group needs gcd(m, n) = 1, got gcd({m}, {n})")
    if m > 1:
        if gcd(r - 1, m) != 1:
            raise PreconditionError(f"z_group needs gcd(r - 1, m) = 1, got r = {r}, m = {m}")
        if pow(r, n, m) != 1:
            raise PreconditionError(f"z_group needs r^n = 1 mod m, got r = {r}")


def z_group(m: int, n: int, r: int) -> PermGroup:
    """The order-mn metacyclic group <a, b> with a^m = b^n = 1 and
    b-conjugation raising a to a power of twist r, in its regular
    action.

    Points code the normal forms a^i b^j as i + m*j; right
    multiplication by a sends (i, j) to (i + r^j mod m, j) and by b
    sends (i, j) to (i, j + 1 mod n).  The action is regular, so the
    point 0 is a base.  The constraints gcd(m, n) = 1,
    gcd(r - 1, m) = 1 and r^n = 1 mod m make every subgroup of prime
    power order cyclic, so every abelian subgroup is cyclic too.
    """
    _z_group_check(m, n, r)
    total = m * n
    a_images = [0] * total
    b_images = [0] * total
    for j in range(n):
        rj = pow(r, j, m)
        for i in range(m):
            a_images[i + m * j] = (i + rj) % m + m * j
            b_images[i + m * j] = i + m * ((j + 1) % n)
    return PermGroup._with_base(total, (Perm(a_images), Perm(b_images)), (0,))


def z_group_kernel_action(m: int, n: int, r: int) -> PermGroup:
    """The same group acting on the m points of its cyclic kernel <a>
    (the right-coset space of <b>): a translates, b multiplies by r."""
    _z_group_check(m, n, r)
    a = Perm([(i + 1) % m for i in range(m)])
    b = Perm([(i * r) % m for i in range(m)])
    return PermGroup(m, (a, b))


# ---------------------------------------------------------------------------
# one-dimensional affine groups


def agl1(q: int) -> PermGroup:
    """AGL(1, q) = {x -> ax + b} on the q field-element codes, generated
    by x -> x + 1 and x -> wx for the canonical primitive element w.
    Only the identity fixes 0 and 1, so they are a base."""
    ops = field_make(*prime_power(q)).ops
    t = Perm([ops.add(c, 1) for c in range(q)])
    w0 = ops.primitive
    s = Perm([ops.mul(c, w0) for c in range(q)])
    return PermGroup._with_base(q, (t, s), (0, 1))

"""Exact arithmetic in small finite fields GF(p^m).

An element of GF(p^m) is a polynomial of degree < m over GF(p), stored as
a coefficient tuple with the low-degree coefficient first, reduced modulo
a fixed monic irreducible modulus.  The modulus is canonical: the
lexicographically smallest monic irreducible polynomial of degree m,
comparing coefficient sequences low degree first.  Prime fields (m = 1)
carry no modulus and reduce to arithmetic mod p.

Every element has an integer code ``sum(coeffs[i] * p**i)``; codes run
through 0 .. p^m - 1 and are the serialization form used everywhere in
this package (vectors, matrices, data files).  The canonical primitive
element is the one of smallest code >= 2 generating the multiplicative
group (GF(2) degenerately uses its identity, code 1).

The engine computes on codes: ``FieldSpec.ops`` adds, subtracts,
negates, multiplies and inverts codes, by plain arithmetic mod p in a
prime field.  For m > 1 it adds codes digit by digit (``add_codes``, the
one sum of codes, which also adds vectors) and multiplies them through
log/antilog tables of size q, built on first use.  ``FieldElement``
(``FieldSpec.element``, ``zero``, ``one``) computes on coefficient
tuples by polynomial arithmetic; nothing in the engine uses it, and it
is kept as the reference the code arithmetic is tested against.

``POINT_LIMIT`` bounds the field order as it bounds a permutation
action's point set: ``field_make`` refuses p^m > ``POINT_LIMIT`` before
it looks for a modulus, so a field's code tables never outgrow it.
All algorithms are the direct deterministic ones; there is no
randomized factoring or primality testing anywhere.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

from .errors import PreconditionError

# The most points a permutation action, and the most elements a field,
# may have.
POINT_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test for small n: n is its own only prime
    divisor."""
    return n > 1 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n >= 1, by trial division."""
    if n < 1:
        raise PreconditionError(f"prime_factors expects n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Write q as p^m with p prime, or raise if q is not a prime power.
    Refuses q > ``POINT_LIMIT`` before factoring, as no field that large
    is built."""
    if q < 2:
        raise PreconditionError(f"{q} is not a prime power")
    if q > POINT_LIMIT:
        raise PreconditionError(f"q = {q} exceeds cap {POINT_LIMIT}")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise PreconditionError(f"{q} is not a prime power")
    p = ps[0]
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise PreconditionError("internal factoring error")
    return p, m


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, low degree first

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo a monic polynomial mod."""
    r = list(a)
    dm = len(mod) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * mod[i]) % p
        r.pop()
    return _ptrim(r)


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over GF(p)."""
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [(c * inv_lead) % p for c in b]
        a, b = monic_b, _pmod(a, monic_b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _ppowmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """a^e reduced modulo the monic polynomial mod, by binary powering."""
    result = [1]
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    A root is a linear factor, so a polynomial of degree >= 2 with a root
    is reducible; that test is complete up to degree 3.  Higher degrees
    without a root use the standard criterion x^(p^m) = x mod f together
    with gcd(x^(p^(m/l)) - x, f) = 1 for every prime l dividing m.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if m <= 3:
        return True
    xq = _ppowmod([0, 1], p**m, coeffs, p)
    if _ptrim(list(xq)) != [0, 1]:
        return False
    for ell in prime_factors(m):
        g = _pgcd(_psub(_ppowmod([0, 1], p ** (m // ell), coeffs, p), [0, 1], p), coeffs, p)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# arithmetic on element codes


def _digits(code: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a code, low first: its coefficients."""
    digits = []
    for _ in range(m):
        code, r = divmod(code, p)
        digits.append(r)
    return digits


def _code(coeffs: Sequence[int], p: int) -> int:
    """The code of a coefficient sequence, low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def add_codes(p: int, a: int, b: int) -> int:
    """The code of the sum of the field elements (or vectors) of codes a
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


def _primitive_code(p: int, m: int, modulus: Sequence[int] | None) -> int:
    """The code of the canonical primitive element of GF(p^m): the least
    code >= 2 of multiplicative order q - 1 (for q = 2, the identity,
    code 1).  An element has that order exactly when none of its powers
    (q - 1) / l, for the primes l dividing q - 1, is 1.  A prime field
    reduces modulo x, which keeps the constant coefficient."""
    q = p**m
    if q == 2:
        return 1
    mod = modulus or (0, 1)
    exponents = [(q - 1) // ell for ell in prime_factors(q - 1)]
    return next(
        c for c in range(2, q)
        if all(_ppowmod(_digits(c, p, m), e, mod, p) != [1] for e in exponents)
    )


class PrimeCodes:
    """Arithmetic on the codes 0 .. p - 1 of GF(p): plain arithmetic mod
    p.  ``primitive`` is the code of the canonical primitive element."""

    __slots__ = ("p", "primitive")

    def __init__(self, p: int):
        self.p = p
        self.primitive = _primitive_code(p, 1, None)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if not a:
            raise PreconditionError("zero has no multiplicative inverse")
        return pow(a, -1, self.p)


class LogTableCodes:
    """Arithmetic on the codes of GF(p^m), m > 1.  Sums add the codes
    digit by digit (``add_codes``); products and inverses go through
    logarithms to the base of the canonical primitive element g (code
    ``primitive``).

    ``_log[c]`` is the logarithm of a nonzero code c and ``_exp[k]`` the
    code of g^k.  ``_exp`` holds its q - 1 entries twice over, so a sum
    of two logarithms needs no reduction and a negative index wraps
    modulo q - 1.  -1 is g^half, with half = (q - 1) / 2 for odd p and 0
    in characteristic 2.
    """

    __slots__ = ("p", "primitive", "_log", "_exp", "_half")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        q = p**m
        n = q - 1
        self.p = p
        self.primitive = _primitive_code(p, m, modulus)
        g = _ptrim(_digits(self.primitive, p, m))
        log: list[int | None] = [None] * q
        exp = [0] * n
        x = [1]
        for k in range(n):
            code = _code(x, p)
            exp[k] = code
            log[code] = k
            x = _pmod(_pmul(x, g, p), modulus, p)
        self._log = log
        self._exp = exp * 2
        self._half = n // 2 if p != 2 else 0

    def add(self, a: int, b: int) -> int:
        return add_codes(self.p, a, b)

    def sub(self, a: int, b: int) -> int:
        return add_codes(self.p, a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._half] if a else 0

    def mul(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a: int) -> int:
        if not a:
            raise PreconditionError("zero has no multiplicative inverse")
        return self._exp[-self._log[a]]


CodeOps = PrimeCodes | LogTableCodes

# ---------------------------------------------------------------------------


class _Frozen:
    """A value whose fields are set once, by ``__init__``: assigning or
    deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(_Frozen):
    """A finite field GF(p^m) with its canonical modulus.

    ``modulus`` is the full coefficient tuple (length m + 1, low degree
    first, leading coefficient 1); it is None exactly when m = 1.
    Immutable; equal and hashed by (p, m, modulus).  Its ``__dict__``
    holds only ``ops``, once set up.
    """

    __slots__ = ("p", "m", "modulus", "__dict__")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self) -> tuple:
        return FieldSpec, (self.p, self.m, self.modulus)

    @property
    def q(self) -> int:
        return self.p**self.m

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    @cached_property
    def ops(self) -> CodeOps:
        """Arithmetic on this field's element codes, set up on first use.

        The tables of an extension field hold q entries each, so they are
        capped like the point set of a permutation action."""
        if self.m == 1:
            return PrimeCodes(self.p)
        if self.q > POINT_LIMIT:
            raise PreconditionError(
                f"GF({self.q}) exceeds the code-table cap {POINT_LIMIT}"
            )
        return LogTableCodes(self.p, self.m, self.modulus)

    def element(self, code: int) -> FieldElement:
        """The element with the given integer code (base-p digits)."""
        if not 0 <= code < self.q:
            raise PreconditionError(f"element code {code} out of range for GF({self.q})")
        return FieldElement(self, tuple(_digits(code, self.p, self.m)))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_make(p: int, m: int = 1) -> FieldSpec:
    """Construct GF(p^m).

    The modulus for m >= 2 is found by scanning monic degree-m
    polynomials in lexicographic order of their coefficient sequences
    (low degree first) and taking the first irreducible one.  Fields
    with more than ``POINT_LIMIT`` elements are refused before the
    characteristic's primality test and the scan.
    """
    if m < 1:
        raise PreconditionError(f"field degree must be >= 1, got {m}")
    # an exponent past the cap's bit length overflows it for any |p| >= 2,
    # so p**m is never formed for it
    if abs(p) >= 2 and m > POINT_LIMIT.bit_length() or p**m > POINT_LIMIT:
        raise PreconditionError(f"field order {p}^{m} exceeds cap {POINT_LIMIT}")
    if not is_prime(p):
        raise PreconditionError(f"field characteristic must be prime, got {p}")
    if m == 1:
        return FieldSpec(p, 1, None)
    for low in product(range(p), repeat=m):
        coeffs = low + (1,)
        if _poly_is_irreducible(coeffs, p):
            return FieldSpec(p, m, coeffs)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FieldElement(_Frozen):
    """An element of a FieldSpec; immutable and hashable, equal by
    (field, coeffs)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __reduce__(self) -> tuple:
        return FieldElement, (self.field, self.coeffs)

    @property
    def code(self) -> int:
        return _code(self.coeffs, self.field.p)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: FieldElement) -> None:
        if self.field != other.field:
            raise PreconditionError("mixed-field arithmetic")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> FieldElement:
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        f = self.field
        if f.m == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        prod = _pmod(_pmul(self.coeffs, other.coeffs, f.p), f.modulus, f.p)
        prod = prod + [0] * (f.m - len(prod))
        return FieldElement(f, tuple(prod))

    def inv(self) -> FieldElement:
        """Multiplicative inverse; errors on zero."""
        if self.is_zero():
            raise PreconditionError("zero has no multiplicative inverse")
        return self ** (self.field.q - 2)

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"{self.code}@GF({self.field.q})"


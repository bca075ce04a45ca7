"""Claim suites: recompute every bundled reference value and compare.

Each suite returns a list of ClaimVerdict records, one per claim, with
stable dotted claim ids:

* ``table1`` — the four bundled exceptional affine groups: degree, rank,
  d, stabilizer order, primitivity, 3/2-transitivity, and failure of
  2-transitivity;
* ``lemma7`` — the d(S_0(q)) dichotomy (3 when q = 1 mod 4, else 2)
  together with the structure of S_0(q)/<w^2>: order 8, elementary
  abelian or dihedral by the same congruence;
* ``table2`` — the two monomial overgroups: stabilizer order,
  2-transitivity, normality of the smaller stabilizer, index, and the
  exhaustive witness scan (every stabilizer element of order r-1 makes
  the smaller stabilizer transitive on nonzero vectors);
* ``corollary3`` — for every intermediate subgroup T_0 between the two
  stabilizers (via the quotient, lifted through coset representatives):
  the affine group over T_0 is 2-transitive if and only if the index
  |T_0 : G_0| is a multiple of r-1;
* ``genlemmas`` — groups whose abelian subgroups are all cyclic are
  2-generated (positive corpus and negative controls), and the
  unitriangular pair generates SL(2, p).

A verdict passes exactly when expected == computed; there are no
tolerances.  Expected values are bundled constants; computed values come
from the engine.  Suites are deterministic: identical runs produce
identical verdict lists (timing aside).
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Sequence

from .constructions import (
    affine_group,
    affine_of_linear_perms,
    s0_group,
    sl2,
    sl2_order,
    sl2_twisted_check,
    table1_matrix_group,
    table2_matrix_group,
    z_group,
)
from .errors import PreconditionError
from .field import prime_power
from .gens import all_abelian_subgroups_cyclic, d_affine, d_exact
from .permgroup import (
    Perm,
    PermGroup,
    coset_action,
    normal_in,
    subgroups_up_to_conjugacy,
    symmetric_group,
)
from .transitivity import is_primitive, is_three_halves_transitive, rank

LEMMA7_DEFAULT_Q = (3, 5, 7, 9, 11, 13, 17, 19, 25)
LEMMA7_MAX_Q = 49

TABLE1_EXPECTED = {
    1: {"n": 25, "rk": 4, "d": 3, "order0": 16},
    2: {"n": 81, "rk": 6, "d": 4, "order0": 32},
    3: {"n": 81, "rk": 6, "d": 3, "order0": 32},
    4: {"n": 289, "rk": 10, "d": 3, "order0": 64},
}

TABLE2_EXPECTED = {
    1: {"order0": 96, "index": 6, "r1": 3},
    2: {"order0": 3840, "index": 120, "r1": 5},
}

TWISTED_PRIMES = (5, 7, 11, 13, 29)


class ClaimVerdict(NamedTuple):
    """One checked claim: its id, the expected and computed values,
    whether they agree, and how long the computation took."""

    claim_id: str
    expected: object
    computed: object
    passed: bool
    runtime_ms: int


def _claim(claim_id: str, expected: object, compute: Callable[[], object]) -> ClaimVerdict:
    t0 = time.perf_counter()
    computed = compute()
    ms = int((time.perf_counter() - t0) * 1000)
    return ClaimVerdict(
        claim_id=claim_id,
        expected=expected,
        computed=computed,
        passed=expected == computed,
        runtime_ms=ms,
    )


# ---------------------------------------------------------------------------
# table1


def verify_table1() -> list[ClaimVerdict]:
    """Seven claims for each of the four bundled exceptional groups."""
    out: list[ClaimVerdict] = []
    for i in (1, 2, 3, 4):
        exp = TABLE1_EXPECTED[i]
        G = affine_group(table1_matrix_group(i))
        cid = f"table1.G{i}"
        out.append(_claim(f"{cid}.n", exp["n"], lambda G=G: G.degree))
        out.append(_claim(f"{cid}.order0", exp["order0"], lambda G=G: G.linear.order()))
        out.append(_claim(f"{cid}.rk", exp["rk"], lambda G=G: rank(G)))
        out.append(_claim(f"{cid}.d", exp["d"], lambda G=G: d_affine(G).value))
        out.append(_claim(f"{cid}.primitive", True, lambda G=G: is_primitive(G)))
        out.append(
            _claim(f"{cid}.threehalves", True, lambda G=G: is_three_halves_transitive(G))
        )
        out.append(_claim(f"{cid}.twotransitive", False, lambda G=G: rank(G) == 2))
    return sorted(out, key=lambda v: v.claim_id)


# ---------------------------------------------------------------------------
# lemma7


def _order8_type(Q: PermGroup) -> str:
    """Classify a group of order 8 (or report its order if not 8)."""
    n = Q.order()
    if n != 8:
        return f"order-{n}"
    orders = sorted(e.order() for e in Q.elements())
    if Q.is_abelian():
        if orders[-1] == 2:
            return "elementary-abelian"
        if orders[-1] == 8:
            return "cyclic"
        return "c4xc2"
    involutions = orders.count(2)
    return "dihedral" if involutions == 5 else "quaternion"


def verify_lemma7(q_list: Sequence[int] | None = None) -> list[ClaimVerdict]:
    """The generator-count dichotomy for the monomial groups S_0(q),
    with the order-8 quotient structure check."""
    qs = tuple(q_list) if q_list is not None else LEMMA7_DEFAULT_Q
    out: list[ClaimVerdict] = []
    for q in qs:
        if q > LEMMA7_MAX_Q or prime_power(q)[0] == 2:
            raise PreconditionError(f"lemma7 suite needs odd prime powers <= {LEMMA7_MAX_Q}, got {q}")
        S0 = s0_group(q)
        G = S0.perm_group("nonzero")
        w_perm = G.generators[2]
        K = G.subgroup((w_perm * w_perm,))
        Q = coset_action(G, K).group
        cid = f"lemma7.q{q}"
        expected_d = 3 if q % 4 == 1 else 2
        expected_type = "elementary-abelian" if q % 4 == 1 else "dihedral"
        out.append(_claim(f"{cid}.d", expected_d, lambda G=G: d_exact(G).value))
        out.append(_claim(f"{cid}.quotientorder", 8, lambda Q=Q: Q.order()))
        out.append(_claim(f"{cid}.quotienttype", expected_type, lambda Q=Q: _order8_type(Q)))
    return sorted(out, key=lambda v: v.claim_id)


# ---------------------------------------------------------------------------
# table2


def _witness_scan(G0: PermGroup, M0: PermGroup, order_wanted: int) -> bool:
    """Every element of M0 of the given order, adjoined to G0's
    generators, must act transitively on the nonzero vector codes; the
    scan is exhaustive and fails when no element has that order.  G0's
    orbits are found once, and each candidate's orbit of code 1 is grown
    by whole orbits of G0 (``PermGroup.orbit_with``)."""
    candidates = M0.elements_of_order(order_wanted)
    if not candidates:
        return False
    return all(len(G0.orbit_with(g, 1)) == M0.degree - 1 for g in candidates)


def verify_table2() -> list[ClaimVerdict]:
    """Five claims per monomial overgroup row."""
    out: list[ClaimVerdict] = []
    for i in (1, 2):
        exp = TABLE2_EXPECTED[i]
        M0m = table2_matrix_group(i)
        G0m = table1_matrix_group(i)
        M0 = M0m.perm_group("all")
        G0 = G0m.perm_group("all")
        M = affine_group(M0m)
        cid = f"table2.M{i}"
        out.append(_claim(f"{cid}.order0", exp["order0"], lambda M0=M0: M0.order()))
        out.append(_claim(f"{cid}.twotransitive", True, lambda M=M: rank(M) == 2))
        out.append(_claim(f"{cid}.normal0", True, lambda G0=G0, M0=M0: normal_in(G0, M0)))
        out.append(
            _claim(
                f"{cid}.index", exp["index"], lambda M0=M0, G0=G0: M0.order() // G0.order()
            )
        )
        out.append(
            _claim(
                f"{cid}.witnessscan",
                True,
                lambda G0=G0, M0=M0, r1=exp["r1"]: _witness_scan(G0, M0, r1),
            )
        )
    return sorted(out, key=lambda v: v.claim_id)


# ---------------------------------------------------------------------------
# corollary3


def verify_corollary3(i: int) -> list[ClaimVerdict]:
    """The intermediate-subgroup criterion for one overgroup case:
    enumerate all T_0 with G_0 <= T_0 <= M_0 up to conjugacy (via the
    quotient M_0/G_0) and check that the affine group over T_0 is
    2-transitive exactly when |T_0 : G_0| is a multiple of r - 1."""
    if i not in (1, 2):
        raise PreconditionError(f"corollary3 case must be 1 or 2, got {i}")
    exp = TABLE2_EXPECTED[i]
    r1 = exp["r1"]
    G0m = table1_matrix_group(i)
    M0m = table2_matrix_group(i)
    G0 = G0m.perm_group("all")
    M0 = M0m.perm_group("all")
    ca = coset_action(M0, G0)
    Q = ca.group
    cid = f"corollary3.case{i}"
    out: list[ClaimVerdict] = []
    out.append(_claim(f"{cid}.quotientorder", exp["index"], lambda: Q.order()))
    out.append(
        _claim(f"{cid}.multiplier", r1, lambda: rank(affine_group(G0m)) - 1)
    )
    classes = subgroups_up_to_conjugacy(Q)
    for j, sc in enumerate(classes):
        Tbar = sc.representative
        # a quotient element sends coset 0 (= G_0) to the coset it
        # represents, so its lift is the representative of that coset
        lifts = tuple(ca.reps[g.images[0]] for g in Tbar.generators)
        aff = affine_of_linear_perms(G0m.field, G0m.dim, tuple(G0.generators) + lifts)
        # |V . T_0| = q^dim * |T_0|, and |T_0| = |G_0| * |T_0 : G_0|
        if aff.order() != aff.degree * G0.order() * sc.order:
            raise RuntimeError("internal error: lifted subgroup has the wrong order")
        index = sc.order
        out.append(
            _claim(
                f"{cid}.T{j:02d}",
                True,
                lambda aff=aff, index=index: (rank(aff) == 2) == (index % r1 == 0),
            )
        )
    return sorted(out, key=lambda v: v.claim_id)


# ---------------------------------------------------------------------------
# genlemmas


def _quaternion_group(two_power: int) -> PermGroup:
    """The generalized quaternion group of order 2^a >= 8 in its regular
    action: points i + half*j encode x^i y^j with x of order half."""
    if two_power < 8 or two_power & (two_power - 1):
        raise PreconditionError("quaternion group order must be a power of 2, >= 8")
    half = two_power // 2
    x_images = []
    y_images = []
    for j in (0, 1):
        for idx in range(half):
            if j == 0:
                x_images.append((idx + 1) % half)
                y_images.append(half + idx)
            else:
                x_images.append(half + (idx - 1) % half)
                y_images.append((idx + half // 2) % half)
    return PermGroup(two_power, (Perm(x_images), Perm(y_images)))


def _positive_corpus() -> list[tuple[str, PermGroup]]:
    return [
        ("q8", _quaternion_group(8)),
        ("q16", _quaternion_group(16)),
        ("sl2_3", sl2(3).perm_group("nonzero")),
        ("sl2_5", sl2(5).perm_group("nonzero")),
        ("c3rc4", z_group(3, 4, 2)),
        ("z_5_4_2", z_group(5, 4, 2)),
        ("z_7_3_2", z_group(7, 3, 2)),
        ("z_5_4_3", z_group(5, 4, 3)),
        ("z_7_6_3", z_group(7, 6, 3)),
        ("z_13_4_5", z_group(13, 4, 5)),
    ]


def _negative_corpus() -> list[tuple[str, PermGroup]]:
    return [
        ("sym4", symmetric_group(4)),
        ("c2xc2", PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])))),
        ("s0_5", s0_group(5).perm_group("nonzero")),
    ]


def verify_generation_lemmas() -> list[ClaimVerdict]:
    """Cyclic-abelian-subgroup groups are 2-generated (with negative
    controls), and the twisted unitriangular pair generates SL(2, p)."""
    out: list[ClaimVerdict] = []
    for name, G in _positive_corpus():
        cid = f"genlemmas.thm3.{name}"
        out.append(
            _claim(f"{cid}.predicate", True, lambda G=G: all_abelian_subgroups_cyclic(G))
        )
        out.append(_claim(f"{cid}.dle2", True, lambda G=G: d_exact(G).value <= 2))
    for name, G in _negative_corpus():
        out.append(
            _claim(
                f"genlemmas.control.{name}.predicate",
                False,
                lambda G=G: all_abelian_subgroups_cyclic(G),
            )
        )
    for p in TWISTED_PRIMES:
        cid = f"genlemmas.lemma6.p{p}"
        out.append(_claim(f"{cid}.order", sl2_order(p), lambda p=p: sl2(p).order()))
        out.append(_claim(f"{cid}.twisted", True, lambda p=p: sl2_twisted_check(p)))
    return sorted(out, key=lambda v: v.claim_id)


# ---------------------------------------------------------------------------
# suite registry


def run_suite(name: str, q_list: Sequence[int] | None = None) -> list[ClaimVerdict]:
    """Run one named suite (or 'all'); verdicts sorted by claim id."""
    if name == "table1":
        return verify_table1()
    if name == "table2":
        return verify_table2()
    if name == "lemma7":
        return verify_lemma7(q_list)
    if name == "corollary3":
        return sorted(
            verify_corollary3(1) + verify_corollary3(2), key=lambda v: v.claim_id
        )
    if name == "genlemmas":
        return verify_generation_lemmas()
    if name == "all":
        out: list[ClaimVerdict] = []
        for part in SUITE_PARTS:
            out.extend(run_suite(part, q_list))
        return sorted(out, key=lambda v: v.claim_id)
    raise PreconditionError(f"unknown suite {name!r}")


SUITE_PARTS = ("table1", "table2", "lemma7", "corollary3", "genlemmas")
SUITE_NAMES = SUITE_PARTS + ("all",)

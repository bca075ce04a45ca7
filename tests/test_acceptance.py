"""End-to-end acceptance battery.

Each test covers one numbered criterion and emits a single
``CRITERION nn PASS/FAIL`` line; the claim-suite criteria read off a
shared full reproduction run (performed twice, for the determinism
check), while the oracle criteria recompute everything independently
inside this file.
"""

import json
from itertools import combinations, product

import pytest

from field_reference import apply_vector, identity_matrix
from gen32.cli import main as cli_main
from gen32.constructions import (
    affine_group,
    agl1,
    s0_group,
    sl2,
    table1_group,
    table1_matrix_group,
    table2_group,
    table2_matrix_group,
    z_group,
)
from gen32.field import field_make
from gen32.gens import d_affine, d_exact
from gen32.matgroup import MatrixF, MatrixGroup, is_irreducible
from gen32.permgroup import Perm, PermGroup, symmetric_group
from gen32.transitivity import rank

TIMING_KEYS = ("runtime_ms", "total_runtime_ms", "timing_ms")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def _criterion(num, ok, description):
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reproduce_all(tmp_path_factory):
    """Two full reproduction runs via the CLI, parsed."""
    payloads = []
    base = tmp_path_factory.mktemp("acceptance")
    for run in (1, 2):
        out = base / f"all_{run}.json"
        code = cli_main(["reproduce", "--suite", "all", "--out", str(out)])
        assert code == 0, "reproduce --suite all must exit 0"
        payloads.append(json.loads(out.read_text()))
    return payloads


def _verdicts(payload):
    return {v["claim_id"]: v for v in payload["verdicts"]}


# ---------------------------------------------------------------------------


def test_criterion_01_table1_reproduction(reproduce_all):
    v = _verdicts(reproduce_all[0])
    expected_rows = {
        1: (25, 4, 3, 16),
        2: (81, 6, 4, 32),
        3: (81, 6, 3, 32),
        4: (289, 10, 3, 64),
    }
    ok = True
    for i, (n, rk, d, order0) in expected_rows.items():
        ok &= v[f"table1.G{i}.n"]["computed"] == n
        ok &= v[f"table1.G{i}.rk"]["computed"] == rk
        ok &= v[f"table1.G{i}.d"]["computed"] == d
        ok &= v[f"table1.G{i}.order0"]["computed"] == order0
        ok &= v[f"table1.G{i}.primitive"]["computed"] is True
        ok &= v[f"table1.G{i}.threehalves"]["computed"] is True
        ok &= v[f"table1.G{i}.twotransitive"]["computed"] is False
    table1_claims = [c for c in v if c.startswith("table1.")]
    ok &= len(table1_claims) == 28
    ok &= all(v[c]["pass"] for c in table1_claims)
    _criterion(1, ok, "all 28 claims for the four exceptional rows reproduce exactly")


def test_criterion_02_monomial_dichotomy(reproduce_all):
    v = _verdicts(reproduce_all[0])
    three = {5, 9, 13, 17, 25}
    two = {3, 7, 11, 19}
    ok = True
    for q in three | two:
        ok &= v[f"lemma7.q{q}.d"]["computed"] == (3 if q in three else 2)
        ok &= v[f"lemma7.q{q}.quotientorder"]["computed"] == 8
        expected_type = "elementary-abelian" if q in three else "dihedral"
        ok &= v[f"lemma7.q{q}.quotienttype"]["computed"] == expected_type
    lemma7_claims = [c for c in v if c.startswith("lemma7.")]
    ok &= len(lemma7_claims) == 27
    ok &= all(v[c]["pass"] for c in lemma7_claims)
    _criterion(2, ok, "d(S_0(q)) dichotomy and order-8 quotient types for nine q values")


def test_criterion_03_shortcut_agrees_with_direct_search():
    direct = d_exact(table1_group(1))
    shortcut = d_affine(table1_group(1))
    ok = direct.value == 3 == shortcut.value and direct.method == "exhaustive"
    _criterion(3, ok, "exhaustive d on the degree-25 order-400 group equals the shortcut value 3")


def test_criterion_04_table2_reproduction(reproduce_all):
    v = _verdicts(reproduce_all[0])
    ok = v["table2.M1.order0"]["computed"] == 96
    ok &= v["table2.M2.order0"]["computed"] == 3840
    ok &= v["table2.M1.index"]["computed"] == 6
    ok &= v["table2.M2.index"]["computed"] == 120
    for i in (1, 2):
        ok &= v[f"table2.M{i}.twotransitive"]["computed"] is True
        ok &= v[f"table2.M{i}.normal0"]["computed"] is True
        ok &= v[f"table2.M{i}.witnessscan"]["computed"] is True
    table2_claims = [c for c in v if c.startswith("table2.")]
    ok &= len(table2_claims) == 10 and all(v[c]["pass"] for c in table2_claims)
    _criterion(4, ok, "overgroup orders, 2-transitivity, normality, and exhaustive witness scans")


def test_criterion_05_intermediate_subgroup_equivalence(reproduce_all):
    v = _verdicts(reproduce_all[0])
    ok = v["corollary3.case1.quotientorder"]["computed"] == 6
    ok &= v["corollary3.case2.quotientorder"]["computed"] == 120
    for i in (1, 2):
        t_claims = [c for c in v if c.startswith(f"corollary3.case{i}.T")]
        ok &= len(t_claims) >= 2
        ok &= all(v[c]["pass"] and v[c]["computed"] is True for c in t_claims)
    all_claims = [c for c in v if c.startswith("corollary3.")]
    ok &= all(v[c]["pass"] for c in all_claims)
    _criterion(5, ok, "2-transitivity of V.T0 is equivalent to (r-1) | index, both directions, zero counterexamples")


def test_criterion_06_two_transitive_corpus_is_2_generated():
    ok = True
    for i in (1, 2):
        ok &= rank(table2_group(i)) == 2
        ok &= d_affine(table2_group(i)).value == 2
    for q in (4, 5, 7, 8, 9, 11):
        G = agl1(q)
        ok &= rank(G) == 2
        ok &= d_exact(G).value == 2
    for n in (3, 4, 5, 6):
        G = symmetric_group(n)
        ok &= rank(G) == 2
        ok &= d_exact(G).value == 2
    _criterion(6, ok, "every 2-transitive group in the constructed corpus has d = 2")


def test_criterion_07_cyclic_abelian_corpus(reproduce_all):
    v = _verdicts(reproduce_all[0])
    positives = [c for c in v if c.startswith("genlemmas.thm3.")]
    controls = [c for c in v if c.startswith("genlemmas.control.")]
    ok = len(positives) == 20 and len(controls) == 3
    ok &= all(v[c]["pass"] for c in positives + controls)
    ok &= all(v[c]["computed"] is False for c in controls)
    _criterion(7, ok, "cyclic-abelian-subgroup corpus is 2-generated; negative controls fail the predicate")


def test_criterion_08_unitriangular_pair_orders(reproduce_all):
    v = _verdicts(reproduce_all[0])
    ok = True
    for p in (5, 7, 11, 13, 29):
        ok &= v[f"genlemmas.lemma6.p{p}.order"]["computed"] == p * (p * p - 1)
        ok &= v[f"genlemmas.lemma6.p{p}.order"]["pass"]
        ok &= v[f"genlemmas.lemma6.p{p}.twisted"]["pass"]
    _criterion(8, ok, "|SL(2,p)| = p(p^2-1) from both generator pairs for the five bundled primes")


# ---------------------------------------------------------------------------
# criterion 9: three independent-oracle sweeps


def _d_naive(G):
    order = G.order()
    if order == 1:
        return 0
    elems = [g for g in G.elements() if not g.is_identity()]
    for k in range(1, len(elems) + 1):
        for subset in combinations(elems, k):
            seen = set(subset) | {Perm.identity(G.degree)}
            frontier = list(subset)
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
    raise AssertionError("unreachable")


def _closure_count(G):
    seen = {Perm.identity(G.degree)}
    frontier = [Perm.identity(G.degree)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in G.generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def _reducible_by_line_scan(G):
    q = G.field.q
    f = G.field
    lines = [(f.one(), f.element(c)) for c in range(q)] + [(f.zero(), f.one())]
    for v in lines:
        invariant = True
        for M in G.generators:
            w = apply_vector(v, M)
            if v[0].code != 0:
                scalar_ok = w == tuple(x * (w[0] * v[0].inv()) for x in v)
            else:
                scalar_ok = w[0].code == 0
            if not scalar_ok:
                invariant = False
                break
        if invariant:
            return True
    return False


def test_criterion_09_oracle_equivalence_suites():
    # (a) d_exact vs raw subset search, groups of order <= 24
    small_corpus = [
        PermGroup(3, ()),
        PermGroup(4, (Perm([1, 2, 3, 0]),)),
        PermGroup(4, (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)]))),
        symmetric_group(3),
        PermGroup(4, (Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1]))),  # dihedral of order 8
        PermGroup(8, (Perm([1, 2, 3, 0, 7, 4, 5, 6]), Perm([4, 5, 6, 7, 2, 3, 0, 1]))),
        PermGroup(
            6,
            (
                Perm.from_cycles(6, [(0, 1)]),
                Perm.from_cycles(6, [(2, 3)]),
                Perm.from_cycles(6, [(4, 5)]),
            ),
        ),
        PermGroup(4, (Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)]))),
        z_group(3, 4, 2),
        z_group(7, 3, 2),
        MatrixGroup(
            field_make(3),
            2,
            [
                MatrixF.from_codes(field_make(3), [[1, 1], [0, 1]]),
                MatrixF.from_codes(field_make(3), [[0, 1], [2, 0]]),
            ],
        ).perm_group("nonzero"),
        symmetric_group(4),
    ]
    ok_a = all(G.order() <= 24 for G in small_corpus)
    ok_a &= all(d_exact(G).value == _d_naive(G) for G in small_corpus)

    # (b) chain order vs element closure, groups of order <= 10^4
    medium_corpus = [
        symmetric_group(5),
        symmetric_group(6),
        symmetric_group(7),
        table1_matrix_group(1).perm_group("nonzero"),
        table1_matrix_group(2).perm_group("nonzero"),
        table1_matrix_group(4).perm_group("nonzero"),
        table1_group(1),
        table1_group(2),
        table1_group(3),
        table2_matrix_group(1).perm_group("nonzero"),
        table2_matrix_group(2).perm_group("nonzero"),
        table2_group(1),
        sl2(5).perm_group("nonzero"),
        sl2(7).perm_group("nonzero"),
        sl2(13).perm_group("nonzero"),
        s0_group(25).perm_group("nonzero"),
        s0_group(49).perm_group("nonzero"),
        agl1(9),
        agl1(11),
        z_group(13, 4, 5),
    ]
    ok_b = all(G.order() <= 10**4 for G in medium_corpus)
    ok_b &= all(G.order() == _closure_count(G) for G in medium_corpus)

    # (c) is_irreducible vs invariant-line scan, dim 2 over GF(3) and GF(5)
    ok_c = True
    for q in (3, 5):
        f = field_make(q)

        def m(rows):
            return MatrixF.from_codes(f, rows)

        corpus = [
            MatrixGroup(f, 2, [m([[1, 1], [0, 1]]), m([[0, 1], [q - 1, 0]])]),
            MatrixGroup(f, 2, [m([[0, 1], [1, 0]])]),
            MatrixGroup(f, 2, [m([[1, 1], [0, 1]])]),
            MatrixGroup(f, 2, [m([[2, 0], [0, 1]])]),
            MatrixGroup(f, 2, [m([[2, 0], [0, 2]])]),
            MatrixGroup(f, 2, [identity_matrix(f, 2)]),
            MatrixGroup(f, 2, [m([[0, 1], [1, 0]]), m([[2, 0], [0, 1]])]),
            s0_group(q),
        ]
        for G in corpus:
            ok_c &= is_irreducible(affine_group(G)) == (not _reducible_by_line_scan(G))

    ok = ok_a and ok_b and ok_c
    _criterion(
        9,
        ok,
        f"oracle sweeps: naive-d={ok_a}, closure-count={ok_b}, line-scan={ok_c}, zero disagreements",
    )


def test_criterion_10_determinism(reproduce_all):
    first = json.dumps(_strip_timing(reproduce_all[0]), indent=2, sort_keys=True)
    second = json.dumps(_strip_timing(reproduce_all[1]), indent=2, sort_keys=True)
    ok = first == second
    ok &= reproduce_all[0]["all_pass"] is True and reproduce_all[1]["all_pass"] is True
    ok &= len(reproduce_all[0]["verdicts"]) == len(reproduce_all[1]["verdicts"]) == 125
    _criterion(10, ok, "two consecutive full runs agree byte-for-byte modulo timing fields")

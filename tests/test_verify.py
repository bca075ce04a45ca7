import random

import pytest

from gen32.constructions import table2_matrix_group
from gen32.errors import PreconditionError
from gen32.permgroup import Perm, PermGroup
from gen32.verify import (
    TABLE2_EXPECTED,
    ClaimVerdict,
    _order8_type,
    run_suite,
    verify_corollary3,
    verify_lemma7,
    verify_table2,
)


def regular_cyclic(n):
    return PermGroup(n, (Perm([(i + 1) % n for i in range(n)]),))


def test_lemma7_small_qs_all_pass():
    verdicts = verify_lemma7([5, 7])
    assert len(verdicts) == 6
    assert all(isinstance(v, ClaimVerdict) for v in verdicts)
    assert all(v.passed for v in verdicts)
    by_id = {v.claim_id: v for v in verdicts}
    assert by_id["lemma7.q5.d"].computed == 3
    assert by_id["lemma7.q7.d"].computed == 2
    assert by_id["lemma7.q5.quotienttype"].computed == "elementary-abelian"
    assert by_id["lemma7.q7.quotienttype"].computed == "dihedral"
    assert by_id["lemma7.q5.quotientorder"].computed == 8


def test_lemma7_verdicts_sorted_and_consistent():
    verdicts = verify_lemma7([3, 13])
    assert [v.claim_id for v in verdicts] == sorted(v.claim_id for v in verdicts)
    for v in verdicts:
        assert v.passed == (v.expected == v.computed)
        assert v.runtime_ms >= 0


@pytest.mark.parametrize("q", [2, 4, 8, 16, 6, 81, 121])
def test_lemma7_rejects_bad_q(q):
    with pytest.raises(PreconditionError):
        verify_lemma7([q])


def test_order8_classifier():
    c8 = regular_cyclic(8)
    assert _order8_type(c8) == "cyclic"

    klein_cubed = PermGroup(
        6,
        (
            Perm.from_cycles(6, [(0, 1)]),
            Perm.from_cycles(6, [(2, 3)]),
            Perm.from_cycles(6, [(4, 5)]),
        ),
    )
    assert _order8_type(klein_cubed) == "elementary-abelian"

    c4xc2 = PermGroup(6, (Perm.from_cycles(6, [(0, 1, 2, 3)]), Perm.from_cycles(6, [(4, 5)])))
    assert _order8_type(c4xc2) == "c4xc2"

    d8 = PermGroup(4, (Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1])))
    assert _order8_type(d8) == "dihedral"

    q8 = PermGroup(8, (Perm([1, 2, 3, 0, 7, 4, 5, 6]), Perm([4, 5, 6, 7, 2, 3, 0, 1])))
    assert _order8_type(q8) == "quaternion"

    assert _order8_type(regular_cyclic(6)) == "order-6"


def test_table2_claim_shape():
    verdicts = verify_table2()
    ids = [v.claim_id for v in verdicts]
    assert len(ids) == 10
    assert ids == sorted(ids)
    suffixes = {i.split(".", 2)[2] for i in ids}
    assert suffixes == {"order0", "twotransitive", "normal0", "index", "witnessscan"}
    assert all(v.passed for v in verdicts)


def test_corollary3_rejects_bad_case():
    with pytest.raises(PreconditionError):
        verify_corollary3(3)
    with pytest.raises(PreconditionError):
        verify_corollary3(0)


def test_corollary3_case1_structure():
    verdicts = verify_corollary3(1)
    by_id = {v.claim_id: v for v in verdicts}
    assert by_id["corollary3.case1.quotientorder"].computed == 6
    assert by_id["corollary3.case1.multiplier"].computed == 3
    t_claims = [v for v in verdicts if ".T" in v.claim_id]
    assert len(t_claims) == 4  # subgroup classes of the order-6 quotient
    assert all(v.passed for v in verdicts)


@pytest.mark.parametrize(
    "suite",
    [verify_table2, lambda: verify_corollary3(1), lambda: verify_corollary3(2)],
    ids=["table2", "corollary3-case1", "corollary3-case2"],
)
def test_table2_and_corollary3_build_no_chain_on_the_nonzero_vectors(monkeypatch, suite):
    # G_0 and M_0 act on all q^dim vector codes, as the affine groups'
    # linear parts do, so no chain of degree q^dim - 1 (24 or 80) is built
    from gen32 import constructions, permgroup

    degrees = []
    build_chain = permgroup.build_chain
    monkeypatch.setattr(
        permgroup, "build_chain", lambda degree, *rest: degrees.append(degree) or build_chain(degree, *rest)
    )
    # fresh matrix groups, whose permutation images have no chain yet
    monkeypatch.setattr(constructions, "_TABLE_CACHE", {})
    assert all(v.passed for v in suite())
    assert degrees and not {24, 80} & set(degrees)


def test_run_suite_dispatch():
    assert [v.claim_id for v in run_suite("table2")] == [
        v.claim_id for v in verify_table2()
    ]
    with pytest.raises(PreconditionError):
        run_suite("nonexistent")


def test_run_suite_lemma7_q_list_passthrough():
    verdicts = run_suite("lemma7", [7])
    assert len(verdicts) == 3
    assert all(v.claim_id.startswith("lemma7.q7.") for v in verdicts)


def elements_of_order_by_filter(G, order):
    """The element-wise filter the witness scan used to run."""
    return sorted(g.images for g in G.elements() if g.order() == order)


def test_witness_candidates_match_the_elementwise_filter_on_table2():
    for i in (1, 2):
        M0 = table2_matrix_group(i).perm_group("nonzero")
        r1 = TABLE2_EXPECTED[i]["r1"]
        got = sorted(g.images for g in M0.elements_of_order(r1))
        assert got and got == elements_of_order_by_filter(M0, r1)


@pytest.mark.parametrize("seed", range(0, 60, 20))
def test_elements_of_order_match_the_elementwise_filter_on_random_groups(seed):
    for s in range(seed, seed + 20):
        rng = random.Random(s)
        degree = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        G = PermGroup(degree, gens)
        orders = [(g.order(), g.images) for g in G.elements()]
        for order in sorted({o for o, _ in orders}) + [degree + 5]:
            got = sorted(g.images for g in G.elements_of_order(order))
            assert got == sorted(images for o, images in orders if o == order)

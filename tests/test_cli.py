import json
import os
import random
import subprocess
import sys
import time

import pytest

from gen32.cli import main
from gen32.permgroup import group_from_text

TIMING_KEYS = ("runtime_ms", "total_runtime_ms", "timing_ms")


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct


def test_construct_s0_nonzero(capsys):
    code, out, _ = run_cli(capsys, "construct", "s0", "--q", "5", "--action", "nonzero")
    assert code == 0
    G = group_from_text(out)
    assert G.degree == 24
    assert len(G.generators) == 3
    assert G.order() == 16


def test_construct_s0_all_action(capsys):
    code, out, _ = run_cli(capsys, "construct", "s0", "--q", "5", "--action", "all")
    assert code == 0
    assert group_from_text(out).degree == 25


def test_construct_zgroup(capsys):
    code, out, _ = run_cli(capsys, "construct", "zgroup", "--m", "7", "--n", "3", "--r", "2")
    assert code == 0
    G = group_from_text(out)
    assert G.degree == 21
    assert G.order() == 21


def test_construct_table1(capsys):
    code, out, _ = run_cli(capsys, "construct", "table1", "--i", "2")
    assert code == 0
    assert group_from_text(out).degree == 81


def test_construct_to_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "construct", "agl1", "--q", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    assert group_from_text(target.read_text()).order() == 42


def test_construct_missing_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "construct", "s0")
    assert code == 2
    assert "--q" in err


def test_construct_precondition_failure_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "construct", "s0", "--q", "8")
    assert code == 3
    assert err, "expected an error message"
    code, _, _ = run_cli(capsys, "construct", "table1", "--i", "7")
    assert code == 3
    code, _, _ = run_cli(capsys, "construct", "zgroup", "--m", "4", "--n", "2", "--r", "1")
    assert code == 3


def test_sl2_takes_every_prime(capsys):
    code, out, _ = run_cli(capsys, "analyze", "sl2", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert (report["order"], report["d"]["value"]) == (24, 2)
    code, _, err = run_cli(capsys, "analyze", "sl2", "--p", "4")
    assert code == 3
    assert "must be prime" in err


def test_zgroup_over_the_point_cap_is_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "construct", "zgroup", "--m", "1000003", "--n", "2", "--r", "1000002"
    )
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert "point count 2000006 exceeds cap" in err


def test_data_file_header_over_the_field_cap_is_exit_3_at_once(tmp_path, capsys, monkeypatch):
    import gen32.constructions as cons

    (tmp_path / "table1_G1.mat").write_text("3 100000000 2\n1 0\n0 1\n")
    monkeypatch.setenv("GEN32_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cons, "_TABLE_CACHE", {})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "table1", "--i", "1")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert "exceeds cap" in err


@pytest.mark.parametrize("q", [3**11, 3**13, 3**19])
@pytest.mark.parametrize("argv", [("analyze", "s0"), ("construct", "s0"), ("analyze", "affine")])
def test_s0_over_the_point_cap_is_exit_3_before_any_field_work(capsys, monkeypatch, argv, q):
    def refuse(*args):
        raise AssertionError("field set up before the point cap was checked")

    monkeypatch.setattr("gen32.constructions.field_make", refuse)
    code, _, err = run_cli(capsys, *argv, "--q", str(q))
    assert code == 3
    assert "exceeds cap" in err


@pytest.mark.parametrize(
    "argv", [("analyze", "agl1", "--q", str(3**19)), ("construct", "agl1", "--q", str(2**31))]
)
def test_agl1_over_the_field_cap_is_exit_3_before_the_modulus_scan(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("modulus scan ran for a field over the cap")

    monkeypatch.setattr("gen32.field._poly_is_irreducible", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert "exceeds cap" in err


HUGE_Q = str(10**18 + 3)


def refuse_to_factor_beyond_the_cap(monkeypatch):
    from gen32 import field

    prime_factors = field.prime_factors

    def guarded(n):
        if n > 10**6:
            raise AssertionError(f"trial division of {n} before any cap was checked")
        return prime_factors(n)

    monkeypatch.setattr(field, "prime_factors", guarded)


@pytest.mark.parametrize("argv", [("analyze", "agl1"), ("analyze", "s0"), ("construct", "agl1")])
def test_huge_q_is_exit_3_before_any_factoring(capsys, monkeypatch, argv):
    refuse_to_factor_beyond_the_cap(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--q", HUGE_Q)
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert "exceeds cap" in err


def test_reproduce_lemma7_huge_q_keeps_the_suite_message(capsys, monkeypatch):
    refuse_to_factor_beyond_the_cap(monkeypatch)
    code, out, err = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", HUGE_Q)
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert f"lemma7 suite needs odd prime powers <= 49, got {HUGE_Q}" in err


def test_analyze_over_the_enumeration_cap_reports_an_indeterminate_d(capsys):
    code, out, _ = run_cli(capsys, "analyze", "agl1", "--q", "343")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 343 * 342
    assert "cap 100000" in payload["d"]["indeterminate"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "mystery", "--q", "5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_cyclic_4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "zgroup", "--m", "1", "--n", "4", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "gen32/1"
    assert payload["order"] == 4
    assert payload["transitivity"]["regular"] is True
    assert payload["transitivity"]["three_halves"] is False
    assert payload["d"]["value"] == 1
    assert payload["d"]["witness_verified"] is True


def test_analyze_builds_the_affine_group_once(capsys, monkeypatch):
    from gen32 import cli, constructions

    calls = []
    real = constructions.affine_group

    def counting(G0):
        calls.append(G0)
        return real(G0)

    # rebound wherever it was imported by name
    for module in (cli, constructions):
        monkeypatch.setattr(module, "affine_group", counting)
    code, out, _ = run_cli(capsys, "analyze", "table1", "--i", "1")
    assert code == 0 and json.loads(out)["d"]["value"] == 3
    assert len(calls) == 1


def test_reproduce_builds_each_table1_affine_group_once(capsys, monkeypatch):
    from gen32 import cli, constructions, verify

    calls = []
    real = constructions.affine_group

    def counting(G0):
        calls.append(G0)
        return real(G0)

    # rebound wherever it was imported by name
    for module in (cli, constructions, verify):
        monkeypatch.setattr(module, "affine_group", counting)
    code, out, _ = run_cli(capsys, "reproduce", "--suite", "table1")
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert len(calls) == 4


def test_analyze_table1_row1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "table1", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 25
    assert payload["order"] == 400
    assert payload["transitivity"]["rank"] == 4
    assert payload["transitivity"]["primitive"] is True
    assert payload["d"]["value"] == 3
    assert payload["d"]["method"] == "shortcut-LM"
    assert len(payload["d"]["witness"]) == 3


def test_analyze_agl1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "agl1", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["transitivity"]["rank"] == 2
    assert payload["transitivity"]["frobenius"] is True
    assert payload["d"]["value"] == 2


def test_analyze_from_file(tmp_path, capsys):
    source = tmp_path / "group.txt"
    code, out, _ = run_cli(capsys, "construct", "s0", "--q", "5", "--out", str(source))
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--in", str(source))
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "file:group.txt"
    assert payload["degree"] == 24
    assert payload["order"] == 16
    assert payload["d"]["value"] == 3  # q = 5 is 1 mod 4: the d = 3 branch


@pytest.mark.parametrize(
    "argv",
    [
        ("s0", "--q", "5"),
        ("s0", "--q", "9", "--action", "all"),
        ("sl2", "--p", "7", "--action", "all"),
        ("agl1", "--q", "8"),
        ("zgroup", "--m", "7", "--n", "3", "--r", "2"),
    ],
    ids=" ".join,
)
def test_analyze_from_file_matches_the_built_group(tmp_path, capsys, argv):
    # a group read from text has no known base, so its chain is verified
    # at every point; the report must not depend on that
    source = tmp_path / "group.txt"
    code, _, _ = run_cli(capsys, "construct", *argv, "--out", str(source))
    assert code == 0
    reports = []
    for args in (("--in", str(source)), argv):
        code, out, _ = run_cli(capsys, "analyze", *args)
        assert code == 0
        payload = strip_timing(json.loads(out))
        del payload["name"]
        reports.append(payload)
    assert reports[0] == reports[1]


def test_analyze_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--in", "/nonexistent/group.txt")
    assert code == 2
    assert err


def test_analyze_malformed_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("degree 3\n0 0 1\n")
    code, _, err = run_cli(capsys, "analyze", "--in", str(bad))
    assert code == 2


def test_analyze_degree_over_the_point_cap_is_exit_2(tmp_path, capsys):
    # a header alone used to be accepted and end in a MemoryError
    big = tmp_path / "big.txt"
    big.write_text("degree 20000000\n")
    code, out, err = run_cli(capsys, "analyze", "--in", str(big))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds cap 1000000" in err


@pytest.mark.parametrize(
    "extra",
    [("s0", "--q", "5"), ("agl1",), ("--q", "5"), ("--q", "0"), ("--action", "all"), ("--m", "7")],
)
def test_analyze_in_with_a_kind_or_kind_flag_is_usage_error(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.setattr("gen32.cli.group_from_text", lambda *a: pytest.fail("file was read"))
    monkeypatch.setattr("gen32.cli._build", lambda *a: pytest.fail("group was built"))
    source = tmp_path / "g.txt"
    source.write_text("degree 3\n1 2 0\n")
    code, out, err = run_cli(capsys, "analyze", *extra, "--in", str(source))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --in") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "agl1", "--q", "5", "--action", "all"),
        ("analyze", "sl2", "--p", "5", "--q", "9"),
        ("analyze", "table1", "--i", "1", "--action", "all"),
        ("construct", "zgroup", "--m", "7", "--n", "3", "--r", "2", "--p", "5"),
        ("construct", "affine", "--q", "9", "--i", "1"),
    ],
    ids=["agl1-action", "sl2-q", "table1-action", "zgroup-p", "affine-i"],
)
def test_a_kind_flag_the_kind_does_not_read_is_usage_error(capsys, monkeypatch, argv):
    for ctor in ("agl1", "sl2", "table1_matrix_group", "affine_group", "z_group", "s0_group"):
        monkeypatch.setattr(f"gen32.cli.{ctor}", lambda *a: pytest.fail("group was built"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: construction {argv[1]!r} reads only") and err.count("\n") == 1


def test_construct_takes_no_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "s0", "--q", "5", "--budget", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --budget 7" in err


def test_reproduce_takes_no_jobs(tmp_path, capsys):
    target = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--suite", "all", "--jobs", "2", "--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err
    assert not target.exists()


def test_analyze_no_source_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2


def test_analyze_budget_exhaustion_reported_in_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "s0", "--q", "9", "--budget", "2")
    assert code == 0  # indeterminate d is an analysis outcome, not an error
    payload = json.loads(out)
    assert "indeterminate" in payload["d"]
    assert "value" not in payload["d"]
    assert payload["order"] == 32


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_analyze_nonpositive_budget_is_usage_error(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setattr("gen32.cli._build", lambda *a: pytest.fail("group was built"))
    monkeypatch.setattr("gen32.cli.analyze", lambda *a: pytest.fail("group was analyzed"))
    target = tmp_path / "x.json"
    code, out, err = run_cli(
        capsys, "analyze", "s0", "--q", "5", "--budget", budget, "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --budget") and err.count("\n") == 1
    assert not target.exists()


def test_analyze_deterministic_modulo_timing(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", "s0", "--q", "13")
        assert code == 0
        outputs.append(json.dumps(strip_timing(json.loads(out)), sort_keys=True))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_lemma7_single_q(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "lemma7"
    assert payload["all_pass"] is True
    assert len(payload["verdicts"]) == 3
    for v in payload["verdicts"]:
        assert set(v) == {"claim_id", "expected", "computed", "pass", "runtime_ms"}
    # human-readable table goes to stderr when stdout carries the JSON
    assert "PASS" in err
    assert "3/3 claims passed" in err


def test_reproduce_table_to_stdout_with_out_file(tmp_path, capsys):
    target = tmp_path / "verdicts.json"
    code, out, _ = run_cli(
        capsys, "reproduce", "--suite", "lemma7", "--q", "7", "--out", str(target)
    )
    assert code == 0
    assert "PASS" in out
    payload = json.loads(target.read_text())
    assert payload["all_pass"] is True


def test_reproduce_verdicts_sorted(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", "9,3")
    assert code == 0
    ids = [v["claim_id"] for v in json.loads(out)["verdicts"]]
    assert ids == sorted(ids)


def test_reproduce_repeated_q_flags_accumulate(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", "13", "--q", "17")
    assert code == 0
    ids = [v["claim_id"] for v in json.loads(out)["verdicts"]]
    assert len(ids) == 6
    assert {i.split(".")[1] for i in ids} == {"q13", "q17"}


@pytest.mark.parametrize("qs", [("3,3",), ("3", "--q", "3"), ("5,3", "--q", "5")])
def test_reproduce_repeated_q_value_is_usage_error(capsys, qs):
    code, out, err = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", *qs)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_reproduce_bad_q_value_exit_2(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", "abc")
    assert code == 2


def test_reproduce_precondition_exit_3(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--suite", "lemma7", "--q", "4")
    assert code == 3


@pytest.mark.parametrize("suite", ["table1", "table2", "corollary3", "genlemmas"])
def test_reproduce_q_with_a_suite_that_reads_none_is_usage_error(capsys, monkeypatch, suite):
    monkeypatch.setattr("gen32.cli.run_suite", lambda *a: pytest.fail("suite ran"))
    code, out, err = run_cli(capsys, "reproduce", "--suite", suite, "--q", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --q") and err.count("\n") == 1


def test_reports_do_not_depend_on_the_hash_seed():
    # the census behind corollary3 is built on frozensets of keys, and
    # each layer of a keyed enumeration is a set of keys, sorted
    outputs = {}
    argvs = (
        ("reproduce", "--suite", "corollary3"),
        ("analyze", "agl1", "--q", "8"),
        ("analyze", "sl2", "--p", "7", "--action", "all"),
        ("analyze", "table1", "--i", "4"),
    )
    for seed in ("0", "1"):
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "gen32.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.setdefault(argv, []).append(strip_timing(json.loads(proc.stdout)))
    for argv, (first, second) in outputs.items():
        assert first == second, argv


def test_reproduce_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--suite", "everything"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# --out


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "s0", "--q", "5"),
        ("analyze", "zgroup", "--m", "1", "--n", "4", "--r", "1"),
        ("reproduce", "--suite", "lemma7", "--q", "3"),
    ],
    ids=["construct", "analyze", "reproduce"],
)
def test_out_to_unwritable_path_is_exit_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.out"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "table1", "--i", "4"),
        ("analyze", "table1", "--i", "4"),
        ("reproduce", "--suite", "table1"),
    ],
    ids=["construct", "analyze", "reproduce"],
)
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("gen32.cli.run_suite", lambda *a: pytest.fail("suite ran"))
    monkeypatch.setattr("gen32.cli._build", lambda *a: pytest.fail("group was built"))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_out_keeps_an_existing_file_until_the_report_is_written(tmp_path, capsys):
    target = tmp_path / "x.json"
    target.write_text("old\n")
    code, _, _ = run_cli(capsys, "analyze", "table1", "--i", "9", "--out", str(target))
    assert code == 3
    assert target.read_text() == "old\n"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("reproduce", "--suite", "table1", "--q", "3"), 2),
        (("analyze", "s0"), 2),
        (("analyze", "--in", "{bad}"), 2),
        (("analyze", "table1", "--i", "7"), 3),
    ],
    ids=["bad-q", "missing-flag", "malformed-input", "precondition"],
)
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_run_leaves_the_out_path_as_it_was(tmp_path, capsys, argv, exit_code, existing):
    bad = tmp_path / "bad.txt"
    bad.write_text("degree 3\n0 0 1\n")
    target = tmp_path / "x.json"
    if existing:
        target.write_text("old\n")
    code, out, _ = run_cli(capsys, *(a.format(bad=bad) for a in argv), "--out", str(target))
    assert code == exit_code
    assert out == ""
    if existing:
        assert target.read_text() == "old\n"
    else:
        assert not target.exists()


def mangle(text, rng):
    """One random corruption of a group file."""
    lines = text.splitlines()
    kind = rng.choice(("drop", "duplicate", "non-integer", "truncate", "header"))
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    if kind == "header":
        lines[0] = rng.choice(("", "degree", "degre 5", "degree x", "degree 0", "degree -3", "5"))
        return "\n".join(lines) + "\n"
    i = rng.randrange(len(lines)) if kind == "non-integer" else rng.randrange(1, len(lines))
    toks = lines[i].split()
    if kind == "drop":
        del toks[rng.randrange(len(toks))]
    elif kind == "duplicate":
        j, k = rng.sample(range(len(toks)), 2)
        toks[k] = toks[j]
    else:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(("x", "1.5", "-", "0x3", "2e1")))
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind_flags",
    [("zgroup", "--m", "7", "--n", "3", "--r", "2"), ("agl1", "--q", "5")],
    ids=["zgroup", "agl1"],
)
def test_mangled_input_is_exit_0_or_2(tmp_path, capsys, kind_flags):
    _, text, _ = run_cli(capsys, "construct", *kind_flags)
    rng = random.Random(20240607)
    path = tmp_path / "g.txt"
    for _ in range(60):
        path.write_text(mangle(text, rng))
        code, out, err = run_cli(capsys, "analyze", "--in", str(path), "--budget", "1000")
        assert code in (0, 2), path.read_text()
        if code == 0:
            assert json.loads(out)["schema"] == "gen32/1"
        else:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gen32.cli", "reproduce", "--suite", "lemma7", "--q", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


def test_the_cyclic_collector_is_paused_only_while_a_command_runs(monkeypatch, capsys):
    import gc

    import gen32.cli as cli

    seen = []
    real = cli.cmd_analyze

    def recording(args):
        seen.append(gc.isenabled())
        return real(args)

    monkeypatch.setattr(cli, "cmd_analyze", recording)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["analyze", "agl1", "--q", "5"]) == 0
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
    assert seen == [False, False]
    assert main(["analyze", "agl1", "--q", "6"]) == 3 and gc.isenabled()
    capsys.readouterr()


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # loading them cost a CLI process about 20 ms before any work
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gen32.cli; print(sorted(m for m in sys.modules"
         " if m in ('dataclasses', 'inspect')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_the_process_pool_unloaded():
    # no command runs in worker processes; loading the pool's modules
    # would cost every run about 20 ms
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gen32.cli; print(sorted(m for m in sys.modules"
         " if m in ('concurrent.futures.process', 'multiprocessing')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

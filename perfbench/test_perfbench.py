"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q

They start real gen32 processes (about half a minute in all) and are kept
out of the package's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

CHEAP = ("analyze", "table2", "--i", "2")
SEARCH = ("analyze", "sl2", "--p", "17")


def _plain(argv):
    run.OUT_DIR.mkdir(exist_ok=True)
    return run.run_process([sys.executable, "-m", "gen32.cli", *argv], 300, run.child_env())


def _traced(argv, hashseed="0"):
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / f"test-{os.getpid()}-{hashseed}.json"
    env = dict(run.child_env(), PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, str(run.HERE / "tracer.py"), str(path), "t", "--", *argv]
    proc = run.run_process(cmd, 300, env)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return proc, doc


def _check(argv, proc):
    ref = run.load_digests()[" ".join(argv)]
    return run.check_output(argv, proc.rc, proc.stdout, proc.stderr, ref)


def _counts(doc):
    raw = tracer.item_figures(doc)
    metrics, _ = tracer.finish(raw, set(doc["absent"]))
    return {k: v for k, v in metrics.items() if tracer.LAYER_METRICS[k][0] != "s"}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_every_command_has_a_digest():
    digests = run.load_digests()
    assert {" ".join(c) for c in run.all_commands()} == set(digests)
    for seed in range(20):
        for workload in run.WORKLOADS:
            for argv in run.commands(workload, seed):
                assert " ".join(argv) in digests


def test_tracing_leaves_outputs_unchanged():
    for argv in (CHEAP, SEARCH):
        plain = _plain(argv)
        traced, doc = _traced(argv)
        assert _check(argv, plain) == (1, 0)
        assert _check(argv, traced) == (1, 0)
        assert run.digest(json.loads(plain.stdout)) == run.digest(json.loads(traced.stdout))
        assert doc["absent"] == []


def test_self_times_are_nonnegative_and_within_main():
    _, doc = _traced(CHEAP)
    own = tracer.self_times(doc["spans"])
    assert all(t >= -1e-9 for t in own)
    main = [s[3] - s[2] for s in doc["spans"] if s[1] == "cli.main"]
    assert len(main) == 1
    assert sum(own) <= main[0] + 1e-9
    raw = tracer.item_figures(doc)
    reported = [raw["gens.d_exact.self_s"], raw["gens.d_affine.self_s"]]
    assert all(t >= -1e-9 for t in reported)
    assert sum(reported) <= raw["cli.main.s"] + 1e-9


def test_d_affine_self_time_excludes_only_nested_d_exact():
    spans = [
        ["t", "cli.main", 0.0, 10.0, -1],
        ["t", "gens.d_affine", 1.0, 9.0, 0],
        ["t", "matgroup.is_irreducible", 1.0, 2.0, 1],
        ["t", "gens.d_exact", 2.0, 5.0, 1],
        ["t", "permgroup.build_chain", 3.0, 4.0, 3],
        ["t", "gens.generates", 5.0, 8.0, 1],
    ]
    raw = tracer.item_figures({"spans": spans, "counts": {}, "absent": []})
    assert raw["gens.d_affine.s"] == 8.0
    assert raw["gens.d_affine.self_s"] == 5.0
    assert raw["gens.d_exact.self_s"] == 2.0


def test_work_counts_repeat_across_runs_and_hash_seeds():
    _, first = _traced(SEARCH, "0")
    _, again = _traced(SEARCH, "0")
    _, other = _traced(SEARCH, "12345")
    counts = _counts(first)
    assert counts["permgroup.perm_mul.calls"] > 0
    assert counts["permgroup.build_chain.levels"] > 0
    assert _counts(again) == counts
    assert _counts(other) == counts


def test_tampered_output_counts_as_failure():
    proc = _plain(CHEAP)
    assert _check(CHEAP, proc) == (1, 0)
    payload = json.loads(proc.stdout)
    payload["transitivity"]["rank"] += 1
    tampered = json.dumps(payload)
    ref = run.load_digests()[" ".join(CHEAP)]
    assert run.check_output(CHEAP, 0, tampered, "", ref) == (1, 1)
    assert run.check_output(CHEAP, 1, proc.stdout, "", ref) == (1, 1)
    assert run.check_output(CHEAP, 0, proc.stdout, "Traceback (most recent call last):", ref) == (1, 1)
    # timing fields are not part of the digest
    payload["transitivity"]["rank"] -= 1
    payload["timing_ms"]["d"] += 1000
    assert run.check_output(CHEAP, 0, json.dumps(payload), "", ref) == (1, 0)


def test_tampered_claim_counts_once():
    proc = _plain(run.REPRODUCE)
    ref = run.load_digests()[" ".join(run.REPRODUCE)]
    assert run.check_output(run.REPRODUCE, proc.rc, proc.stdout, proc.stderr, ref) == (125, 0)
    payload = json.loads(proc.stdout)
    payload["verdicts"][0]["computed"] = "tampered"
    assert run.check_output(run.REPRODUCE, 0, json.dumps(payload), "", ref) == (125, 1)
    # a claim that fails makes gen32 exit 1; it counts once, not as 125
    payload["verdicts"][0]["computed"] = json.loads(proc.stdout)["verdicts"][0]["computed"]
    payload["verdicts"][0]["pass"] = False
    payload["all_pass"] = False
    assert run.check_output(run.REPRODUCE, 1, json.dumps(payload), "", ref) == (125, 1)
    payload["verdicts"][1]["pass"] = False
    assert run.check_output(run.REPRODUCE, 1, json.dumps(payload), "", ref) == (125, 2)
    # a report that contradicts its verdicts
    clean = json.loads(proc.stdout)
    clean["all_pass"] = False
    assert run.check_output(run.REPRODUCE, 0, json.dumps(clean), "", ref) == (125, 1)
    assert run.check_output(run.REPRODUCE, 1, proc.stdout, "", ref) == (125, 1)
    # a crash, another exit code or unparseable output fails every claim
    assert run.check_output(run.REPRODUCE, 2, proc.stdout, "", ref) == (125, 125)
    assert run.check_output(run.REPRODUCE, 1, json.dumps(payload),
                            "Traceback (most recent call last):", ref) == (125, 125)
    assert run.check_output(run.REPRODUCE, 1, "not json", "", ref) == (125, 125)


def test_table1_g4_fields_are_checked_beside_the_digest():
    argv = ("analyze", "table1", "--i", "4")
    payload = {"degree": 289, "order": 18496, "transitivity": {"rank": 10},
               "d": {"value": 2, "witness_verified": True}}
    ref = run.digest(payload)
    assert run.check_output(argv, 0, json.dumps(payload), "", ref) == (1, 1)


def test_absent_name_is_reported_not_zero():
    rec = tracer._Recorder("t")
    tracer._install("permgroup.table", "gen32.no_such_module", "ElementTable.__init__",
                    lambda f: f, rec)
    assert rec.absent == ["permgroup.table"]
    raw = {name: 1.0 for name in tracer.LAYER_METRICS}
    raw.update({"gens.d_affine.lifts": 1, "gens.d_exact.closures": 1})
    metrics, missing = tracer.finish(raw, {"permgroup.table"})
    assert missing == ["permgroup.table.rows_built"]
    assert "permgroup.table.rows_built" not in metrics


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

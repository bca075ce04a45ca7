"""Benchmark of the gen32 command-line tool.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of real ``gen32`` commands.  They run one
after another, each in a fresh ``python3 -m gen32.cli`` process, as a
single closed-loop client: the next command starts when the previous one
has exited.  One pass of the list is repeated until ``--seconds`` would be
exceeded (at least one pass).  Every output is checked (exit code 0, no
traceback, the checks in ``check_output`` and a digest of the JSON with its
timing fields removed, stored in ``digests.json``); a mismatch counts as a
failed item and is never dropped.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, medians over the passes:

* ``wall_s``: wall time of one pass of the command list;
* ``cpu_s``: user plus system CPU of the pass's processes (``os.wait4``);
* ``peak_rss_mb``: the largest max-RSS among the pass's processes;
* ``setup_s``: time for a fresh interpreter to ``import gen32.cli``.

With ``--trace 1`` each round is an untraced pass followed by a pass whose
commands run under ``tracer.py``, and the last line holds the per-layer
metrics of the traced pass (see ``tracer.LAYER_METRICS``), medians over the
rounds.  Spans of the run are written to ``.perfbench/``.

Items are claims for ``reproduce`` and commands for the analyze panels.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

TIMING_FIELDS = ("runtime_ms", "timing_ms", "total_runtime_ms")
# set-up is timed this often before every command of an untraced pass,
# so that its median spans the whole run rather than a few moments of a
# shared host's speed
SETUP_REPEATS = 2
# every process of a run is killed once the run has lasted this long
RUN_DEADLINE_S = 150.0

REPRODUCE = ("reproduce", "--suite", "all")

# The analyze-search seed draws one member of each pool.  Members of a
# pool differ in their input but cost within a few percent of each other
# and peak at about the same RSS, so a later change can be re-checked on
# a seed it was not written against without the seed moving the figures.
# s0 has no such partner: --q 47 costs ~20% less than 49 and
# --action nonzero ~10% less than all.  sl2 --p 19 costs twice what 17
# does at 1.5x the RSS, and agl1 --q 125 peaks 15% above 127 and 131.
SEARCH_POOLS = (
    (("analyze", "s0", "--q", "49", "--action", "all"),),
    (("analyze", "agl1", "--q", "127"), ("analyze", "agl1", "--q", "131")),
    (("analyze", "sl2", "--p", "17"), ("analyze", "sl2", "--p", "17", "--action", "all")),
)

# reproduce and analyze-affine are the paper's fixed inputs; the seed
# does not change them.
AFFINE_PANEL = (
    ("analyze", "table1", "--i", "4"),
    ("analyze", "affine", "--q", "13"),
    ("analyze", "table2", "--i", "2"),
)

WORKLOADS = {
    "reproduce": lambda rng: [REPRODUCE],
    "analyze-affine": lambda rng: list(AFFINE_PANEL),
    "analyze-search": lambda rng: [rng.choice(pool) for pool in SEARCH_POOLS],
}

# Values the paper fixes, checked besides the digest (Table 1, G4).
EXPECTED_FIELDS = {
    ("analyze", "table1", "--i", "4"): {
        ("degree",): 289,
        ("order",): 18496,
        ("transitivity", "rank"): 10,
        ("d", "value"): 3,
    },
}


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    return WORKLOADS[workload](random.Random(seed))


def all_commands() -> list[tuple[str, ...]]:
    """Every command any seed can produce."""
    return [REPRODUCE, *AFFINE_PANEL, *(cmd for pool in SEARCH_POOLS for cmd in pool)]


# ---------------------------------------------------------------------------
# correctness


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k not in TIMING_FIELDS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def digest(value) -> str:
    text = json.dumps(strip_timing(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_of(argv: tuple[str, ...], payload: dict):
    """What digests.json stores for one command's parsed output."""
    if argv[0] == "reproduce":
        return {
            "report": digest(payload),
            "claims": {v["claim_id"]: digest(v) for v in payload["verdicts"]},
        }
    return digest(payload)


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(argv, rc: int, stdout: str, stderr: str, reference) -> tuple[int, int]:
    """(attempted, failed) items for one command's output."""
    reproduce = argv[0] == "reproduce"
    attempted = len(reference["claims"]) if reproduce else 1
    # gen32 reproduce exits 1 when a claim fails; its report still lists
    # every claim, so the failures are counted claim by claim.  A crash or
    # any other exit code fails every item.
    if rc not in ((0, 1) if reproduce else (0,)) or "Traceback (most recent call last)" in stderr:
        return attempted, attempted
    try:
        payload = json.loads(stdout)
    except ValueError:
        return attempted, attempted
    if not isinstance(payload, dict):
        return attempted, attempted
    if reproduce:
        verdicts = payload.get("verdicts")
        if not isinstance(verdicts, list):
            return attempted, attempted
        got = {v.get("claim_id"): v for v in verdicts if isinstance(v, dict)}
        failed = sum(
            1
            for cid, ref in reference["claims"].items()
            if cid not in got or got[cid].get("pass") is not True or digest(got[cid]) != ref
        )
        if failed == 0 and (rc != 0 or payload.get("all_pass") is not True
                            or digest(payload) != reference["report"]):
            failed = 1  # extra claims, a changed report field or a wrong verdict
        return attempted, failed
    ok = digest(payload) == reference
    d = payload.get("d")
    ok = ok and isinstance(d, dict) and d.get("witness_verified") is True
    for path, want in EXPECTED_FIELDS.get(tuple(argv), {}).items():
        value = payload
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        ok = ok and value == want
    return attempted, 0 if ok else 1


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("GEN32_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def run_process(cmd: list[str], timeout: float, env: dict[str, str]) -> Proc:
    """Run one process to its end; rusage comes from os.wait4."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(
            rc=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )


@dataclass
class Pass:
    wall: float
    procs: list[Proc]
    traces: list[dict]
    attempted: int
    failed: int


class Runner:
    def __init__(self, seed: int):
        self.env = child_env()
        self.digests = load_digests()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.serial = 0
        self.seed = seed

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_times(self, repeats: int) -> list[float]:
        """Wall times of fresh interpreters that import gen32.cli."""
        cmd = [sys.executable, "-c", "import gen32.cli"]
        times = []
        for _ in range(repeats):
            p = run_process(cmd, self.timeout(), self.env)
            if p.rc != 0:
                raise RuntimeError(f"import gen32.cli failed: {p.stderr.strip()}")
            times.append(p.wall)
        return times

    def run_pass(self, cmds, traced: bool, setup: list[float] | None = None) -> Pass:
        """One pass of the command list; with ``setup``, set-up times taken
        before each command are appended to it (they are not in the pass's
        wall time)."""
        procs, traces, paths = [], [], []
        for argv in cmds:
            if setup is not None:
                setup.extend(self.setup_times(SETUP_REPEATS))
            if traced:
                self.serial += 1
                item = f"{self.seed}-{self.serial}"
                path = OUT_DIR / f"trace-{os.getpid()}-{item}.json"
                paths.append(path)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(path), item, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "gen32.cli", *argv]
            procs.append(run_process(cmd, self.timeout(), self.env))
        wall = sum(p.wall for p in procs)
        attempted = failed = 0
        for argv, p in zip(cmds, procs):
            a, f = check_output(argv, p.rc, p.stdout, p.stderr, self.digests[" ".join(argv)])
            attempted += a
            failed += f
        for path in paths:
            try:
                with open(path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
                path.unlink()
            except (OSError, ValueError):
                traces.append(None)
        return Pass(wall, procs, traces, attempted, failed)


def layer_figures(cmds, untraced: Pass, traced: Pass) -> tuple[dict, list[str]]:
    raw: dict[str, float] = {}
    absent: set[str] = set()
    for argv, p, doc in zip(cmds, traced.procs, traced.traces):
        if doc is None:
            continue
        absent.update(doc["absent"])
        figures = tracer.item_figures(doc)
        main_s = figures.get("cli.main.s", 0.0)
        # interpreter start, imports and exit, plus the tracer's own wrapping
        # and span dump
        figures["cli.process_overhead_s"] = p.wall - main_s
        claims_s = 0.0
        if argv[0] == "reproduce":
            try:
                verdicts = json.loads(p.stdout)["verdicts"]
                claims_s = sum(v["runtime_ms"] for v in verdicts) / 1000.0
            except (ValueError, KeyError, TypeError):
                pass
            figures["verify.outside_claims_s"] = main_s - claims_s
        figures["verify.claims_s"] = claims_s
        for key, value in figures.items():
            raw[key] = raw.get(key, 0) + value
    raw.setdefault("verify.outside_claims_s", 0.0)
    raw["trace.overhead_s"] = traced.wall - untraced.wall
    return tracer.finish(raw, absent)


def median_metrics(rounds: list[dict], units: dict[str, str]) -> dict:
    names = [n for n in units if all(n in r for r in rounds)]
    return {
        n: {"value": statistics.median(r[n] for r in rounds), "unit": units[n]} for n in names
    }


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gen32" / "cli.py").is_file() or not DIGESTS.is_file():
        print(f"error: no gen32 sources under {SRC} or no {DIGESTS.name}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()

    runner = Runner(args.seed)
    cmds = commands(args.workload, args.seed)
    try:
        return measure(args, runner, cmds, facts)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def measure(args: argparse.Namespace, runner: Runner, cmds, facts: dict) -> int:
    setup: list[float] = []
    if not args.trace:
        runner.setup_times(1)  # fills the bytecode cache
    rounds: list[dict] = []
    spans: list[list] = []
    attempted = failed = 0
    start = time.perf_counter()
    absent: set[str] = set()
    while True:
        t0 = time.perf_counter()
        plain = runner.run_pass(cmds, traced=False, setup=None if args.trace else setup)
        attempted += plain.attempted
        failed += plain.failed
        if args.trace:
            traced = runner.run_pass(cmds, traced=True)
            attempted += traced.attempted
            failed += traced.failed
            figures, missing = layer_figures(cmds, plain, traced)
            absent.update(missing)
            rounds.append(figures)
            spans.extend(s for doc in traced.traces if doc for s in doc["spans"])
        else:
            rounds.append({
                "wall_s": plain.wall,
                "cpu_s": sum(p.cpu for p in plain.procs),
                "peak_rss_mb": max(p.rss_mb for p in plain.procs),
            })
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds or runner.timeout() < 2 * (now - t0):
            break

    if args.trace:
        units = {name: unit for name, (unit, _needs) in tracer.LAYER_METRICS.items()}
        metrics = median_metrics(rounds, units)
    else:
        metrics = median_metrics(rounds, {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"})
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    facts["loadavg_after"] = os.getloadavg()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [" ".join(c) for c in cmds],
        "machine": facts,
        "rounds": rounds,
        "setup_s": setup,
        "absent": sorted(absent),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    print(json.dumps({"machine": facts, "commands": record["commands"], "rounds": len(rounds)}))
    if absent:
        print(json.dumps({"absent": sorted(absent)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Store the digests that run.py checks outputs against.

Runs every command any workload seed can produce, once and untraced,
and writes ``digests.json``.  Run from the repository root, at a commit
whose outputs are known to be right::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    env = run.child_env()
    digests = {}
    for argv in run.all_commands():
        p = run.run_process([sys.executable, "-m", "gen32.cli", *argv], 600.0, env)
        if p.rc != 0 or "Traceback" in p.stderr:
            print(f"error: {' '.join(argv)} exited {p.rc}:\n{p.stderr}", file=sys.stderr)
            return 1
        payload = json.loads(p.stdout)
        if argv[0] == "reproduce" and payload.get("all_pass") is not True:
            print("error: reproduce did not pass every claim", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = run.reference_of(argv, payload)
        print(f"{p.wall:6.2f} s  {' '.join(argv)}", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

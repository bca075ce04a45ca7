"""Command-line front end: construct groups, analyze them, and run the
claim suites.

Output is JSON under the versioned top-level key ``"schema": "gen32/1"``,
serialized with sorted keys and two-space indentation so that repeated
runs are byte-identical apart from the timing fields (``runtime_ms``,
``timing_ms``, ``total_runtime_ms``).

Exit codes (no others are used):

* 0 — success (including analyses whose d is reported indeterminate);
* 1 — at least one claim verdict failed;
* 2 — usage, parse or input-format error, or an unwritable ``--out`` path;
* 3 — construction or suite precondition violated.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from functools import partial
from typing import Callable, Sequence

from .constructions import (
    affine_group,
    agl1,
    s0_group,
    sl2,
    table1_matrix_group,
    table2_matrix_group,
    z_group,
)
from .errors import IndeterminateError, PreconditionError
from .gens import DEFAULT_BUDGET, DResult, d_affine, d_exact
from .permgroup import PermGroup, group_from_text, group_to_text, perm_to_text
from .transitivity import analyze
from .verify import ClaimVerdict, SUITE_NAMES, run_suite

SCHEMA = "gen32/1"

# the kind flags each construction kind reads; any other is a usage error
KIND_FLAGS = {
    "s0": ("q", "action"),
    "affine": ("q",),
    "table1": ("i",),
    "table2": ("i",),
    "sl2": ("p", "action"),
    "zgroup": ("m", "n", "r"),
    "agl1": ("q",),
}
KINDS = tuple(KIND_FLAGS)


class UsageError(Exception):
    """Bad flags or an unwritable ``--out`` path (exit code 2)."""


def _given_flags(args: argparse.Namespace, allowed: Sequence[str] = ()) -> list[str]:
    """The kind flags given on the command line, outside ``allowed``."""
    return [
        f"--{f}" for f in ("q", "i", "p", "m", "n", "r", "action")
        if f not in allowed and getattr(args, f) is not None
    ]


def _build(args: argparse.Namespace) -> tuple[str, PermGroup, Callable[[int], DResult]]:
    """Resolve a construction kind and its flags into a name, the
    permutation group, and the d strategy appropriate for it as a
    function of the budget (affine kinds shortcut through their linear
    stabilizer).  Every flag the kind reads but ``--action`` is required,
    and a kind flag it does not read is a usage error."""
    kind = args.kind
    if kind not in KIND_FLAGS:
        raise UsageError(f"unknown construction kind {kind!r}")
    allowed = KIND_FLAGS[kind]
    extra = _given_flags(args, allowed)
    if extra:
        reads = ", ".join(f"--{f}" for f in allowed)
        raise UsageError(f"construction {kind!r} reads only {reads}, not {' '.join(extra)}")
    for f in allowed:
        if f != "action" and getattr(args, f) is None:
            raise UsageError(f"construction {kind!r} requires --{f}")
    action = args.action or "nonzero"
    if kind == "s0":
        group = s0_group(args.q).perm_group(action)
        return f"s0(q={args.q},action={action})", group, partial(d_exact, group)
    if kind == "sl2":
        group = sl2(args.p).perm_group(action)
        return f"sl2(p={args.p},action={action})", group, partial(d_exact, group)
    if kind in ("affine", "table1", "table2"):
        if kind == "affine":
            name, stab = f"affine(s0,q={args.q})", s0_group(args.q)
        elif kind == "table1":
            name, stab = f"table1(i={args.i})", table1_matrix_group(args.i)
        else:
            name, stab = f"table2(i={args.i})", table2_matrix_group(args.i)
        group = affine_group(stab)
        return name, group, partial(d_affine, group)
    if kind == "zgroup":
        group = z_group(args.m, args.n, args.r)
        return f"zgroup(m={args.m},n={args.n},r={args.r})", group, partial(d_exact, group)
    group = agl1(args.q)
    return f"agl1(q={args.q})", group, partial(d_exact, group)


def _check_writable(out: str | None) -> bool:
    """Fail before any work when ``--out`` cannot be written.  Opening for
    append creates a missing file but keeps an existing one's bytes until
    ``_emit`` replaces them; returns whether the file was created."""
    if out is None:
        return False
    created = not os.path.exists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    return created


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args: argparse.Namespace) -> int:
    _, group, _ = _build(args)
    _emit(group_to_text(group), args.out)
    return 0


# ---------------------------------------------------------------------------
# analyze


def _d_payload(compute: Callable[[int], DResult], budget: int) -> tuple[dict, int]:
    t0 = time.perf_counter()
    try:
        res = compute(budget)
        payload = {
            "value": res.value,
            "method": res.method,
            "witness": [perm_to_text(g) for g in res.witness.elements],
            "witness_verified": res.witness.verified,
        }
    except (IndeterminateError, PreconditionError) as exc:
        payload = {"indeterminate": str(exc)}
    return payload, int((time.perf_counter() - t0) * 1000)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    if args.infile is not None:
        extra = [args.kind] if args.kind is not None else []
        extra += _given_flags(args)
        if extra:
            raise UsageError(f"--in takes no construction kind or kind flag, got {' '.join(extra)}")
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                group = group_from_text(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read group from {args.infile}: {exc}", file=sys.stderr)
            return 2
        name = f"file:{os.path.basename(args.infile)}"
        compute = partial(d_exact, group)
    else:
        if args.kind is None:
            print("error: analyze needs a construction kind or --in FILE", file=sys.stderr)
            return 2
        name, group, compute = _build(args)

    t0 = time.perf_counter()
    report = analyze(group)
    trans_ms = int((time.perf_counter() - t0) * 1000)
    if report.transitive:
        stab_order = group.point_stabilizer(0).order()
        if report.order != report.degree * stab_order:
            raise RuntimeError("internal error: orbit-stabilizer mismatch")
    d_payload, d_ms = _d_payload(compute, args.budget)
    payload = {
        "schema": SCHEMA,
        "name": name,
        "degree": report.degree,
        "order": report.order,
        "transitivity": report._asdict(),
        "d": d_payload,
        "timing_ms": {"transitivity": trans_ms, "d": d_ms},
    }
    _emit(_json(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _verdict_payload(v: ClaimVerdict) -> dict:
    return {
        "claim_id": v.claim_id,
        "expected": v.expected,
        "computed": v.computed,
        "pass": v.passed,
        "runtime_ms": v.runtime_ms,
    }


def _parse_q_list(texts: Sequence[str]) -> tuple[int, ...]:
    try:
        qs = tuple(int(part) for text in texts for part in text.split(","))
    except ValueError:
        raise UsageError(f"--q expects comma-separated integers, got {','.join(texts)!r}") from None
    if len(set(qs)) != len(qs):
        raise UsageError(f"--q lists a value more than once: {qs}")
    return qs


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.q and args.suite not in ("lemma7", "all"):
        raise UsageError(f"--q applies to --suite lemma7 or all, not {args.suite}")
    q_list = _parse_q_list(args.q) if args.q else None
    t0 = time.perf_counter()
    verdicts = run_suite(args.suite, q_list)
    total_ms = int((time.perf_counter() - t0) * 1000)

    payload = {
        "schema": SCHEMA,
        "suite": args.suite,
        "verdicts": [_verdict_payload(v) for v in verdicts],
        "all_pass": all(v.passed for v in verdicts),
        "total_runtime_ms": total_ms,
    }
    _emit(_json(payload), args.out)

    # human-readable table; kept off stdout when stdout carries the JSON
    table = sys.stdout if args.out else sys.stderr
    width = max(len(v.claim_id) for v in verdicts)
    for v in verdicts:
        mark = "PASS" if v.passed else "FAIL"
        print(
            f"{mark} {v.claim_id:<{width}}  expected {v.expected!r}, computed {v.computed!r}",
            file=table,
        )
    failed = [v.claim_id for v in verdicts if not v.passed]
    print(
        f"{len(verdicts) - len(failed)}/{len(verdicts)} claims passed", file=table
    )
    if failed:
        print("failed claims: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_kind_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, help="field size (s0, affine, agl1)")
    sub.add_argument("--i", type=int, help="row index (table1: 1..4, table2: 1..2)")
    sub.add_argument("--p", type=int, help="prime (sl2)")
    sub.add_argument("--m", type=int, help="kernel order (zgroup)")
    sub.add_argument("--n", type=int, help="complement order (zgroup)")
    sub.add_argument("--r", type=int, help="conjugation twist (zgroup)")
    sub.add_argument(
        "--action",
        choices=("nonzero", "all"),
        help="point set for matrix kinds: nonzero vectors or all vectors",
    )
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gen32",
        description="Construct, analyze, and verify the bundled families of permutation groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="emit a group in the text format")
    construct.add_argument("kind", choices=KINDS)
    _add_kind_flags(construct)
    construct.set_defaults(func=cmd_construct)

    analyze_p = subs.add_parser("analyze", help="full transitivity and d report as JSON")
    analyze_p.add_argument("kind", nargs="?", choices=KINDS)
    _add_kind_flags(analyze_p)
    analyze_p.add_argument("--in", dest="infile", help="read a serialized group instead")
    analyze_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search budget for d")
    analyze_p.set_defaults(func=cmd_analyze)

    reproduce = subs.add_parser("reproduce", help="run a claim suite and report verdicts")
    reproduce.add_argument("--suite", required=True, choices=SUITE_NAMES)
    reproduce.add_argument("--q", action="append", help="lemma7 qs, comma-separated; repeatable")
    reproduce.add_argument("--out", help="write the JSON report to this file")
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    created = False
    # The engine forms no reference cycles (the tests check its groups and
    # the d search), so the cyclic collector would only rescan the many
    # keys and tuples a command allocates; it is paused while one runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        created = _check_writable(args.out)
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    finally:
        if collecting:
            gc.enable()
    if created and code in (2, 3):
        # no report was written: leave no empty --out file behind
        with contextlib.suppress(OSError):
            os.remove(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Traced run of one gen32 CLI command, and the per-layer metrics derived
from it.

Run as a script, this module imports ``gen32.cli``, wraps the public
functions of each ``gen32`` module from the outside and then calls
``gen32.cli.main`` with the given arguments::

    python3 perfbench/tracer.py OUT.json ITEM -- analyze sl2 --p 17

A wrapped function is rebound in its defining module and in every
``gen32`` module that imported it by name (``cli`` binds ``analyze`` and
``d_exact``, ``verify`` binds ``rank``), so no call bypasses its span.
Spans are kept in memory as ``[item, name, start, end, parent]`` and
written to OUT.json when the command ends, together with the work
counters and the traced names that no longer exist.  A missing name is
reported as absent; it never reads as zero and never stops the run.

Imported as a module (by ``run.py``), it only derives metrics from
those files; it does not import ``gen32`` then.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute); "Class.method" patches the class.
SPANNED = (
    ("cli.main", "gen32.cli", "main"),
    ("verify.table1", "gen32.verify", "verify_table1"),
    ("verify.table2", "gen32.verify", "verify_table2"),
    ("verify.lemma7", "gen32.verify", "verify_lemma7"),
    ("verify.corollary3", "gen32.verify", "verify_corollary3"),
    ("verify.genlemmas", "gen32.verify", "verify_generation_lemmas"),
    ("matgroup.perm_from_matrix", "gen32.matgroup", "perm_from_matrix"),
    ("matgroup.is_irreducible", "gen32.matgroup", "is_irreducible"),
    ("permgroup.build_chain", "gen32.permgroup", "build_chain"),
    ("permgroup.elements", "gen32.permgroup", "PermGroup.elements"),
    ("permgroup.conjugacy_classes", "gen32.permgroup", "PermGroup.conjugacy_classes"),
    ("permgroup.table.closure", "gen32.permgroup", "ElementTable.closure"),
    ("permgroup.census", "gen32.permgroup", "subgroups_up_to_conjugacy"),
    ("permgroup.coset_action", "gen32.permgroup", "coset_action"),
    ("transitivity.analyze", "gen32.transitivity", "analyze"),
    ("transitivity.is_frobenius", "gen32.transitivity", "is_frobenius"),
    ("transitivity.is_primitive", "gen32.transitivity", "is_primitive"),
    ("transitivity.rank", "gen32.transitivity", "rank"),
    ("gens.d_exact", "gen32.gens", "d_exact"),
    ("gens.d_affine", "gen32.gens", "d_affine"),
    ("gens.generates", "gen32.gens", "generates"),
    ("gens.d_lower_bound_abelian", "gen32.gens", "d_lower_bound_abelian"),
)

# The public constructors; constructions.s sums their outermost spans.
CONSTRUCTORS = (
    "s0_group",
    "translation_perms",
    "extend_fixing_zero",
    "affine_of_linear_perms",
    "affine_group",
    "table1_matrix_group",
    "table2_matrix_group",
    "table1_group",
    "table2_group",
    "sl2",
    "sl2_twisted_group",
    "sl2_twisted_check",
    "z_group",
    "z_group_kernel_action",
    "agl1",
)

# Count-only wrappers: these run too often for a span each.
FIELD_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "inv", "__pow__")

COUNTERS = (
    "permgroup.perm_mul.calls",
    "permgroup.perm_mul.points",
    "field.ops",
    "transitivity.block_sweeps",
    "permgroup.build_chain.levels",
    "matgroup.perm_from_matrix.points",
    "permgroup.elements.enumerated",
)

# name -> (unit, traced names it needs).  "<name>.s" sums the outermost
# spans of a name, "<name>.self_s" its spans less their direct children;
# gens.d_affine.self_s is the exception: its spans less only the nested
# gens.d_exact, so it covers the translation build and the lift loop.
# A metric whose traced names are not all present is reported as absent.
LAYER_METRICS = {
    "cli.main.s": ("s", ("cli.main",)),
    "cli.process_overhead_s": ("s", ("cli.main",)),
    "verify.table1.s": ("s", ("verify.table1",)),
    "verify.table2.s": ("s", ("verify.table2",)),
    "verify.lemma7.s": ("s", ("verify.lemma7",)),
    "verify.corollary3.s": ("s", ("verify.corollary3",)),
    "verify.genlemmas.s": ("s", ("verify.genlemmas",)),
    "verify.claims_s": ("s", ()),
    "verify.outside_claims_s": ("s", ("cli.main",)),
    "constructions.s": ("s", tuple(f"constructions.{c}" for c in CONSTRUCTORS)),
    "matgroup.perm_from_matrix.calls": ("count", ("matgroup.perm_from_matrix",)),
    "matgroup.perm_from_matrix.s": ("s", ("matgroup.perm_from_matrix",)),
    "matgroup.perm_from_matrix.points": ("points", ("matgroup.perm_from_matrix",)),
    "matgroup.is_irreducible.s": ("s", ("matgroup.is_irreducible",)),
    "field.ops": ("count", tuple(f"field.{op}" for op in FIELD_OPS)),
    "permgroup.perm_mul.calls": ("count", ("permgroup.perm_mul",)),
    "permgroup.perm_mul.points": ("points", ("permgroup.perm_mul",)),
    "permgroup.build_chain.calls": ("count", ("permgroup.build_chain",)),
    "permgroup.build_chain.s": ("s", ("permgroup.build_chain",)),
    "permgroup.build_chain.levels": ("count", ("permgroup.build_chain",)),
    "permgroup.elements.s": ("s", ("permgroup.elements",)),
    "permgroup.elements.enumerated": ("count", ("permgroup.elements",)),
    "permgroup.conjugacy_classes.s": ("s", ("permgroup.conjugacy_classes",)),
    "permgroup.table.rows_built": ("count", ("permgroup.table",)),
    "permgroup.table.closure.calls": ("count", ("permgroup.table.closure",)),
    "permgroup.table.closure.s": ("s", ("permgroup.table.closure",)),
    "permgroup.census.s": ("s", ("permgroup.census",)),
    "permgroup.coset_action.s": ("s", ("permgroup.coset_action",)),
    "transitivity.analyze.s": ("s", ("transitivity.analyze",)),
    "transitivity.is_frobenius.s": ("s", ("transitivity.is_frobenius",)),
    "transitivity.is_primitive.s": ("s", ("transitivity.is_primitive",)),
    "transitivity.block_sweeps": ("count", ("transitivity.block_sweeps",)),
    "transitivity.rank.s": ("s", ("transitivity.rank",)),
    "gens.d_exact.calls": ("count", ("gens.d_exact",)),
    "gens.d_exact.s": ("s", ("gens.d_exact",)),
    "gens.d_exact.self_s": ("s", ("gens.d_exact",)),
    "gens.d_affine.calls": ("count", ("gens.d_affine",)),
    "gens.d_affine.s": ("s", ("gens.d_affine",)),
    "gens.d_affine.self_s": ("s", ("gens.d_affine",)),
    "gens.generates.calls": ("count", ("gens.generates",)),
    "gens.generates.s": ("s", ("gens.generates",)),
    "gens.d_lower_bound_abelian.s": ("s", ("gens.d_lower_bound_abelian",)),
    "gens.d_affine.lifts_per_call": ("ratio", ("gens.d_affine", "gens.generates")),
    "gens.closures_per_d_exact": ("ratio", ("gens.d_exact", "permgroup.table.closure")),
    "trace.overhead_s": ("s", ()),
}

# Sums over a workload's items that the ratio metrics divide.
RATIO_PARTS = {
    "gens.d_affine.lifts_per_call": ("gens.d_affine.lifts", "gens.d_affine.calls"),
    "gens.closures_per_d_exact": ("gens.d_exact.closures", "gens.d_exact.calls"),
}


# ---------------------------------------------------------------------------
# child side: wrap, run, write


class _Recorder:
    """Spans and counters of one traced command."""

    def __init__(self, item: str):
        self.item = item
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._keep: dict[int, object] = {}
        self._tables: list[object] = []

    def spanned(self, name, fn, after=None):
        spans, stack, item, clock = self.spans, self.stack, self.item, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [item, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, fn, on_call):
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)

        return wrapper

    # hooks that turn return values into work counts

    def chain_levels(self, chain, _args) -> None:
        self.counts["permgroup.build_chain.levels"] += len(chain.levels)

    def matrix_points(self, perm, _args) -> None:
        self.counts["matgroup.perm_from_matrix.points"] += perm.degree

    def enumerated(self, elements, _args) -> None:
        # elements() caches its list on the group: count each list once,
        # holding it so that its id cannot be reused within the command
        if id(elements) not in self._keep:
            self._keep[id(elements)] = elements
            self.counts["permgroup.elements.enumerated"] += len(elements)

    def table_made(self, args) -> None:
        self._tables.append(args[0])

    def rows_built(self) -> int | None:
        """Rows the element tables of this command filled, read when the
        command ends (wrapping ``row`` itself would slow every closure)."""
        total = 0
        for table in self._tables:
            rows = getattr(table, "_rows", None)
            if rows is None:
                return None
            total += sum(1 for r in rows if r is not None)
        return total


def _resolve(module: str, attr: str):
    """(owner, attribute name, current value) or None when absent."""
    owner = sys.modules.get(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        value = owner.__dict__.get(parts[-1])
    else:
        value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def _install(name: str, module: str, attr: str, make, rec: _Recorder) -> None:
    found = _resolve(module, attr)
    if found is None:
        rec.absent.append(name)
        return
    owner, leaf, original = found
    wrapped = make(original)
    if isinstance(owner, type):
        setattr(owner, leaf, wrapped)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gen32" or mod_name.startswith("gen32."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(rec: _Recorder) -> None:
    """Wrap every traced gen32 function; gen32.cli must be imported."""
    counts = rec.counts
    counts.update(dict.fromkeys(COUNTERS, 0))
    hooks = {
        "permgroup.build_chain": rec.chain_levels,
        "matgroup.perm_from_matrix": rec.matrix_points,
        "permgroup.elements": rec.enumerated,
    }
    for name, module, attr in SPANNED:
        _install(name, module, attr, lambda f, n=name: rec.spanned(n, f, hooks.get(n)), rec)
    for ctor in CONSTRUCTORS:
        name = f"constructions.{ctor}"
        _install(name, "gen32.constructions", ctor, lambda f, n=name: rec.spanned(n, f), rec)

    def perm_mul(args):
        counts["permgroup.perm_mul.calls"] += 1
        counts["permgroup.perm_mul.points"] += args[0].degree

    def field_op(_args):
        counts["field.ops"] += 1

    def block_sweep(_args):
        counts["transitivity.block_sweeps"] += 1

    _install("permgroup.perm_mul", "gen32.permgroup", "Perm.__mul__",
             lambda f: rec.counted(f, perm_mul), rec)
    for op in FIELD_OPS:
        _install(f"field.{op}", "gen32.field", f"FieldElement.{op}",
                 lambda f: rec.counted(f, field_op), rec)
    _install("transitivity.block_sweeps", "gen32.transitivity", "minimal_block_with",
             lambda f: rec.counted(f, block_sweep), rec)
    _install("permgroup.table", "gen32.permgroup", "ElementTable.__init__",
             lambda f: rec.counted(f, rec.table_made), rec)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json ITEM -- <gen32 arguments>", file=sys.stderr)
        return 2
    out_path, item, cli_args = argv[0], argv[1], argv[3:]
    import gen32.cli  # noqa: F401  (loads every gen32 module before wrapping)

    rec = _Recorder(item)
    install(rec)
    try:
        return sys.modules["gen32.cli"].main(cli_args)
    finally:
        rows = rec.rows_built()
        if rows is None:
            rec.absent.append("permgroup.table")
        else:
            rec.counts["permgroup.table.rows_built"] = rows
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"item": item, "spans": rec.spans, "counts": rec.counts,
                       "absent": rec.absent}, fh)


# ---------------------------------------------------------------------------
# parent side: derive per-layer figures from a trace file


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _item, _name, start, end, _parent in spans]
    for _item, _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def item_figures(doc: dict) -> dict[str, float]:
    """Raw per-layer sums for one traced command (ratios not yet formed)."""
    spans = doc["spans"]
    names = [s[1] for s in spans]
    parents = [s[4] for s in spans]
    duration = [s[3] - s[2] for s in spans]
    own = self_times(spans)

    def has_ancestor(i: int, accept) -> bool:
        p = parents[i]
        while p >= 0:
            if accept(names[p]):
                return True
            p = parents[p]
        return False

    out: dict[str, float] = dict(doc["counts"])
    for name in {n for n, _m, _a in SPANNED}:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    out["constructions.s"] = 0.0
    out["gens.d_affine.lifts"] = 0
    out["gens.d_exact.closures"] = 0
    for i, name in enumerate(names):
        if name.startswith("constructions."):
            if not has_ancestor(i, lambda n: n.startswith("constructions.")):
                out["constructions.s"] += duration[i]
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration[i] if name == "gens.d_affine" else own[i]
        if name == "gens.d_exact" and has_ancestor(i, lambda n: n == "gens.d_affine") \
                and not has_ancestor(i, lambda n: n == "gens.d_exact"):
            out["gens.d_affine.self_s"] -= duration[i]
        if not has_ancestor(i, lambda n, name=name: n == name):
            out[f"{name}.s"] += duration[i]
        if name == "gens.generates" and parents[i] >= 0 and names[parents[i]] == "gens.d_affine":
            out["gens.d_affine.lifts"] += 1
        if name == "permgroup.table.closure" and has_ancestor(i, lambda n: n == "gens.d_exact"):
            out["gens.d_exact.closures"] += 1
    return out


def finish(raw: dict[str, float], absent: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the raw sums over a workload's commands,
    and the metric names that are absent because a traced name is gone.
    A ratio whose base is 0 reads 0; its base is reported beside it."""
    for ratio, (num, den) in RATIO_PARTS.items():
        raw[ratio] = raw.get(num, 0) / raw[den] if raw.get(den) else 0.0
    metrics, missing = {}, []
    for name, (_unit, needs) in LAYER_METRICS.items():
        if any(n in absent for n in needs) or name not in raw:
            missing.append(name)
        else:
            metrics[name] = raw[name]
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the cubesteiner modules from outside:
`Tracer.install` rebinds each wrapped name in every cubesteiner module that
holds it (the defining module and every module that imported it with
`from ... import`), and `Tracer.uninstall` puts the originals back. Nothing
in the package itself changes.

Three kinds of wrapper:

- spans (`SPANNED`): one span per call with name, start, end and parent id,
  kept in flat arrays while the run lasts and written out at the end. A
  function's self time is its span's duration minus the time its child spans
  cover; the runtime is single-threaded, so child spans never overlap.
- counters (`COUNTED`): functions called too often to span (millions of
  calls per job) only count calls.
- the budget meter: `errors.check_budget` is wrapped to record, per label,
  the units each call is charged.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import time
from array import array
from pathlib import Path

SPANNED = {
    "cli": ("main",),
    "steiner": ("steiner_exact", "validate_tree", "shortest_path"),
    "autgroup": (
        "apply_edge",
        "sample_uniform",
        "enumerate_group",
        "verify_sharp_edge_transitivity",
    ),
    "domination": (
        "greedy_dominating_set",
        "steinerize",
        "exact_connected_dominating_set",
        "exact_connected_domination_number",
        "is_dominating",
    ),
    "bounds": (
        "build_bounds_report",
        "upper_bound_tree",
        "best_connected_dominating_set",
        "build_intersection_experiment",
        "run_intersection_experiment",
        "sdiam_sandwich",
    ),
}
COUNTED = {"cube": ("check_vertex", "edge_between")}

# Budget phases always reported, zero when the workload never charges them.
BUDGET_LABELS = (
    "subset_dp_states",
    "connected_domination_search",
    "automorphism_pair_sweep",
    "k_subset_diameter_sweep",
    "edge_pair_transitivity_sweep",
)
# These searches call check_budget once per examined candidate with a running
# count, so each call charges one unit; every other label is charged its
# projection once.
RUNNING_COUNT_LABELS = frozenset(
    {"connected domination search", "domination search", "oracle superset enumeration"}
)

PACKAGE = "cubesteiner"
MODULES = ("cli", "steiner", "autgroup", "cube", "domination", "bounds", "errors")


def _package_modules() -> dict[str, object]:
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def budget_label(what: str) -> str:
    """'edge-pair transitivity sweep' -> 'edge_pair_transitivity_sweep'."""
    return re.sub(r"[^a-z0-9]+", "_", what.lower()).strip("_")


def merge_pairs(k: int, n: int) -> int:
    """Unordered (submask, complement) pairs the subset DP merges for k
    terminals, times the 2^n vertices each pair is evaluated at:
    sum over masks of (2^|mask| - 2) / 2 = (3^k - 2^(k+1) + 1) / 2."""
    return (3**k - 2 ** (k + 1) + 1) // 2 << n


class Tracer:
    """Spans, call counters and budget units for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.budget_units: dict[str, int] = {}
        self.merge_pairs = 0
        self.overlap_pair_edges = 0
        self._restore: list[tuple[object, str, object]] = []
        self._built = self._wrappers()

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _budget(self, fn):
        units = self.budget_units
        calls = self.counts.setdefault("errors.check_budget", [0])

        @functools.wraps(fn)
        def check_budget(what, projected, limit):
            calls[0] += 1
            label = budget_label(what)
            charge = 1 if what in RUNNING_COUNT_LABELS else projected
            units[label] = units.get(label, 0) + charge
            return fn(what, projected, limit)

        return check_budget

    def _observe_solve(self, args, result) -> None:
        inst = args[0]
        self.merge_pairs += merge_pairs(len(inst.terminals), inst.dim.n)

    def _observe_overlap(self, args, result) -> None:
        # each ordered pair would map d edges of each of the two trees
        self.overlap_pair_edges += 2 * result.pair_count * args[0].distance

    # -- installation -----------------------------------------------------

    def _wrappers(self) -> list[tuple[str, object, object]]:
        """(name, original, wrapper) for every wrapped function."""
        modules = _package_modules()
        observers = {
            "steiner.steiner_exact": self._observe_solve,
            "bounds.run_intersection_experiment": self._observe_overlap,
        }
        wrappers = []
        for mod, fnames in SPANNED.items():
            for f in fnames:
                orig = getattr(modules[mod], f)
                name = f"{mod}.{f}"
                wrappers.append((f, orig, self._spanned(name, orig, observers.get(name))))
        for mod, fnames in COUNTED.items():
            for f in fnames:
                orig = getattr(modules[mod], f)
                wrappers.append((f, orig, self._counted(f"{mod}.{f}", orig)))
        orig = modules["errors"].check_budget
        wrappers.append(("check_budget", orig, self._budget(orig)))
        return wrappers

    def install(self) -> None:
        """Rebind every wrapped name in each package module holding it."""
        holders = [importlib.import_module(PACKAGE), *_package_modules().values()]
        for attr, orig, wrapper in self._built:
            for holder in holders:
                if vars(holder).get(attr) is orig:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_ns = array("q", bytes(8 * n))
        under_overlap = bytearray(n)
        overlap_id = self.names.index("bounds.run_intersection_experiment")
        top_ns = 0
        for i in range(n):
            p = parents[i]
            if p < 0:
                top_ns += ends[i] - starts[i]
            else:
                child_ns[p] += ends[i] - starts[i]
                under_overlap[i] = under_overlap[p] or names[p] == overlap_id
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        apply_id = self.names.index("autgroup.apply_edge")
        overlap_apply_calls = 0
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child_ns[i]
            if nid == apply_id and under_overlap[i]:
                overlap_apply_calls += 1

        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (self_ns[nid] / 1e9, "s")
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = (cell[0], "count")
        for label in BUDGET_LABELS:
            out[f"budget.{label}.units"] = (self.budget_units.get(label, 0), "units")
        charged = self.budget_units.get("subset_dp_states", 0)
        out["steiner.merge_pairs"] = (self.merge_pairs, "computed_pairs")
        out["steiner.charged_per_merge_pair"] = (
            charged / self.merge_pairs if self.merge_pairs else 0.0,
            "ratio",
        )
        out["bounds.overlap_apply_edge_calls"] = (overlap_apply_calls, "count")
        out["bounds.overlap_pair_edges"] = (self.overlap_pair_edges, "count")
        out["bounds.image_cache_miss_ratio"] = (
            overlap_apply_calls / self.overlap_pair_edges if self.overlap_pair_edges else 0.0,
            "ratio",
        )
        out["trace.spans"] = (n, "count")
        out["trace.top_span_s"] = (top_ns / 1e9, "s")
        return out

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {
            "name": self.span_name,
            "parent": self.span_parent,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
        }
        meta = dict(header)
        meta.update(
            names=self.names,
            spans=len(self.span_name),
            arrays=[[k, a.typecode, a.itemsize] for k, a in arrays.items()],
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
            for a in arrays.values():
                a.tofile(fh)

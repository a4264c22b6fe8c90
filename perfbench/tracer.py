"""Span tracer for the ekrforge benchmark's traced run.

The tracer wraps the public functions of every ekrforge module (the
layers) and rebinds each wrapper in every module namespace, and every
module-level dict, that holds the original.  That matters because, for
example, ``from .covers import tau`` also binds ``tau`` in ``search``,
``classify``, ``properties``, ``generators`` and ``oracles``, and the
certificate suites are reached through the ``SUITES`` and
``PROPERTY_SUITES`` dicts.  The library itself is not modified.

Each wrapped call records one span ``[name, parent, job, start, end,
counts]`` in memory.  Spans are aggregated and written out when the run
ends.  Sub-microsecond helpers are not wrapped, and the ``ksets_colex``
generator is counted, C(n, k) items per call, without a span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import types
from math import comb
from time import perf_counter

LAYERS = ("search", "constructions", "families", "covers", "generators",
          "oracles", "certify", "properties", "classify", "familyio", "cli")

# Helpers that cost well under a microsecond per call: a span would cost
# more than the work it measures.
UNWRAPPED = {"binom", "mask_of", "elements_of", "lex_precedes"}

# Search entry points that run the branch-and-bound and return the
# SearchResult whose node count they produced.
BNB = ("search.max_intersecting", "search.max_intersecting_degcap")


def _search_result(result):
    """The SearchResult inside whatever shape a search entry point returns."""
    if isinstance(result, tuple):
        result = next((x for x in result if hasattr(x, "nodes")), None)
    return result if hasattr(result, "nodes") else None


def _count_bnb(args, kwargs, result):
    res = _search_result(result)
    return {"nodes": res.nodes, "proved": int(res.status == "proved-optimal")}


def _count_members(args, kwargs, result):
    return {"members": len(result)} if hasattr(result, "masks") else None


def _count_fix_a(args, kwargs, result):
    n, a = args[0], args[1]
    return {"subsets": 2 ** comb(n, a)}


def _count_evaluated(args, kwargs, result):
    return {"evaluated": sum(result.details.get("evaluated", {}).values())}


def _count_witnesses(args, kwargs, result):
    return {"witnesses": len(result.witnesses)}


def _count_samples(args, kwargs, result):
    return {"families": len(result)}


def _count_parsed(args, kwargs, result):
    return {"bytes": len(args[0])}


def _count_rendered(args, kwargs, result):
    return {"bytes": len(result)}


# Counts taken at the layer boundary, from return values or arguments.
COUNTERS = {
    "search.max_intersecting": _count_bnb,
    "search.max_intersecting_degcap": _count_bnb,
    "oracles.ft92_oracle": _count_fix_a,
    "oracles.hilton_corollary_oracle": _count_fix_a,
    "oracles.trace_bound_check": _count_evaluated,
    "certify.make_certificate": _count_witnesses,
    "generators.sample_saturated_tau3": _count_samples,
    "familyio.parse_family": _count_parsed,
    "familyio.render_family": _count_rendered,
}
for _name in ("build_S", "build_R", "build_K34", "build_G", "build_F_H",
              "full_star", "build_HM", "lex_family"):
    COUNTERS[f"constructions.{_name}"] = _count_members


class Tracer:
    """Wraps the library's public functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.job = ""
        self.ksets_items = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ── installation ─────────────────────────────────────────────────────

    def _modules(self):
        return [self.package] + [importlib.import_module(f"{self.package.__name__}.{layer}")
                                 for layer in LAYERS]

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result
        return wrapper

    def _count_ksets(self, fn):
        @functools.wraps(fn)
        def wrapper(n, k):
            self.ksets_items += comb(n, k) if 0 <= k <= n else 0
            return fn(n, k)
        return wrapper

    def install(self) -> int:
        """Rebind every wrapped function wherever the library holds it."""
        wrappers = {}
        modules = self._modules()
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                        or obj.__module__ != mod.__name__ or attr in UNWRAPPED):
                    continue
                if attr == "ksets_colex":
                    wrappers[id(obj)] = self._count_ksets(obj)
                else:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
        return len(wrappers)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # ── aggregation ──────────────────────────────────────────────────────

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy and self time, plus the boundary counts.

        Busy time is the union of a layer's spans: a span nested inside
        another span of its own layer adds nothing.  Self time is the time
        in which a span of the layer is the innermost open span.
        """
        spans = self.spans
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        fn_calls: dict[str, int] = {}
        fn_busy: dict[str, float] = {}
        counts: dict[str, int] = {}
        layer_of = [name.split(".", 1)[0] for name, *_rest in spans]
        above = [0] * len(spans)  # layers open above each span, as bits
        for i, (name, parent, _job, start, end, cnt) in enumerate(spans):
            layer = layer_of[i]
            dur = end - start
            outer = above[parent] if parent >= 0 else 0
            above[i] = outer | bit[layer]
            calls[layer] += 1
            if not outer & bit[layer]:
                busy[layer] += dur
            self_s[layer] += dur
            if parent >= 0:
                self_s[layer_of[parent]] -= dur
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_busy[name] = fn_busy.get(name, 0.0) + dur
            for key, val in (cnt or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + val

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_s[layer]

        def total(key):
            return sum(counts.get(f"{name}.{key}", 0) for name in COUNTERS)

        bnb_s = sum(fn_busy.get(name, 0.0) for name in BNB)
        bnb_calls = sum(fn_calls.get(name, 0) for name in BNB)
        nodes = total("nodes")
        out["search.nodes"] = nodes
        out["search.nodes_per_s"] = nodes / bnb_s if bnb_s else 0.0
        out["search.proved_ratio"] = total("proved") / bnb_calls if bnb_calls else 0.0
        for fn in ("search.canonical_form", "search.are_isomorphic",
                   "constructions.build_G", "families.is_intersecting",
                   "families.trace", "covers.tau", "covers.covers",
                   "classify.classify_T3"):
            out[f"{fn}.calls"] = fn_calls.get(fn, 0)
            out[f"{fn}.busy_s"] = fn_busy.get(fn, 0.0)
        out["constructions.members"] = total("members")
        out["families.ksets_colex.items"] = self.ksets_items
        out["covers.saturate.busy_s"] = fn_busy.get("covers.saturate", 0.0)
        sampled = fn_calls.get("generators.random_saturated_family", 0)
        out["generators.accept_ratio"] = total("families") / sampled if sampled else 0.0
        out["oracles.fix_a.subsets"] = total("subsets")
        out["oracles.trace_bound_check.calls"] = fn_calls.get("oracles.trace_bound_check", 0)
        out["oracles.trace_bound_check.evaluated"] = total("evaluated")
        out["certify.witnesses"] = total("witnesses")
        out["familyio.bytes"] = total("bytes")
        return out

    def job_counters(self) -> dict[str, dict[str, int]]:
        """Deterministic counters per job, for the determinism self-check."""
        per_job: dict[str, dict[str, int]] = {}
        for name, _parent, job, _start, _end, cnt in self.spans:
            if not cnt:
                continue
            slot = per_job.setdefault(job, {})
            for key, val in cnt.items():
                if key in ("nodes", "members", "evaluated"):
                    slot[key] = slot.get(key, 0) + val
            if name in BNB:
                slot.setdefault("bnb_nodes", []).append(cnt["nodes"])
        return per_job

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, parent, job, start, end, cnt in self.spans:
                fh.write(json.dumps([name, parent, job, start, end, cnt]) + "\n")


def span_cost(calls: int, batches: int) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    Each side is the fastest of several batches, so that the figure is
    steady where the difference of two traced and untraced passes is not.
    """
    def noop():
        return None

    def per_call(fn):
        fastest = float("inf")
        for _ in range(batches):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            fastest = min(fastest, perf_counter() - t0)
        return fastest / calls

    return per_call(Tracer(None)._wrap(noop, "trace.noop")) - per_call(noop)

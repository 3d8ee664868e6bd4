"""Per-layer tracing, installed from outside the program.

Every layer is a `proofbench` module.  `Tracer.install` wraps each public
function of the layers and rebinds the name in every `proofbench` module
that holds it, so calls between modules and calls inside one module both
pass through the wrappers.  It runs only in a traced request's child, after
the fork, so the benchmark process and untraced requests run the program
unchanged.

Every call is counted.  A call that enters a layer from another layer (or
from the CLI) opens a span: (id, parent id, name, start, end).  Time inside
the layer, less the time of spans it opens in other layers, is the layer's
self time, charged to the function through which the layer was entered.
So `sexpr.parse.self_s` covers tokenizing too, and `ordinals.compare.self_s`
covers its recursion.  Spans stay in memory and are written with the counts
when the request ends; only the first MAX_SPANS of a request are kept, while
the counts and self times cover every call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("sexpr", "formulas", "orderings", "ordinals", "derivations", "boundedness", "spector", "lab")
MAX_SPANS = 2000
_CACHED = ("orderings.rank", "ordinals.parse")  # lru caches whose hit share is reported


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # open spans: [layer, time in nested spans, id, parent id, start]
        self.spans: list[tuple] = []
        self.next_span = 1  # span 0 is the request itself
        self.distinct_codes: set = set()
        self.caches: dict = {}

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"proofbench.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(name, layer, obj))
                    if name in _CACHED:
                        self.caches[name] = (obj, obj.cache_info())
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "proofbench" and not mod_name.startswith("proofbench."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            span = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, span)
            if hook is not None:
                # hook time is charged to no layer
                started = time.perf_counter()
                hook(self, args, result)
                if self.stack:
                    self.stack[-1][1] += time.perf_counter() - started
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._iterate(name, layer, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _iterate(self, name: str, layer: str, inner):
        # a generator runs one resume at a time; each resume from another
        # layer is a span, and its items are the elements handed out
        while True:
            span = self._enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._leave(name, span)
            if span is not None:
                self.counts[f"{name}.elements"] += 1
            yield item

    def _enter(self, layer: str) -> list | None:
        if self.stack and self.stack[-1][0] == layer:
            return None
        parent = self.stack[-1][2] if self.stack else 0
        span = [layer, 0.0, self.next_span, parent, time.perf_counter()]
        self.next_span += 1
        self.stack.append(span)
        return span

    def _leave(self, name: str, span: list | None) -> None:
        if span is None:
            return
        end = time.perf_counter()
        self.stack.pop()
        duration = end - span[4]
        self.self_s[name] += duration - span[1]
        self.self_s[span[0]] += duration - span[1]
        if self.stack:
            self.stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span[2], span[3], name, span[4], end))

    # --- output -----------------------------------------------------------------------

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["derivations.step.distinct_codes"] = len(self.distinct_codes)
        for name, (cache, before) in self.caches.items():
            after = cache.cache_info()
            counts[f"{name}.hits"] = after.hits - before.hits
            counts[f"{name}.misses"] = after.misses - before.misses
        with open(path, "w") as f:
            json.dump(
                {
                    "request": self.request_id,
                    "calls": dict(self.calls),
                    "self_s": dict(self.self_s),
                    "counts": counts,
                    "spans": self.spans,
                    "spans_total": self.next_span - 1,
                },
                f,
            )


def _step(tracer: Tracer, args, _result) -> None:
    try:
        tracer.distinct_codes.add(args[0])
    except RecursionError:  # hashing a very deep code; count it as distinct
        tracer.counts["derivations.step.unhashable"] += 1


def _check_local(tracer: Tracer, _args, report) -> None:
    tracer.counts["derivations.check_local.nodes_visited"] += report.nodes_visited


def _bounded_truth(tracer: Tracer, _args, claim) -> None:
    tracer.counts["boundedness.walk_nodes"] += claim.nodes_visited
    tracer.counts["boundedness.rank_checks"] += len(claim.rank_checks)
    tracer.counts["boundedness.case4_checks"] += claim.case4_checks


def _otyp_bound(tracer: Tracer, _args, cert) -> None:
    tracer.counts["boundedness.rank_checks"] += len(cert.checks)


def _verify_domination(tracer: Tracer, _args, report) -> None:
    tracer.counts["spector.spot_checks"] += len(report.spot_checks)


def _sexpr_parse(tracer: Tracer, args, _result) -> None:
    tracer.counts["sexpr.parse.bytes"] += len(args[0])


_HOOKS = {
    "derivations.step": _step,
    "derivations.check_local": _check_local,
    "boundedness.bounded_truth": _bounded_truth,
    "boundedness.otyp_bound": _otyp_bound,
    "spector.verify_domination": _verify_domination,
    "sexpr.parse": _sexpr_parse,
}


# --- the reported per-layer metrics ------------------------------------------------------

# (metric name, unit, better).  "<layer>.self_s" is all self time in the
# layer; "<layer>.<function>.self_s" only the spans entered through that
# function.  "calls" and "self_s" come from the wrappers, the rest from hooks
# and cache statistics.
METRICS = [
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("sexpr.parse.calls", "count", "lower"),
    ("sexpr.parse.bytes", "bytes", "lower"),
    ("sexpr.parse.self_s", "s", "lower"),
    ("sexpr.dump.self_s", "s", "lower"),
    ("derivations.parse_code.self_s", "s", "lower"),
    ("derivations.code_text.self_s", "s", "lower"),
    ("derivations.expand.self_s", "s", "lower"),
    ("formulas.sequent_from_sexp.self_s", "s", "lower"),
    ("derivations.check_local.calls", "count", "lower"),
    ("derivations.check_local.self_s", "s", "lower"),
    ("derivations.check_local.nodes_visited", "count", "lower"),
    ("derivations.step.calls", "count", "lower"),
    ("derivations.step.distinct_codes", "count", "lower"),
    ("derivations.step.distinct_share", "ratio", "higher"),
    ("formulas.subst_num.calls", "count", "lower"),
    ("formulas.subst_num.self_s", "s", "lower"),
    ("formulas.negate.calls", "count", "lower"),
    ("formulas.negate.self_s", "s", "lower"),
    ("formulas.eval_closed.calls", "count", "lower"),
    ("formulas.eval_closed.self_s", "s", "lower"),
    ("boundedness.bounded_truth.self_s", "s", "lower"),
    ("boundedness.otyp_bound.self_s", "s", "lower"),
    ("boundedness.walk_nodes", "count", "lower"),
    ("boundedness.rank_checks", "count", "higher"),
    ("boundedness.case4_checks", "count", "higher"),
    ("orderings.in_field.calls", "count", "lower"),
    ("orderings.less.calls", "count", "lower"),
    ("orderings.rank.calls", "count", "lower"),
    ("orderings.element_of_rank.calls", "count", "lower"),
    ("orderings.ord_decode.calls", "count", "lower"),
    ("orderings.less.self_s", "s", "lower"),
    ("orderings.element_of_rank.self_s", "s", "lower"),
    ("orderings.iter_field.self_s", "s", "lower"),
    ("orderings.check_lo.self_s", "s", "lower"),
    ("orderings.search_descending.self_s", "s", "lower"),
    ("orderings.iter_field.elements", "count", "lower"),
    ("orderings.rank.hit_share", "ratio", "higher"),
    ("ordinals.compare.calls", "count", "lower"),
    ("ordinals.parse.calls", "count", "lower"),
    ("ordinals.add.calls", "count", "lower"),
    ("ordinals.mul.calls", "count", "lower"),
    ("ordinals.pow2.calls", "count", "lower"),
    ("ordinals.compare.self_s", "s", "lower"),
    ("ordinals.parse.hit_share", "ratio", "higher"),
    ("spector.witness.self_s", "s", "lower"),
    ("spector.verify_domination.self_s", "s", "lower"),
    ("spector.spot_checks", "count", "higher"),
    ("lab.build_precT.self_s", "s", "lower"),
    ("lab.retype.self_s", "s", "lower"),
    ("lab.reflect_check.self_s", "s", "lower"),
    ("lab.chain_check.self_s", "s", "lower"),
    ("cli.request_cpu_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


# measured by the harness from the request children, not by the wrappers
HARNESS_METRICS = ("cli.request_cpu_s", "trace.overhead_share")


def summarise(traces: list[dict], rounds: int) -> dict[str, float]:
    """Per-round values of the wrapper-measured metrics (shares over all requests)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for t in traces:
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        counts.update(t["counts"])
    out = {}
    for name, _, _ in METRICS:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[stem] / rounds
        elif field == "self_s":
            out[name] = self_s[stem] / rounds
        elif field == "hit_share":
            seen = counts[f"{stem}.hits"] + counts[f"{stem}.misses"]
            out[name] = counts[f"{stem}.hits"] / seen if seen else 0.0
        elif name == "derivations.step.distinct_share":
            steps = calls["derivations.step"]
            out[name] = counts["derivations.step.distinct_codes"] / steps if steps else 0.0
        elif name not in HARNESS_METRICS:
            out[name] = counts[name] / rounds
    return out

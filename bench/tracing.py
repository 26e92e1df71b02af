"""Per-layer tracing by wrapping budwta's public functions from outside.

`Tracer.install` replaces module and class attributes of the budwta
modules with wrappers; `uninstall` puts the originals back.  Calls made
through a name bound by ``from ... import`` bypass a wrapper, which is
why the traced run fails when a wrapper records no call on a workload
that is meant to exercise it (the last field of `TARGETS`).  A function
the program no longer has is reported as 0 and named in the details.

Three kinds of wrapper:

* span: phase-level functions.  Each call becomes a span (name, start,
  end, parent span, op id), kept in memory and written out at the end,
  and adds to the function's time, self time and call count;
* timed: frequently called functions whose time matters.  Same time,
  self-time and call accounting, but no span record per call;
* count: hot or recursive functions (calls), and generators (items
  yielded).

Self time is a call's duration minus the time of the timed or spanned
calls nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from budwta import automaton

EVAL, MIN, CONG = "eval-trees", "minimize-equiv", "congruence-oracle"

# (metric name, budwta module, attribute path, kind, workloads that must
# exercise it)
TARGETS: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("semifield.times", "semifield", "Weight.times", "count", (EVAL, MIN, CONG)),
    # bu-det evaluation never adds, so nothing is expected to call plus
    ("semifield.plus", "semifield", "Weight.plus", "count", ()),
    ("semifield.reciprocal", "semifield", "Weight.reciprocal", "count", (MIN, CONG)),
    ("terms.parse_tree", "terms", "parse_tree", "timed", (EVAL, CONG)),
    ("terms.validate_tree", "terms", "validate_tree", "count", (EVAL, MIN, CONG)),
    ("terms.count_symbol", "terms", "count_symbol", "count", (MIN, CONG)),
    ("terms.decompose_elementary", "terms", "decompose_elementary", "timed", (MIN, CONG)),
    ("terms.enumerate_trees", "terms", "enumerate_trees", "generator", (MIN, CONG)),
    ("terms.enumerate_contexts", "terms", "enumerate_contexts", "generator", (CONG,)),
    ("automaton.parse_wta", "automaton", "parse_wta", "span", (EVAL, MIN, CONG)),
    ("automaton.evaluate", "automaton", "evaluate", "span", (EVAL, MIN)),
    ("automaton.state_of", "automaton", "state_of", "timed", (EVAL, MIN, CONG)),
    ("automaton.is_bu_deterministic", "automaton", "is_bu_deterministic", "count", (EVAL, MIN, CONG)),
    ("automaton.representative_trees", "automaton", "representative_trees", "span", (MIN, CONG)),
    ("automaton.slim", "automaton", "slim", "span", (MIN, CONG)),
    ("automaton.reachable_states", "automaton", "reachable_states", "span", (MIN, CONG)),
    ("automaton.dead_states", "automaton", "dead_states", "span", (MIN, CONG)),
    ("automaton.format_wta", "automaton", "format_wta", "span", (MIN,)),
    ("automaton.context_transform", "automaton", "context_transform", "timed", (MIN, CONG)),
    ("scalar.parse_monomial", "scalar", "parse_monomial", "timed", (CONG,)),
    ("scalar.pair_independent_subset", "scalar", "pair_independent_subset", "span", (MIN,)),
    ("congruence.build_syntactic_quotient", "congruence", "build_syntactic_quotient", "span", (MIN, CONG)),
    ("congruence.BoundedContextOracle.build", "congruence", "BoundedContextOracle.__init__", "span", (CONG,)),
    ("congruence.congruent", "congruence", "congruent", "timed", (CONG,)),
    ("congruence.BoundedContextOracle.congruent", "congruence", "BoundedContextOracle.congruent", "timed", (CONG,)),
    ("congruence.class_of", "congruence", "class_of", "count", (MIN, CONG)),
    ("minimize.minimize", "minimize", "minimize", "span", (MIN,)),
    ("minimize.scalar_basis", "minimize", "scalar_basis", "span", (MIN,)),
    ("minimize.build_wta_from_basis", "minimize", "build_wta_from_basis", "span", (MIN,)),
    ("minimize.equivalent", "minimize", "equivalent", "span", (MIN,)),
    ("cli.main", "cli", "main", "span", (EVAL, MIN)),
)


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name, _, _, kind, _ in TARGETS:
        if kind in ("span", "timed"):
            out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
        elif kind == "count":
            out.append((f"{name}.calls", "count"))
        else:
            out.append((f"{name}.yielded", "count"))
    out += [("automaton.h_det_cache.entries", "count"), ("automaton.h_det_cache.hit_ratio", "ratio"),
            ("bench.trace_overhead_s", "s")]
    return out


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.stack: List[List[float]] = []  # per open timed call: [child seconds, span id]
        self.op_id = -1
        self._saved: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def install(self) -> None:
        for name, module, path, kind, _ in TARGETS:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(f"budwta.{module}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(name)  # removed from the program: reported as 0
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            make = {"span": self._timed, "timed": self._timed,
                    "count": self._counted, "generator": self._yielded}[kind]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original, kind == "span"))

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()  # a deadline may have cut an op short mid-call

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _timed(self, name, fn, record: bool):
        st, stack, spans = self.stats[name], self.stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = len(spans) if record else parent
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                st[0] += 1
                st[1] += took
                st[2] += took - frame[0]
                if record:
                    spans[span_id] = (name, start, end, parent, self.op_id)
        return wrapper

    def _counted(self, name, fn, _record):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yielded(self, name, fn, _record):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                st[0] += 1
                yield item
        return wrapper

    def silent(self, workload: str) -> List[str]:
        """Wrappers that recorded nothing on a workload meant to exercise them."""
        return [name for name, _, _, _, expect in TARGETS
                if workload in expect and self.stats[name][0] == 0 and name not in self.absent]

    def metrics(self, overhead_s: float) -> Dict[str, Dict[str, object]]:
        values: Dict[str, float] = {}
        for name, _, _, kind, _ in TARGETS:
            calls, total, own = self.stats[name]
            if kind in ("span", "timed"):
                values.update({f"{name}.s": total, f"{name}.self_s": own, f"{name}.calls": calls})
            else:
                values[f"{name}.{'calls' if kind == 'count' else 'yielded'}"] = calls
        info = _h_det_cache_info()
        values["automaton.h_det_cache.entries"] = info[0]
        values["automaton.h_det_cache.hit_ratio"] = info[1]
        values["bench.trace_overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:  # a deadline struck before the call began
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _h_det_cache_info() -> Tuple[int, float]:
    """Entries and hit ratio of the process-global h_det cache, if any."""
    cached = getattr(automaton, "_h_det_cached", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0.0
    info = cached.cache_info()
    looked_up = info.hits + info.misses
    return info.currsize, (info.hits / looked_up if looked_up else 0.0)

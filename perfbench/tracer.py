"""Spans and counts at the library's layer boundaries, installed from outside.

The library binds its helpers by name at import time (``from .model import
order_instance``), so a wrapper has to replace the name where the caller
looks it up: in ``mmsalloc.solver`` for the pipeline's helpers, in the
defining module for calls inside it, and on ``ReductionState`` for its
methods.  ``Tracer.install`` swaps every such name for a wrapper and
``Tracer.restore`` puts each original back.  A target that does not exist
at the commit under test is recorded as absent and skipped, so metrics
built only on absent targets are reported as absent, never as zero.

Spans live in memory as (layer, start, end, parent, op) and are written out
once the run ends.  A layer's self time is its spans' durations minus the
durations of their direct children; spans nest, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """One name to wrap: ``owner`` is a module path, optionally followed by
    ``:Class``.  Count-only targets add a call count but no span, so their
    time stays with the span that called them."""

    layer: str
    owner: str
    attr: str
    span: bool = True


TARGETS = (
    Target("solver", "mmsalloc", "solve_poly34"),
    Target("solver", "mmsalloc", "solve_existence"),
    Target("verify", "mmsalloc", "check_alpha_mms"),
    Target("model.order", "mmsalloc.solver", "order_instance"),
    Target("model.normalize", "mmsalloc.solver", "normalize_average"),
    Target("model.normalize", "mmsalloc.solver", "normalize_mms"),
    Target("model.lift", "mmsalloc.solver", "lift_allocation"),
    Target("reduction.init", "mmsalloc.reduction:ReductionState", "from_instance"),
    Target("reduction.fixed", "mmsalloc.solver", "reduce_fixed"),
    Target("reduction.fixed", "mmsalloc.solver", "reduce_all_shapes"),
    Target("reduction.tentative", "mmsalloc.solver", "reduce_tentative"),
    Target("reduction.undo", "mmsalloc.solver", "undo_tentative"),
    Target("reduction.apply", "mmsalloc.reduction", "apply_reduction"),
    Target("reduction.scale_row", "mmsalloc.reduction:ReductionState", "scale_row", span=False),
    Target("reduction.clone", "mmsalloc.reduction:ReductionState", "clone", span=False),
    Target("bags.scan", "mmsalloc.solver", "agents_needing_rescale"),
    Target("bags.profile", "mmsalloc.solver", "profile_agent"),
    Target("bags.profile", "mmsalloc.bags", "profile_agent"),
    Target("bags.fill", "mmsalloc.solver", "fill_bags"),
    Target("solver.bound", "mmsalloc.solver", "update_upper_bound"),
    Target("oracle", "mmsalloc.solver", "exact_mms"),
    Target("oracle", "mmsalloc.verify", "exact_mms"),
)

# Per-layer metric -> (unit, the layers it cannot be measured without).  A
# metric missing any of them is left out of the output and listed as absent.
LAYER_METRICS = {
    "model.order_s": ("s", ("model.order",)),
    "model.normalize_s": ("s", ("model.normalize",)),
    "model.lift_s": ("s", ("model.lift",)),
    "reduction.init_s": ("s", ("reduction.init",)),
    "reduction.fixed_s": ("s", ("reduction.fixed",)),
    "reduction.tentative_s": ("s", ("reduction.tentative",)),
    "reduction.undo_s": ("s", ("reduction.undo",)),
    "reduction.apply_s": ("s", ("reduction.apply",)),
    "reduction.apply_calls": ("count", ("reduction.apply",)),
    "reduction.scale_row_calls": ("count", ("reduction.scale_row",)),
    "reduction.clone_calls": ("count", ("reduction.clone",)),
    "bags.profile_s": ("s", ("bags.profile",)),
    "bags.profile_calls": ("count", ("bags.profile",)),
    "bags.fill_s": ("s", ("bags.fill",)),
    "bags.rounds": ("count", ("bags.fill",)),
    "bags.fillers_added": ("count", ("bags.fill",)),
    "solver.self_s": ("s", ("solver",)),
    "solver.update_loop_iterations": ("count", ("solver",)),
    "solver.bound_s": ("s", ("solver.bound",)),
    "oracle.calls": ("count", ("oracle",)),
    "oracle.s": ("s", ("oracle",)),
    "oracle.call_s_p50": ("s", ("oracle",)),
    "oracle.call_s_p99": ("s", ("oracle",)),
    "oracle.repeat_frac": ("ratio", ("oracle",)),
    "verify.self_s": ("s", ("verify",)),
    "verify.oracle_calls": ("count", ("verify", "oracle")),
}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Records spans and counts while installed; restores on ``restore``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.op = -1
        self.instance = -1
        self.present: set[str] = set()
        self.absent_targets: list[str] = []
        # Values read from results and arguments; a key lands in
        # ``unreadable`` when the library no longer exposes what it reads.
        self.values: Counter[str] = Counter()
        self.unreadable: set[str] = set()
        self.oracle_args: list[tuple[int, object, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            owner = _resolve(target.owner)
            raw = None if owner is None else vars(owner).get(target.attr)
            if raw is None:
                self.absent_targets.append(f"{target.owner}.{target.attr}")
                continue
            self._saved.append((owner, target.attr, raw))
            self.present.add(target.layer)
            if isinstance(raw, classmethod):
                setattr(owner, target.attr, classmethod(self._wrap(target, raw.__func__)))
            else:
                setattr(owner, target.attr, self._wrap(target, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer
        calls = self.calls
        if not target.span:

            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self.stack
        observe = self._observers.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[layer] += 1
            index = len(spans)
            span = Span(layer, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- what some layers report through their arguments or results -------

    def _observe_solver(self, args, kwargs, result) -> None:
        try:
            iterations = result[1].update_loop_iterations
        except (AttributeError, IndexError, TypeError):
            self.unreadable.add("solver.update_loop_iterations")
            return
        self.values["solver.update_loop_iterations"] += iterations

    def _observe_fill(self, args, kwargs, result) -> None:
        try:
            rounds = len(result.assignments)
            added = sum(len(row["added"]) for row in result.trace)
        except (AttributeError, KeyError, TypeError):
            self.unreadable.update(("bags.rounds", "bags.fillers_added"))
            return
        self.values["bags.rounds"] += rounds
        self.values["bags.fillers_added"] += added

    def _observe_oracle(self, args, kwargs, result) -> None:
        values = args[0] if args else kwargs.get("values")
        k = args[1] if len(args) > 1 else kwargs.get("k")
        self.oracle_args.append((self.instance, values, k))

    _observers = {
        "solver": _observe_solver,
        "bags.fill": _observe_fill,
        "oracle": _observe_oracle,
    }

    # -- results ----------------------------------------------------------

    def repeat_frac(self) -> float:
        """Share of oracle calls whose (sorted row, k) was already asked for
        the same instance.  Consecutive ops on one instance form one visit."""
        if not self.oracle_args:
            return 0.0
        repeats = 0
        seen: set = set()
        visit = None
        for instance, values, k in self.oracle_args:
            if instance != visit:
                seen, visit = set(), instance
            key = (tuple(sorted(values, reverse=True)), k)
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.oracle_args)

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names of absent metrics."""
        own = self_times(self.spans)
        self_s: defaultdict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            self_s[span.layer] += t
        oracle_s = [s.end - s.start for s in self.spans if s.layer == "oracle"]
        verify_oracle = sum(
            1
            for s in self.spans
            if s.layer == "oracle" and s.parent >= 0 and self.spans[s.parent].layer == "verify"
        )
        values = {
            "model.order_s": self_s["model.order"],
            "model.normalize_s": self_s["model.normalize"],
            "model.lift_s": self_s["model.lift"],
            "reduction.init_s": self_s["reduction.init"],
            "reduction.fixed_s": self_s["reduction.fixed"],
            "reduction.tentative_s": self_s["reduction.tentative"],
            "reduction.undo_s": self_s["reduction.undo"],
            "reduction.apply_s": self_s["reduction.apply"],
            "reduction.apply_calls": self.calls["reduction.apply"],
            "reduction.scale_row_calls": self.calls["reduction.scale_row"],
            "reduction.clone_calls": self.calls["reduction.clone"],
            "bags.profile_s": self_s["bags.profile"] + self_s["bags.scan"],
            "bags.profile_calls": self.calls["bags.profile"],
            "bags.fill_s": self_s["bags.fill"],
            "bags.rounds": self.values["bags.rounds"],
            "bags.fillers_added": self.values["bags.fillers_added"],
            "solver.self_s": self_s["solver"],
            "solver.update_loop_iterations": self.values["solver.update_loop_iterations"],
            "solver.bound_s": self_s["solver.bound"],
            "oracle.calls": self.calls["oracle"],
            "oracle.s": self_s["oracle"],
            "oracle.call_s_p50": statistics.median(oracle_s) if oracle_s else 0.0,
            "oracle.call_s_p99": nearest_rank(oracle_s, 0.99),
            "oracle.repeat_frac": self.repeat_frac(),
            "verify.self_s": self_s["verify"],
            "verify.oracle_calls": verify_oracle,
        }
        absent = [
            name
            for name, (_, layers) in LAYER_METRICS.items()
            if name in self.unreadable or not all(layer in self.present for layer in layers)
        ]
        return {k: v for k, v in values.items() if k not in absent}, absent

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, in the order they started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "layer": s.layer, "start": s.start, "end": s.end,
                         "parent": s.parent, "op": s.op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

"""Per-layer tracing from outside the package.

The tracer replaces the names one layer calls in the next with timing
wrappers, and puts the originals back afterwards. Each wrapped call becomes
a span tagged with the current operation id; a span's self time is its
duration minus the time of the wrapped calls made inside it. ``evaluate`` is
called about a million times per audit run and ``realize`` once per simulated
trial, so they keep only an aggregate count and time (still charged to their
caller's child time).

A boundary that no longer exists is skipped and reported in ``missing``;
metrics that depend on it are reported as missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer). The layer names the module whose work the
# wrapped function does, whichever module the call is made from.
SPAN_BOUNDARIES = (
    ("rideshare.cli", "parse_scenario_text", "scenario_io"),
    ("rideshare.cli", "validate_scenario", "model.validate"),
    ("rideshare.cli", "efficient_allocation", "allocation"),
    ("rideshare.cli", "commit_payments", "payments"),
    ("rideshare.cli", "groves_payments", "payments"),
    ("rideshare.cli", "audit_expost", "audit"),
    ("rideshare.cli", "run_trials", "simulate"),
    ("rideshare.cli", "render_trials_csv", "cli.render"),
    ("rideshare.payments", "efficient_allocation", "allocation"),
    ("rideshare.payments", "efficient_allocation_excluding", "allocation"),
    ("rideshare.audit", "efficient_allocation", "allocation"),
    ("rideshare.audit", "efficient_allocation_excluding", "allocation"),
    ("rideshare.audit", "deviations_for", "audit"),
    ("rideshare.allocation", "_feasible", "model.enum"),
)
AGGREGATE_BOUNDARIES = (
    ("rideshare.allocation", "evaluate", "valuation"),
    ("rideshare.payments", "evaluate", "valuation"),
    ("rideshare.simulate", "evaluate", "valuation"),
    ("rideshare.simulate", "realize", "simulate.realize"),
)


class Tracer:
    """Install with `install()`, run each operation through `run_op`, and
    always call `restore()`; totals accumulate across operations."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.op_s = 0.0
        self.ops = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._seen_keys: set[tuple] = set()
        self._op_id = None

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, layer in SPAN_BOUNDARIES + AGGREGATE_BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            if (module_name, attr, layer) in AGGREGATE_BOUNDARIES:
                wrapper = self._aggregate(original, layer)
            else:
                wrapper = self._span(original, f"{module_name}.{attr}", layer)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- recording ----------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one operation as the root span of `op_id`; its self time is
        charged to the ``cli`` layer."""
        self._op_id = op_id
        start = time.perf_counter()
        frame = [start, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_s["cli"] += (end - start) - frame[1]
            self.spans.append((op_id, "op", start, end, -1))
            self.op_s += end - start
            self.ops += 1
            self._op_id = None

    def _span(self, fn, name, layer):
        stack = self._stack
        clock = time.perf_counter
        on_result = getattr(self, "_after_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            depth = len(stack)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((self._op_id, name, frame[0], end, depth))
            self.counts[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, fn, layer):
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        self_s = self.self_s
        key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration
                counts[key] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- counters read from results -----------------------------------------

    def _after__feasible(self, args, kwargs, result) -> None:
        s = args[0]
        absent = args[1] if len(args) > 1 else kwargs.get("absent", frozenset())
        key = (
            tuple(c.has_vehicle for c in s.commuters),
            tuple(c.seat_capacity for c in s.commuters),
            s.compatibility,
            absent,
        )
        if key in self._seen_keys:
            self.counts["enum_repeats"] += 1
        else:
            self._seen_keys.add(key)
            self.counts["enum_first_allocs"] += len(result)
        self.counts["allocs_scored"] += len(result)

    def _after_deviations_for(self, args, kwargs, result) -> None:
        self.counts["deviations"] += len(result)

    def _after_audit_expost(self, args, kwargs, result) -> None:
        self.counts["excluded"] += result.excluded_deviations

    def _after_run_trials(self, args, kwargs, result) -> None:
        summary = result[1]
        self.counts["trials"] += summary.trials
        self.counts["flagged"] += summary.flagged

    # -- metrics ------------------------------------------------------------

    def metrics(self, ms_scale: float) -> dict[str, float | None]:
        """Per-operation layer metrics. Times are multiplied by `ms_scale`
        (reference ms per raw second); None marks a metric whose boundary is
        missing."""
        ops = max(self.ops, 1)
        c = self.counts

        def per_op(x):
            return x / ops

        def ms(layer):
            return self.self_s[layer] * ms_scale / ops

        audit_efficient = (c["rideshare.audit.efficient_allocation"]
                           + c["rideshare.audit.efficient_allocation_excluding"])
        efficient_calls = (audit_efficient + c["rideshare.cli.efficient_allocation"]
                           + c["rideshare.payments.efficient_allocation"]
                           + c["rideshare.payments.efficient_allocation_excluding"])
        enum_calls = c["rideshare.allocation._feasible"]
        feasible = ("allocation._feasible",)
        evaluate = ("allocation.evaluate", "payments.evaluate", "simulate.evaluate")
        audit = ("cli.audit_expost", "audit.deviations_for")
        rows = [
            ("trace.op_ms", self.op_s * ms_scale / ops, ()),
            ("model.enum_calls", per_op(enum_calls), feasible),
            ("model.enum_allocs", per_op(c["enum_first_allocs"]), feasible),
            ("model.enum_ms", ms("model.enum"), feasible),
            ("model.enum_repeat_frac",
             c["enum_repeats"] / enum_calls if enum_calls else 0.0, feasible),
            ("model.validate_ms", ms("model.validate"), ("cli.validate_scenario",)),
            ("valuation.evaluate_calls", per_op(c["valuation.calls"]), evaluate),
            ("valuation.evaluate_ms", ms("valuation"), evaluate),
            ("allocation.efficient_calls", per_op(efficient_calls), ()),
            ("allocation.allocs_scored", per_op(c["allocs_scored"]), feasible),
            ("allocation.self_ms", ms("allocation"), feasible + evaluate),
            ("audit.deviations", per_op(c["deviations"]), audit),
            ("audit.excluded", per_op(c["excluded"]), audit),
            ("audit.efficient_per_deviation",
             audit_efficient / c["deviations"] if c["deviations"] else 0.0, audit),
            ("audit.self_ms", ms("audit"), audit),
            ("payments.schedule_calls",
             per_op(c["rideshare.cli.commit_payments"] + c["rideshare.cli.groves_payments"]), ()),
            ("payments.self_ms", ms("payments"), evaluate),
            ("simulate.trials", per_op(c["trials"]), ("cli.run_trials",)),
            ("simulate.realize_ms", ms("simulate.realize"), ("simulate.realize",)),
            ("simulate.self_ms", ms("simulate"), ("cli.run_trials", "simulate.realize")),
            ("simulate.flagged", per_op(c["flagged"]), ("cli.run_trials",)),
            ("cli.render_ms", ms("cli.render"), ("cli.render_trials_csv",)),
            ("cli.self_ms", ms("cli"), ()),
            ("scenario_io.parse_ms", ms("scenario_io"), ("cli.parse_scenario_text",)),
        ]
        return {
            name: None if any(f"rideshare.{b}" in self.missing for b in needs) else value
            for name, value, needs in rows
        }

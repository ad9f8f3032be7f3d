"""In-memory spans around the package's public functions.

Each target is patched in the module namespace its callers look it up from
(``flows.run_codesign`` calls ``run`` from ``ldovco.flows``, ``optimizer.run``
calls ``step`` from ``ldovco.optimizer``, and so on), so the package itself
is not edited. A span records its name, start, end and the span that was open
when it began; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import process_time

# The clock of every operation time, step latency and span: CPU seconds of
# this process. The package runs in one thread and does no I/O, so this is
# its wall time less the time the host takes the CPU away from the VM (steal
# time), which comes in bursts on a shared host and would swamp the program's
# own changes.
clock = process_time

# (module, attribute, span name). An attribute may name a class member
# ("SizingProblem.evaluate_all").
LAYER_TARGETS = (
    ("ldovco.flows", "run_codesign", "flows.run_codesign"),
    ("ldovco.flows", "run_sequential", "flows.run_sequential"),
    ("ldovco.flows", "run", "flows.run"),
    ("ldovco.flows", "_rescore", "flows.rescore"),
    ("ldovco.flows", "evaluate", "behavior"),
    ("ldovco.flows", "worst_case", "problem.worst_case"),
    ("ldovco.flows", "repair", "space.repair"),
    ("ldovco.problem", "SizingProblem.evaluate_all", "problem.evaluate_all"),
    ("ldovco.problem", "SizingProblem.violation", "problem.violation"),
    ("ldovco.optimizer", "init_db", "optimizer.init_db"),
    ("ldovco.optimizer", "step", "optimizer.step"),
    ("ldovco.optimizer", "de_generate", "optimizer.de_generate"),
    ("ldovco.optimizer", "select_candidate", "optimizer.select_candidate"),
    ("ldovco.optimizer", "evaluate_record", "optimizer.evaluate_record"),
    ("ldovco.optimizer", "worst_case", "problem.worst_case"),
    ("ldovco.optimizer", "repair", "space.repair"),
    ("ldovco.optimizer", "sample_initial", "space.sample_initial"),
    ("ldovco.optimizer", "fit", "surrogate.fit"),
    ("ldovco.optimizer", "update", "surrogate.update"),
    ("ldovco.optimizer", "predict_conservative", "surrogate.predict_conservative"),
    ("ldovco.space", "repair", "space.repair"),
)

# Outside the traced run only the latency probe of each workload is patched.
STEP_TARGET = ("ldovco.optimizer", "step", "optimizer.step")
RECORD_TARGET = ("ldovco.optimizer", "evaluate_record", "optimizer.evaluate_record")


def _training_rows(args, kwargs, x_pos):
    x = kwargs.get("x", args[x_pos] if len(args) > x_pos else None)
    return 0 if x is None else len(x)


class Tracer:
    """Patches targets on entry and restores them on exit. Not re-entrant."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._prev_rows = 0
        self._hooks = {  # what a span reads from its call's arguments and result
            "optimizer.evaluate_record": self._on_record,
            "surrogate.fit": lambda a, k, model: self._on_refit(model, _training_rows(a, k, 0), True),
            "surrogate.update": lambda a, k, model: self._on_refit(model, _training_rows(a, k, 1), False),
        }

    def __enter__(self) -> "Tracer":
        for module, attr, name in self.targets:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
                continue
            original = getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(original, name))
            self._undo.append((owner, leaf, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    @staticmethod
    def _resolve(module: str, attr: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not hasattr(owner, leaf):
            return None, None
        return owner, leaf

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _on_record(self, args, kwargs, rec) -> None:
        if getattr(rec, "failure", None) is not None:
            self.counts["optimizer.evaluate_record.failed"] += 1

    def _on_refit(self, model, rows: int, cold: bool) -> None:
        # A fit starts a new optimizer run, so its training set counts as new.
        log = getattr(model, "train_log", {}) or {}
        self.counts["surrogate.refits"] += 1
        self.counts["surrogate.refits_grown"] += int(cold or rows > self._prev_rows)
        self.counts["surrogate.epochs"] += int(log.get("epochs_run", 0))
        self.counts["surrogate.train_rows"] += int(log.get("n_train", 0))
        self._prev_rows = rows

    def durations(self, name: str, first: int = 0, end: int | None = None) -> list[float]:
        """Durations of the spans called `name` among spans[first:end]."""
        return [e - s for n, s, e, _ in self.spans[first:end] if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def stage_seconds(self) -> list[float]:
        """Seconds in the first, second, ... optimizer run of each flow."""
        flows = {i for i, s in enumerate(self.spans) if s[0].startswith("flows.run_")}
        order: Counter = Counter()
        totals: list[float] = []
        for name, start, end, parent in self.spans:
            if name == "flows.run" and parent in flows:
                k = order[parent]
                order[parent] += 1
                totals.extend([0.0] * (k + 1 - len(totals)))
                totals[k] += end - start
        return totals

"""Benchmark of the ldovco sizing loop: end-to-end and per-layer metrics.

    python3 bench/run.py --workload codesign --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``codesign`` and ``sequential`` run the two
flows at a fixed budget on a panel of optimizer seeds drawn from --seed;
``screen`` evaluates large LHS batches through ``optimizer.init_db``. Calls
are made one at a time from this process (a closed loop, no worker pool).

With --trace 0 the workload's operations are run in passes, untraced, until
--seconds have passed (at least three passes), and the last line of standard
output holds the end-to-end metrics: each operation's time, and each step's
latency, is its median over the passes. With --trace 1 untraced and traced
passes alternate and the last line holds the per-layer metrics; the spans of
the last traced pass are written to .bench_out/ in the checkout. The line
before the last one records the host, code and run context, the checks and
the determinism digests.

Operation times, step latencies and spans are CPU seconds of this process
(see spans.clock); setup_s is the wall time of a fresh process. Exits 2,
printing no result, when the checkout has no package sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import problem_setup
from problem_setup import ROOT, SRC, MissingSources
from spans import LAYER_TARGETS, RECORD_TARGET, STEP_TARGET, Tracer
from workloads import WORKLOADS, Checked, Sizes, check, lhs_seeds, make_ops, program_seeds

SETUP_REPS = 9  # fresh set-up processes per run, split before and after the workload
# Passes per untraced run, however long one takes: a median of three drops a
# short slow spell of the host that hits one pass.
MIN_PASSES = 3
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "worst_fom_db": "dB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "behavior.calls": "count",
    "behavior.s": "s",
    "behavior.us_per_call": "us",
    "problem.evaluate_all.calls": "count",
    "problem.evaluate_all.s": "s",
    "problem.worst_case.s": "s",
    "problem.violation.calls": "count",
    "problem.violation.s": "s",
    "optimizer.init_db.s": "s",
    "optimizer.evaluate_record.calls": "count",
    "optimizer.evaluate_record.ms_per_call": "ms",
    "optimizer.evaluate_record.failed": "count",
    "surrogate.fit.calls": "count",
    "surrogate.fit.s": "s",
    "surrogate.update.calls": "count",
    "surrogate.update.s": "s",
    "surrogate.update.ms_per_call": "ms",
    "surrogate.epochs": "count",
    "surrogate.train_rows": "count",
    "surrogate.refit_useful_frac": "ratio",
    "surrogate.predict_conservative.calls": "count",
    "surrogate.predict_conservative.s": "s",
    "optimizer.select_candidate.self_s": "s",
    "optimizer.de_generate.calls": "count",
    "optimizer.de_generate.s": "s",
    "space.repair.calls": "count",
    "space.repair.s": "s",
    "space.sample_initial.s": "s",
    "optimizer.step.calls": "count",
    "optimizer.step.self_s": "s",
    "optimizer.improve_frac": "ratio",
    "flows.stage1.s": "s",
    "flows.stage2.s": "s",
    "flows.rescore.s": "s",
    "violation": "1",
    "eval_fail_frac": "ratio",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.unattributed_s": "s",
}


@dataclass
class OpRun:
    """One operation's timed call and its checked outputs."""

    seconds: float
    probe_ms: list[float]  # duration of each call of the workload's probe
    checked: Checked


def op_seconds(passes: list[list[OpRun]]) -> float:
    """Sum over the operations of each one's median time over the passes."""
    return sum(statistics.median(r.seconds for r in runs) for runs in zip(*passes))


def latencies_ms(passes: list[list[OpRun]]) -> list[float]:
    """Every probe call's duration, each the median over the passes."""
    out = []
    for runs in zip(*passes):
        out += [statistics.median(d) for d in zip(*(r.probe_ms for r in runs))]
    return out


@dataclass
class Rep:
    """One repetition: identical passes over the workload's operations, each
    checked. The outputs themselves are dropped once checked; `tracer` holds
    the spans of the last pass."""

    tracer: Tracer
    passes: list[list[OpRun]]
    wall_s: list[float]  # wall time of each pass, for the record
    errors: list[str]
    attempted: int
    failed: int  # operations that raised or failed a check

    @property
    def checked(self) -> list[Checked]:
        return [r.checked for r in self.passes[0]] if self.passes else []

    @property
    def run_s(self) -> float:
        return op_seconds(self.passes)

    @property
    def records(self) -> int:
        return sum(c.records for c in self.checked)

    def outputs(self) -> list[list[tuple]]:
        """Deterministic outputs per pass: digest, quality and failure count
        of each operation."""
        return [
            [(r.checked.digest, r.checked.objective, r.checked.violation, r.checked.eval_failures)
             for r in runs]
            for runs in self.passes
        ]

    def counts(self) -> dict:
        """Every count the trace takes; identical on every traced repetition."""
        calls = {name: entry["calls"] for name, entry in self.tracer.summary().items()}
        return {**calls, **self.tracer.counts}


def run_rep(workload: str, setup, seed: int, sizes: Sizes, targets,
            min_passes: int, seconds: float = 0.0) -> Rep:
    """Pass over the workload's operations at least `min_passes` times, and
    again while another pass fits in `seconds`. Each pass runs under its own
    wrappers and is checked once they are removed, so the checks add no
    spans and no pass holds the outputs of another."""
    ops = make_ops(workload, setup, seed, sizes)
    probe = _probe(workload)[2]
    passes, walls, errors, failed = [], [], [], 0
    t0 = perf_counter()
    while True:
        done = []
        w0 = perf_counter()
        with Tracer(targets) as tracer:
            for op in ops:
                first = len(tracer.spans)
                try:
                    out = op()
                    done.append((out, (first, len(tracer.spans))))
                except Exception as exc:  # a program error fails this operation only
                    traceback.print_exc()
                    errors.append(f"{workload}: {type(exc).__name__}: {exc}")
                    failed += 1
        walls.append(perf_counter() - w0)
        elapsed = perf_counter() - t0
        checked = []
        for out, span in done:
            try:
                c = check(setup, sizes, out)
            except Exception as exc:
                traceback.print_exc()
                errors.append(f"{out.label}: check raised {type(exc).__name__}: {exc}")
                failed += 1
                continue
            errors.extend(c.errors)
            failed += bool(c.errors)
            probe_ms = [1e3 * d for d in tracer.durations(probe, *span)]
            checked.append(OpRun(out.run_s, probe_ms, c))
        passes.append(checked)
        n = len(passes)
        # stop when one more pass would overrun the measuring time
        if n >= min_passes and elapsed * (1 + 1 / n) > seconds:
            break
    return Rep(tracer, passes, walls, errors, len(passes) * len(ops), failed)


def measure_setup(reps: int) -> list[float]:
    """Seconds from starting a fresh interpreter to a built SizingProblem."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(problem_setup.__file__).resolve())],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {proc.returncode} after {line!r}")
        times.append(elapsed)
    return times


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[94]


def _quality(workload: str, checked: list) -> tuple[float, float]:
    """(worst-case FoM, violation): the median final design of the flow
    panel, or the best design of the screen by the feasibility-first order."""
    if not checked:
        return 0.0, 0.0
    if workload != "screen":
        return (
            statistics.median(c.objective for c in checked),
            statistics.median(c.violation for c in checked),
        )
    from ldovco.problem import compare_designs

    best = checked[0]
    for c in checked[1:]:
        if compare_designs((c.objective, c.violation), (best.objective, best.violation)) > 0:
            best = c
    return best.objective, best.violation


def _fail_frac(rep: Rep) -> float:
    return sum(c.eval_failures for c in rep.checked) / max(1, rep.records)


def _probe(workload: str) -> tuple[str, str, str]:
    """The call whose latency is the workload's step: one optimizer step of a
    flow, one design's true evaluation in the screen."""
    return RECORD_TARGET if workload == "screen" else STEP_TARGET


def end_to_end(workload: str, passes: list[list[OpRun]], setup_times: list[float]) -> dict[str, float]:
    run_s = op_seconds(passes)
    p50, p95 = _percentiles(latencies_ms(passes))
    checked = [r.checked for r in passes[0]]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "evals_per_s": sum(c.records for c in checked) / run_s if run_s else 0.0,
        "step_ms_p50": p50,
        "step_ms_p95": p95,
        "worst_fom_db": _quality(workload, checked)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(workload: str, rep: Rep) -> dict[str, float]:
    t = rep.tracer
    spans = t.summary()

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def per_call(name: str, scale: float) -> float:
        calls = get(name, "calls")
        return scale * get(name, "s") / calls if calls else 0.0

    stages = t.stage_seconds() + [0.0, 0.0]
    steps = sum(c.steps for c in rep.checked)
    refits = t.counts["surrogate.refits"]
    roots = sum(end - start for _, start, end, parent in t.spans if parent < 0)
    out = {
        "behavior.calls": get("behavior", "calls"),
        "behavior.s": get("behavior", "s"),
        "behavior.us_per_call": per_call("behavior", 1e6),
        "optimizer.evaluate_record.ms_per_call": per_call("optimizer.evaluate_record", 1e3),
        "optimizer.evaluate_record.failed": t.counts["optimizer.evaluate_record.failed"],
        "surrogate.update.ms_per_call": per_call("surrogate.update", 1e3),
        "surrogate.epochs": t.counts["surrogate.epochs"],
        "surrogate.train_rows": t.counts["surrogate.train_rows"],
        "surrogate.refit_useful_frac": t.counts["surrogate.refits_grown"] / refits if refits else 0.0,
        "optimizer.improve_frac": sum(c.improved_steps for c in rep.checked) / steps if steps else 0.0,
        "flows.stage1.s": stages[0],
        "flows.stage2.s": stages[1],
        "violation": _quality(workload, rep.checked)[1],
        "eval_fail_frac": _fail_frac(rep),
        "bench.traced_run_s": rep.run_s,
        "bench.unattributed_s": rep.run_s - roots,
    }
    for name in PER_LAYER:
        if name in out or name.startswith("bench."):
            continue
        span, _, key = name.rpartition(".")
        out[name] = get(span, key)
    return out


def _consistency(rep: Rep) -> list[str]:
    """The wrappers must see exactly the evaluations the outputs record."""
    spans, errors = rep.tracer.summary(), []
    calls = spans.get("optimizer.evaluate_record", {}).get("calls", 0)
    failed = rep.tracer.counts["optimizer.evaluate_record.failed"]
    if "ldovco.optimizer.evaluate_record" not in rep.tracer.absent and (
        calls != rep.records or failed != sum(c.eval_failures for c in rep.checked)
    ):
        errors.append(
            f"trace saw {calls} evaluations ({failed} failed); outputs hold "
            f"{rep.records} ({sum(c.eval_failures for c in rep.checked)} failed)"
        )
    return errors


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _context(workload: str, seed: int, sizes: Sizes) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if workload == "screen":
        work = {
            "lhs_seeds": lhs_seeds(seed, sizes),
            "coupled_designs": sizes.screen_coupled,
            "vco_designs": sizes.screen_vco,
        }
    else:
        work = {"budget": sizes.flow_budget, "program_seeds": program_seeds(seed, sizes.panel)}
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": _src_lines(),
        "workload": workload,
        "seed": seed,
        **work,
    }


def _write_spans(workload: str, seed: int, rep: Rep) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans_{workload}_seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": rep.tracer.spans}, fh)
    return str(path.relative_to(ROOT))


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
          setup_reps: int = SETUP_REPS, min_passes: int = MIN_PASSES,
          min_rounds: int = 1) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, context line).
    Untraced, passes over the workload until `seconds` have passed, at least
    `min_passes` times; traced, makes at least `min_rounds` rounds of one
    untraced and one traced pass."""
    setup = problem_setup.build()
    setup_times = [] if trace else measure_setup(setup_reps // 2)
    probe = _probe(workload)

    traced: list[Rep] = []
    if trace:
        # untraced and traced passes alternate, so host drift touches both alike
        plain: list[Rep] = []
        t0 = perf_counter()
        while True:
            plain.append(run_rep(workload, setup, seed, sizes, [probe], 1))
            traced.append(run_rep(workload, setup, seed, sizes, LAYER_TARGETS, 1))
            n, elapsed = len(traced), perf_counter() - t0
            if n >= min_rounds and elapsed * (1 + 1 / n) > seconds:
                break
    else:
        plain = [run_rep(workload, setup, seed, sizes, [probe], min_passes, seconds)]
        setup_times += measure_setup(setup_reps - len(setup_times))
    passes = [p for r in plain for p in r.passes]

    reps = plain + traced
    errors = []  # failures found across repetitions, one failed operation each
    for r in traced:
        errors += _consistency(r)
    reference = plain[0].outputs()[0]
    for r in reps:
        errors += ["outputs differ between passes over one seed" for p in r.outputs() if p != reference]
    for r in traced[1:]:
        if r.counts() != traced[0].counts():
            errors.append("trace counts differ between traced repetitions of one seed")

    if trace:
        per_rep = [layer_metrics(workload, r) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["bench.trace_overhead_s"] = (
            statistics.median(r.run_s for r in traced) - op_seconds(passes)
        )
        units = PER_LAYER
    else:
        metrics, units = end_to_end(workload, passes, setup_times), END_TO_END
    for name, value in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
            metrics[name] = 0.0

    attempted = sum(r.attempted for r in reps)
    failed = min(attempted, sum(r.failed for r in reps) + len(errors))
    errors = [e for r in reps for e in r.errors] + errors
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    last = plain[-1]
    detail = {
        "context": _context(workload, seed, sizes),
        "passes": {"untraced": len(passes), "traced": len(traced)},
        "pass_s": [sum(r.seconds for r in p) for p in passes],
        "pass_wall_s": [w for r in plain for w in r.wall_s],
        "traced_pass_s": [r.run_s for r in traced],
        "step_samples": len(latencies_ms(passes)),
        "digests": [c.digest for c in last.checked],
        "violation": _quality(workload, last.checked)[1],
        "eval_fail_frac": _fail_frac(last),
        "nonfinite_feasible": sum(c.nonfinite_feasible for c in last.checked),
        "setup_s": setup_times,
        "absent": sorted({a for r in reps for a in r.tracer.absent}),
        "errors": errors[:20],
    }
    if traced:
        detail["spans_file"] = _write_spans(workload, seed, traced[-1])
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        problem_setup.import_package()
    except MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, detail = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"bench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

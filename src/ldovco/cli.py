"""Batch front door: problem/config loading, flow runs, standalone design
evaluation with sweep export, and the paired-flow comparison report.

Commands: init, run, eval, compare. A flag named after a run-config key
(--flow, --seed, --budget, --out, --seeds, --workers) overrides that key's
line and is read by the same rule. Exit codes: 0 success (run: feasible
final design), 1 infeasible result or evaluation error (including a final
design that fails its coupled re-score), 2 config/argument parse error, 3
evaluator setup error (a problem or constants file that cannot be loaded)."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .behavior import SWEEP_OFFSETS, EvaluationFailure, evaluate_batch, pn_sweep
from .flows import FlowResult, compare, run_codesign, run_sequential
from .iofmt import (
    _logical_lines,
    atomic_write,
    format_constants_file,
    format_problem_file,
    load_bundled_constants,
    load_bundled_problem,
    parse_constants_file,
    parse_point_file,
    parse_problem_file,
)
from .optimizer import RUN_LOG_HEADER, OptConfig
from .problem import (
    METRIC_NAMES,
    NOMINAL_CORNER,
    PerfMetrics,
    enumerate_corners,
    violation,
    worst_case,
)
from .space import DesignSpace, point_from_dict

PROBLEM_FILE = "ldovco_problem.txt"
CONSTANTS_FILE = "constants.txt"
RUNCONFIG_FILE = "runconfig.txt"

MODE_NAMES = {"ideal": "ideal_supply", "coupled": "coupled"}
CORNERS = (NOMINAL_CORNER, *enumerate_corners())


@dataclass(frozen=True)
class RunConfig:
    problem: str = PROBLEM_FILE
    constants: str = CONSTANTS_FILE
    flow: str = "co"  # co | seq
    seed: int = 1
    budget: int = 500
    init_samples: int | None = OptConfig.init_samples
    no_improve_limit: int = OptConfig.no_improve_limit
    out: str = "runs"
    seeds: tuple[int, ...] = tuple(range(1, 11))
    workers: int = 1

    def opt_config(self) -> OptConfig:
        """The budget plus every field that shares its name with OptConfig."""
        shared = {f.name for f in fields(OptConfig)} & {f.name for f in fields(self)}
        return OptConfig(eval_budget=self.budget, **{n: getattr(self, n) for n in shared})


_RUNCONFIG_COMMENTS = {
    "problem": "problem definition file (relative to this config)",
    "constants": "behavioral constants file",
    "flow": "co = joint co-design, seq = VCO-first sequential",
    "seed": "root seed; all run randomness derives from it",
    "budget": "total true evaluations per run",
    "init_samples": "initial LHS size, co-design only; auto = max(80, 4*dim) capped at"
                    " half the budget (each seq stage always uses auto on its own budget)",
    "no_improve_limit": "stop after this many non-improving iterations",
    "out": "artifact directory",
    "seeds": "seed list for the compare command",
    "workers": "parallel worker processes for compare",
}


def format_runconfig(cfg: RunConfig) -> str:
    lines = ["# run configuration (key value; '#' comments)"]
    for f in fields(RunConfig):
        comment = _RUNCONFIG_COMMENTS.get(f.name)
        text = _format_value(getattr(cfg, f.name))
        lines.append(f"{f.name} {text}" + (f"  # {comment}" if comment else ""))
    return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    """One config value as _parse_value reads it back."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return "auto" if value is None else str(value)


def _parse_value(default, raw: str):
    """One config value, typed by its field's default: a tuple is a seed
    list, None means 'auto' or an int, anything else is type(default)(raw)."""
    if isinstance(default, tuple):
        return tuple(int(s) for s in raw.replace(",", " ").split())
    if default is None:
        return None if raw == "auto" else int(raw)
    return type(default)(raw)


def parse_runconfig(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """A run config from its 'key value' lines, with raw-string overrides
    (command-line flags) merged over them before typing."""
    values = {}
    for line in _logical_lines(text):
        name, _, raw = line.partition(" ")
        if name in values:
            raise ValueError(f"duplicate config key {name!r}")
        values[name] = raw
    values.update(overrides or {})
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(values) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, raw in values.items():
        raw = raw.strip()
        if not raw:
            raise ValueError(f"config key {name!r} has no value")
        kwargs[name] = _parse_value(defaults[name], raw)
    cfg = RunConfig(**kwargs)
    if cfg.flow not in ("co", "seq"):
        raise ValueError(f"flow must be 'co' or 'seq', got {cfg.flow!r}")
    cfg.opt_config()  # optimizer settings that cannot run fail here, before any evaluation
    return cfg


def _fmt(value) -> str:
    # .10g spells out nan, inf and -inf itself
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(h, "")) for h in header))
    return "\n".join(lines) + "\n"


class _Exit(Exception):
    """A command failure: main prints the message to stderr and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(args):
    """The run config (file lines, then the flags named after its keys), its
    directory, and the problem, constraints and constants it names; without
    a config file (eval only), the default config and the bundled setup."""
    if args.config is None:
        space, constraints = load_bundled_problem()
        return RunConfig(), None, space, constraints, load_bundled_constants()
    config_path = Path(args.config)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    try:
        cfg = parse_runconfig(config_path.read_text(), overrides)
    except (OSError, ValueError) as exc:
        raise _Exit(2, f"config error: {exc}") from None
    try:
        space, constraints = parse_problem_file((config_path.parent / cfg.problem).read_text())
        tc = parse_constants_file((config_path.parent / cfg.constants).read_text())
    except (OSError, ValueError) as exc:
        raise _Exit(3, f"evaluator setup error: {exc}") from None
    return cfg, config_path.parent, space, constraints, tc


def _final_design_failed(exc: EvaluationFailure) -> _Exit:
    return _Exit(1, f"final design failed: corner {exc.corner}: {exc}")


def _run_flow(flow, *args, **kwargs):
    """A flow's result; a config the flow rejects exits 2, and a final design
    that fails its re-score (as every coupled evaluation did) exits 1."""
    try:
        return flow(*args, **kwargs)
    except ValueError as exc:
        raise _Exit(2, f"config error: {exc}") from None
    except EvaluationFailure as exc:
        raise _final_design_failed(exc) from None


def cmd_init(args) -> int:
    out = Path(args.dir)
    targets = [out / PROBLEM_FILE, out / CONSTANTS_FILE, out / RUNCONFIG_FILE]
    existing = [str(t) for t in targets if t.exists()]
    if existing and not args.force:
        raise _Exit(1, f"refusing to overwrite {', '.join(existing)} (use --force)")
    space, constraints = load_bundled_problem()
    tc = load_bundled_constants()
    atomic_write(targets[0], format_problem_file(space, constraints))
    atomic_write(targets[1], format_constants_file(tc))
    atomic_write(targets[2], format_runconfig(RunConfig()))
    for t in targets:
        print(f"wrote {t}")
    return 0


def _violation_breakdown(worst: PerfMetrics, constraints) -> list[str]:
    values = worst._asdict()
    return [f"  {c.metric} = {_fmt(values[c.metric])} violates {c.direction} {_fmt(c.bound)}"
            for c in constraints if c.shortfall(values[c.metric]) > 0]


def _design_record(space: DesignSpace, result: FlowResult, constraints) -> str:
    # design values in repr, so that evaluating the record evaluates the
    # exact design the run re-scored
    lines = ["# best design record", "", "[design]"]
    for name, value in zip(space.names, result.final_point.tolist()):
        lines.append(f"{name} {value!r}")
    lines += ["", "[result]"]
    lines.append(f"flow {result.flow}")
    lines.append(f"seed {result.seed}")
    lines.append(f"evals_used {result.evals_used}")
    lines.append(f"violation {_fmt(result.violation)}")
    for label, metrics in (("nominal", result.coupled_nominal), ("worst", result.coupled_worst)):
        lines += ["", f"[{label}]"]
        lines += [f"{name} {_fmt(value)}" for name, value in metrics._asdict().items()]
    return "\n".join(lines) + "\n"


def _stop_reasons(reasons: tuple[str, ...]) -> str:
    if len(reasons) == 1:
        return reasons[0]
    return ", ".join(f"stage {k} {reason}" for k, reason in enumerate(reasons, 1))


def _failed_evaluations(result: FlowResult) -> str:
    """N of M, then the count per (quantity, corner), most frequent first."""
    counts = sorted(result.eval_failures.items(), key=lambda item: (-item[1], item[0]))
    text = f"{sum(n for _, n in counts)} of {result.evals_used}"
    if counts:
        text += " (" + ", ".join(f"{q} at {corner}: {n}" for (q, corner), n in counts) + ")"
    return text


def cmd_run(args) -> int:
    cfg, config_dir, space, constraints, tc = _load(args)
    runner = run_codesign if cfg.flow == "co" else run_sequential
    result = _run_flow(runner, space, CORNERS, constraints, tc, cfg.opt_config(), cfg.seed)

    out_dir = config_dir / cfg.out / f"{cfg.flow}_seed{cfg.seed}"
    header = list(RUN_LOG_HEADER) + (["stage"] if cfg.flow == "seq" else [])
    atomic_write(out_dir / "run_log.csv", _csv(header, result.log_rows))
    if result.failure is not None:
        raise _final_design_failed(result.failure)
    atomic_write(out_dir / "best_design.txt", _design_record(space, result, constraints))

    summary = [
        f"flow: {result.flow}",
        f"seed: {result.seed}",
        f"true evaluations: {result.evals_used}",
        f"stop reason: {_stop_reasons(result.stop_reasons)}",
        f"failed evaluations: {_failed_evaluations(result)}",
        f"feasible: {'yes' if result.feasible else 'no'}",
        f"worst-case FoM: {_fmt(-result.coupled_worst.fom)} dBc/Hz (reported negated)",
        f"nominal FoM: {_fmt(-result.coupled_nominal.fom)} dBc/Hz",
        f"nominal Pdyn: {_fmt(result.coupled_nominal.pdyn * 1e3)} mW",
        f"violation: {_fmt(result.violation)}",
    ]
    atomic_write(out_dir / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"artifacts in {out_dir}")

    if not result.feasible:
        breakdown = _violation_breakdown(result.coupled_worst, constraints)
        raise _Exit(1, "\n".join(["final design violates:", *breakdown]))
    return 0


def cmd_eval(args) -> int:
    design_path = Path(args.design)
    try:
        values = parse_point_file(design_path.read_text())
    except (OSError, ValueError) as exc:
        raise _Exit(2, f"design file error: {exc}") from None
    _, _, space, constraints, tc = _load(args)

    try:
        point = point_from_dict(space, values)
    except KeyError as exc:  # its message, not str(KeyError)'s quoted repr
        raise _Exit(1, f"design error: {exc.args[0]}") from None
    for var, x in zip(space.variables, point.tolist()):
        # a hand-typed value need not round to its bound exactly: 3e-05
        # reads one ulp above a bound written 30u
        slack = 1e-9 * max(abs(var.lower), abs(var.upper))
        if not var.lower - slack <= x <= var.upper + slack:
            raise _Exit(1, f"design error: {var.name} = {_fmt(x)} outside"
                           f" [{_fmt(var.lower)}, {_fmt(var.upper)}]")

    try:
        table = evaluate_batch(space, [point], CORNERS, MODE_NAMES[args.mode], tc).table(0)
    except EvaluationFailure as exc:
        raise _Exit(1, f"corner {exc.corner}: {exc}") from None
    print("corner," + ",".join(METRIC_NAMES))
    per_corner = table.tolist()
    for corner, row in zip(CORNERS, per_corner):
        print(corner.label() + "," + ",".join(map(_fmt, row)))
    worst = worst_case(table)
    print("worst_case," + ",".join(map(_fmt, worst)))
    print(f"violation,{_fmt(violation(worst, constraints))}")

    if args.sweep:
        out_dir = Path(args.sweep_dir) if args.sweep_dir else design_path.parent
        try:
            ideal = pn_sweep(space, point, NOMINAL_CORNER, "ideal_supply", tc)
            coupled = pn_sweep(space, point, NOMINAL_CORNER, "coupled", tc)
        except EvaluationFailure as exc:  # the coupled sweep can fail where --mode ideal passed
            raise _Exit(1, f"sweep failed: corner {exc.corner}: {exc}") from None
        rows = []
        for f, a, b in zip(SWEEP_OFFSETS, ideal, coupled):
            rows.append({"offset_hz": float(f), "pn_ideal_dbchz": float(a),
                         "pn_coupled_dbchz": float(b)})
        atomic_write(out_dir / "pn_sweep.csv",
                     _csv(["offset_hz", "pn_ideal_dbchz", "pn_coupled_dbchz"], rows))
        corner_rows = [{"corner": corner.label(), **dict(zip(METRIC_NAMES, row))}
                       for corner, row in zip(CORNERS, per_corner)]
        atomic_write(out_dir / "pn_corners.csv",
                     _csv(["corner", "pn100k", "pn1m", "pn10m"], corner_rows))
        print(f"sweep artifacts in {out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg, config_dir, space, constraints, tc = _load(args)
    report, _ = _run_flow(compare, space, CORNERS, constraints, tc, cfg.opt_config(),
                          list(cfg.seeds), workers=cfg.workers)
    out_dir = config_dir / cfg.out / "comparison"
    atomic_write(out_dir / "comparison.csv", _csv(list(report.rows[0]), report.rows))
    summary = [
        f"seeds: {len(report.rows)}",
        f"budget per flow per seed: {cfg.budget} true evaluations",
        f"co-design win rate (feasibility-first FoM): {_fmt(report.win_rate)}",
        f"median worst-case FoM delta (co - seq): {_fmt(report.median_fom_delta)} dB",
        f"median nominal power saving of co-design: {_fmt(report.median_pdyn_delta_pct)} %",
    ]
    atomic_write(out_dir / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"artifacts in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Flags whose dest is a RunConfig key are raw-string overrides of it."""
    parser = argparse.ArgumentParser(
        prog="ldovco",
        description="Corner-aware surrogate-assisted sizing of an LDO-regulated LC VCO.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="emit the bundled problem, constants and config files")
    p_init.add_argument("dir", help="target directory")
    p_init.add_argument("--force", action="store_true", help="overwrite existing files")
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="execute one sizing flow")
    p_run.add_argument("config", help="run configuration file")
    p_run.add_argument("--flow", choices=("co", "seq"))
    p_run.add_argument("--seed")
    p_run.add_argument("--budget")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a design file over all corners")
    p_eval.add_argument("design", help="design point file (name value per line)")
    p_eval.add_argument("--mode", choices=tuple(MODE_NAMES), default="coupled")
    p_eval.add_argument("--config", help="run config naming problem/constants files")
    p_eval.add_argument("--sweep", action="store_true", help="write PN sweep CSVs")
    # not the config's out: eval writes no run artifacts
    p_eval.add_argument("--out", dest="sweep_dir", help="directory for sweep artifacts")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="paired sequential-vs-codesign comparison")
    p_cmp.add_argument("config", help="run configuration file")
    p_cmp.add_argument("--seeds", help="comma or space separated seed list")
    p_cmp.add_argument("--budget")
    p_cmp.add_argument("--workers")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

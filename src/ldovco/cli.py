"""Batch front door: problem/config loading, flow runs, standalone design
evaluation with sweep export, and the paired-flow comparison report.

Commands: init, run, eval, compare. Exit codes: 0 success (run: feasible
final design), 1 infeasible result or evaluation error, 2 config/argument
parse error, 3 evaluator setup error."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .behavior import SWEEP_OFFSETS, EvaluationFailure, evaluate_corners, pn_sweep
from .flows import FlowResult, compare, run_codesign, run_sequential
from .units import parse_si
from .iofmt import (
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

MODE_NAMES = {"ideal": "ideal_supply", "ldo": "ldo_only", "coupled": "coupled"}


@dataclass(frozen=True)
class RunConfig:
    problem: str = PROBLEM_FILE
    constants: str = CONSTANTS_FILE
    flow: str = "co"  # co | seq
    seed: int = 1
    budget: int = 500
    lambda_parents: int = OptConfig.lambda_parents
    children_per_iter: int = OptConfig.children_per_iter
    de_f: float = OptConfig.de_f
    de_cr: float = OptConfig.de_cr
    init_samples: int | None = OptConfig.init_samples
    no_improve_limit: int = OptConfig.no_improve_limit
    beta: float = OptConfig.beta
    refit_epochs: int = OptConfig.refit_epochs
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
    "init_samples": "initial LHS size; auto = max(80, 4*dim)",
    "no_improve_limit": "stop after this many non-improving iterations",
    "beta": "conservatism of the surrogate prescreen quantile",
    "refit_epochs": "surrogate training epochs per iteration (warm start)",
    "out": "artifact directory",
    "seeds": "seed list for the compare command",
    "workers": "parallel worker processes for compare",
}


def format_runconfig(cfg: RunConfig) -> str:
    lines = ["# run configuration (key value; '#' comments)"]
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "seeds":
            text = " ".join(str(s) for s in value)
        elif f.name == "init_samples":
            text = "auto" if value is None else str(value)
        else:
            text = str(value)
        comment = _RUNCONFIG_COMMENTS.get(f.name)
        lines.append(f"{f.name} {text}" + (f"  # {comment}" if comment else ""))
    return "\n".join(lines) + "\n"


def parse_runconfig(text: str) -> RunConfig:
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest:
            raise ValueError(f"config line {line!r} has no value")
        values[name] = rest
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    kwargs: dict = {}
    for f in fields(RunConfig):
        if f.name not in values:
            continue
        raw = values[f.name]
        if f.name == "seeds":
            kwargs[f.name] = tuple(int(s) for s in raw.replace(",", " ").split())
        elif f.name == "init_samples":
            kwargs[f.name] = None if raw == "auto" else int(raw)
        elif f.name in ("problem", "constants", "flow", "out"):
            kwargs[f.name] = raw
        elif f.name in ("de_f", "de_cr", "beta"):
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = int(raw)
    cfg = RunConfig(**kwargs)
    if cfg.flow not in ("co", "seq"):
        raise ValueError(f"flow must be 'co' or 'seq', got {cfg.flow!r}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.10g}"
    return str(value)


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(h, "")) for h in header))
    return "\n".join(lines) + "\n"


def _load_setup(cfg: RunConfig, config_dir: Path):
    space, constraints = parse_problem_file((config_dir / cfg.problem).read_text())
    tc = parse_constants_file((config_dir / cfg.constants).read_text())
    corners = tuple([NOMINAL_CORNER] + enumerate_corners())
    return space, constraints, tc, corners


def cmd_init(args) -> int:
    out = Path(args.dir)
    targets = [out / PROBLEM_FILE, out / CONSTANTS_FILE, out / RUNCONFIG_FILE]
    existing = [str(t) for t in targets if t.exists()]
    if existing and not args.force:
        print(f"refusing to overwrite {', '.join(existing)} (use --force)", file=sys.stderr)
        return 1
    space, constraints = load_bundled_problem()
    tc = load_bundled_constants()
    atomic_write(targets[0], format_problem_file(space, constraints))
    atomic_write(targets[1], format_constants_file(tc))
    atomic_write(targets[2], format_runconfig(RunConfig()))
    for t in targets:
        print(f"wrote {t}")
    return 0


def _violation_breakdown(worst: PerfMetrics, constraints) -> list[str]:
    out = []
    for c in constraints:
        short = c.shortfall(getattr(worst, c.metric))
        if short > 0:
            out.append(
                f"  {c.metric} = {_fmt(getattr(worst, c.metric))}"
                f" violates {c.direction} {_fmt(c.bound)}"
            )
    return out


def _design_record(space: DesignSpace, result: FlowResult, constraints) -> str:
    lines = ["# best design record", "", "[design]"]
    for name, value in zip(space.names, result.final_point):
        lines.append(f"{name} {_fmt(float(value))}")
    lines += ["", "[result]"]
    lines.append(f"flow {result.flow}")
    lines.append(f"seed {result.seed}")
    lines.append(f"evals_used {result.evals_used}")
    lines.append(f"violation {_fmt(result.violation)}")
    for label, metrics in (("nominal", result.coupled_nominal), ("worst", result.coupled_worst)):
        lines += ["", f"[{label}]"]
        for name in METRIC_NAMES:
            lines.append(f"{name} {_fmt(getattr(metrics, name))}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        cfg = parse_runconfig(config_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.flow:
        cfg = replace(cfg, flow=args.flow)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.budget is not None:
        cfg = replace(cfg, budget=args.budget)
    if args.out:
        cfg = replace(cfg, out=args.out)

    try:
        space, constraints, tc, corners = _load_setup(cfg, config_path.parent)
    except (OSError, ValueError) as exc:
        print(f"evaluator setup error: {exc}", file=sys.stderr)
        return 3

    runner = run_codesign if cfg.flow == "co" else run_sequential
    try:
        result = runner(space, corners, constraints, tc, cfg.opt_config(), cfg.seed)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = config_path.parent / cfg.out / f"{cfg.flow}_seed{cfg.seed}"
    header = list(RUN_LOG_HEADER) + (["stage"] if cfg.flow == "seq" else [])
    atomic_write(out_dir / "run_log.csv", _csv(header, result.log_rows))
    atomic_write(out_dir / "best_design.txt", _design_record(space, result, constraints))

    summary = [
        f"flow: {result.flow}",
        f"seed: {result.seed}",
        f"true evaluations: {result.evals_used}",
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
        print("final design violates:", file=sys.stderr)
        for line in _violation_breakdown(result.coupled_worst, constraints):
            print(line, file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    design_path = Path(args.design)
    try:
        values = parse_point_file(design_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"design file error: {exc}", file=sys.stderr)
        return 2

    if args.config:
        config_path = Path(args.config)
        try:
            cfg = parse_runconfig(config_path.read_text())
            space, constraints, tc, corners = _load_setup(cfg, config_path.parent)
        except (OSError, ValueError) as exc:
            print(f"evaluator setup error: {exc}", file=sys.stderr)
            return 3
    else:
        space, constraints = load_bundled_problem()
        tc = load_bundled_constants()
        corners = tuple([NOMINAL_CORNER] + enumerate_corners())

    try:
        point = point_from_dict(space, values)
    except KeyError as exc:
        print(f"design error: {exc}", file=sys.stderr)
        return 1

    mode = MODE_NAMES[args.mode]
    i_load = args.iload if mode == "ldo_only" else None

    try:
        per_corner = evaluate_corners(space, point, corners, mode, tc, i_load=i_load)
    except EvaluationFailure as exc:
        print(f"corner {exc.corner}: {exc}", file=sys.stderr)
        return 1
    print("corner," + ",".join(METRIC_NAMES))
    for corner, m in zip(corners, per_corner):
        print(corner.label() + "," + ",".join(_fmt(getattr(m, n)) for n in METRIC_NAMES))
    worst = worst_case(per_corner)
    print("worst_case," + ",".join(_fmt(getattr(worst, n)) for n in METRIC_NAMES))
    print(f"violation,{_fmt(violation(worst, constraints))}")

    if args.sweep:
        out_dir = Path(args.out) if args.out else design_path.parent
        rows = []
        ideal = pn_sweep(space, point, NOMINAL_CORNER, "ideal_supply", tc)
        coupled = pn_sweep(space, point, NOMINAL_CORNER, "coupled", tc)
        for f, a, b in zip(SWEEP_OFFSETS, ideal, coupled):
            rows.append({"offset_hz": float(f), "pn_ideal_dbchz": float(a),
                         "pn_coupled_dbchz": float(b)})
        atomic_write(out_dir / "pn_sweep.csv",
                     _csv(["offset_hz", "pn_ideal_dbchz", "pn_coupled_dbchz"], rows))
        corner_rows = []
        for corner, m in zip(corners, per_corner):
            corner_rows.append({"corner": corner.label(), "pn100k": m.pn100k,
                                "pn1m": m.pn1m, "pn10m": m.pn10m})
        atomic_write(out_dir / "pn_corners.csv",
                     _csv(["corner", "pn100k", "pn1m", "pn10m"], corner_rows))
        print(f"sweep artifacts in {out_dir}")
    return 0


COMPARE_HEADER = [
    "seed",
    "codesign_fom", "codesign_violation", "codesign_pdyn_nominal", "codesign_evals",
    "sequential_fom", "sequential_violation", "sequential_pdyn_nominal", "sequential_evals",
    "fom_delta", "pdyn_delta_pct", "codesign_win",
]


def cmd_compare(args) -> int:
    config_path = Path(args.config)
    try:
        cfg = parse_runconfig(config_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seeds:
        cfg = replace(cfg, seeds=tuple(int(s) for s in args.seeds.replace(",", " ").split()))
    if args.budget is not None:
        cfg = replace(cfg, budget=args.budget)
    if args.out:
        cfg = replace(cfg, out=args.out)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if len(cfg.seeds) < 2:
        print("compare needs at least two seeds", file=sys.stderr)
        return 2

    try:
        space, constraints, tc, corners = _load_setup(cfg, config_path.parent)
    except (OSError, ValueError) as exc:
        print(f"evaluator setup error: {exc}", file=sys.stderr)
        return 3

    report, _ = compare(
        space, corners, constraints, tc, cfg.opt_config(), list(cfg.seeds),
        workers=cfg.workers,
    )
    out_dir = config_path.parent / cfg.out / "comparison"
    atomic_write(out_dir / "comparison.csv", _csv(COMPARE_HEADER, report.rows))
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
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a design file over all corners")
    p_eval.add_argument("design", help="design point file (name value per line)")
    p_eval.add_argument("--mode", choices=tuple(MODE_NAMES), default="coupled")
    p_eval.add_argument("--config", help="run config naming problem/constants files")
    p_eval.add_argument("--iload", type=parse_si, default=2e-3,
                        help="load current for ldo mode (SI suffixes ok)")
    p_eval.add_argument("--sweep", action="store_true", help="write PN sweep CSVs")
    p_eval.add_argument("--out", help="directory for sweep artifacts")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="paired sequential-vs-codesign comparison")
    p_cmp.add_argument("config", help="run configuration file")
    p_cmp.add_argument("--seeds", help="comma or space separated seed list")
    p_cmp.add_argument("--budget", type=int)
    p_cmp.add_argument("--workers", type=int)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

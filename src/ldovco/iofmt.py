"""Line-oriented text formats: sectioned key/value files for the problem
definition, constants and design points, plus atomic writes. (Run configs
are parsed and formatted in cli.py.)

All numeric fields accept SI suffixes (f p n u m K M G); '#' starts a
comment.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .behavior import FIXED_ELEMENTS, LDO_VARIABLES, VCO_VARIABLES, TechConstants
from .problem import METRIC_NAMES, Constraint, ConstraintSet, GE, LE
from .space import CONTINUOUS, INTEGER, DesignSpace, Variable, validate_space
from .units import format_si, parse_si


def _logical_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_sections(text: str) -> dict[str, list[str]]:
    """Split a file into [section] -> list of content lines. Lines before any
    section header go under ''."""
    sections: dict[str, list[str]] = {}
    current = ""
    for line in _logical_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
        else:
            sections.setdefault(current, []).append(line)
    return sections


def parse_keyvalues(lines: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'name value', got {line!r}")
        name, value = parts
        if name in out:
            raise ValueError(f"duplicate key {name!r}")
        out[name] = parse_si(value)
    return out


def parse_problem_file(text: str) -> tuple[DesignSpace, ConstraintSet]:
    """The design space and constraints of a problem file. It must define
    every variable and fixed element the evaluator reads, each finite and no
    lower bound or fixed element negative: each is a size, count, resistance,
    capacitance or ratio (zero is allowed; R_C = 0 means no nulling
    resistor), and the feedback ratio beta_fb lies in (0, 1]. A constraint
    must bound its metric's worse side (the side Constraint.direction
    names), and a metric takes at most one."""
    sections = parse_sections(text)
    for required in ("variables", "fixed", "constraints"):
        if required not in sections:
            raise ValueError(f"problem file is missing the [{required}] section")

    variables = []
    for line in sections["variables"]:
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"expected 'name kind unit lower upper', got {line!r}")
        name, kind, unit, lower, upper = parts
        if kind not in (CONTINUOUS, INTEGER):
            raise ValueError(f"{name}: unknown variable kind {kind!r}")
        if parse_si(lower) < 0.0:
            raise ValueError(f"{name}: negative lower bound {lower}")
        variables.append(Variable(name, kind, parse_si(lower), parse_si(upper), unit))

    fixed = parse_keyvalues(sections["fixed"])
    for name, value in fixed.items():
        if value < 0.0:
            raise ValueError(f"{name}: negative fixed element {format_si(value)}")
        if not math.isfinite(value):
            raise ValueError(f"{name}: non-finite fixed element {value}")
    space = DesignSpace(tuple(variables), fixed)
    missing = [n for n in VCO_VARIABLES + LDO_VARIABLES if n not in space.names]
    missing += [n for n in FIXED_ELEMENTS if n not in space.fixed]
    if missing:
        raise ValueError(f"problem file is missing {', '.join(missing)}, read by the evaluator")
    beta_fb = space.fixed["beta_fb"]
    if not 0.0 < beta_fb <= 1.0:
        raise ValueError(f"beta_fb: divider ratio {beta_fb:g} outside (0, 1]")
    problems = validate_space(space)
    if problems:
        raise ValueError("invalid problem file: " + "; ".join(problems))

    constraints = []
    for line in sections["constraints"]:
        parts = line.split()
        if len(parts) != 3 or parts[1] not in (LE, GE):
            raise ValueError(f"expected 'metric <=|>= bound', got {line!r}")
        metric, direction, bound = parts[0], parts[1], parse_si(parts[2])
        if metric not in METRIC_NAMES:
            raise ValueError(f"constraint on unknown metric {metric!r}; expected one of"
                             f" {', '.join(METRIC_NAMES)}")
        # violation normalizes each shortfall by the bound
        if bound == 0.0 or not math.isfinite(bound):
            raise ValueError(f"constraint on {metric} needs a finite non-zero bound,"
                             f" got {parts[2]!r}")
        constraint = Constraint(metric, bound)
        if direction != constraint.direction:
            worse = "lower" if constraint.direction == GE else "higher"
            raise ValueError(f"constraint on {metric} must use {constraint.direction}"
                             f" (a {worse} {metric} is worse), got {line!r}")
        # violation would count a repeated metric's shortfall once per line
        if any(c.metric == metric for c in constraints):
            raise ValueError(f"constraint on {metric} given twice, in {line!r}")
        constraints.append(constraint)
    return space, tuple(constraints)


def format_problem_file(space: DesignSpace, constraints: ConstraintSet) -> str:
    lines = ["# Sizing problem definition: variables, fixed elements, constraints.", ""]
    lines.append("[variables]")
    for v in space.variables:
        lines.append(f"{v.name} {v.kind} {v.unit or 'count'} {format_si(v.lower)} {format_si(v.upper)}")
    lines.append("")
    lines.append("[fixed]")
    for name, value in space.fixed.items():
        lines.append(f"{name} {format_si(value)}")
    lines.append("")
    lines.append("[constraints]")
    for c in constraints:
        lines.append(f"{c.metric} {c.direction} {format_si(c.bound)}")
    return "\n".join(lines) + "\n"


def parse_point_file(text: str) -> dict[str, float]:
    """Design point values. Accepts both a flat name/value file and any
    sectioned artifact carrying a [design] section (e.g. a best-design
    record)."""
    sections = parse_sections(text)
    if "design" in sections:
        return parse_keyvalues(sections["design"])
    return parse_keyvalues(list(_logical_lines(text)))


def parse_constants_file(text: str) -> TechConstants:
    values = parse_keyvalues(list(_logical_lines(text)))
    known = {f.name for f in fields(TechConstants)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown constants: {', '.join(sorted(unknown))}")
    tc = TechConstants(**values)
    tc.validate()
    return tc


def format_constants_file(tc: TechConstants) -> str:
    lines = ["# Behavioral model constants (SI units)."]
    lines += [f"{f.name} {format_si(getattr(tc, f.name))}" for f in fields(TechConstants)]
    return "\n".join(lines) + "\n"


def atomic_write(path: Path | str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_data(name: str) -> str:
    return (resources.files("ldovco.data") / name).read_text()


def load_bundled_problem() -> tuple[DesignSpace, ConstraintSet]:
    return parse_problem_file(_read_data("ldovco_problem.txt"))


def load_bundled_constants() -> TechConstants:
    return parse_constants_file(_read_data("constants.txt"))


def load_bundled_point(which: str) -> dict[str, float]:
    if which not in ("codesign", "sedesign"):
        raise ValueError("which must be 'codesign' or 'sedesign'")
    return parse_point_file(_read_data(f"point_{which}.txt"))

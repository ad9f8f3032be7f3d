"""Line-oriented text formats: sectioned key/value files for the problem
definition, constants, design points and run configs, plus atomic writes.

All numeric fields accept SI suffixes (f p n u m K M G); '#' starts a
comment.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .behavior import TechConstants
from .problem import Constraint, ConstraintSet, GE, LE
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
        variables.append(Variable(name, kind, parse_si(lower), parse_si(upper), unit))

    space = DesignSpace(tuple(variables), parse_keyvalues(sections["fixed"]))
    problems = validate_space(space)
    if problems:
        raise ValueError("invalid problem file: " + "; ".join(problems))

    constraints = []
    for line in sections["constraints"]:
        parts = line.split()
        if len(parts) != 3 or parts[1] not in (LE, GE):
            raise ValueError(f"expected 'metric <=|>= bound', got {line!r}")
        constraints.append(Constraint(parts[0], parts[1], parse_si(parts[2])))
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

"""Build the bundled sizing problem from the package sources of this checkout.

Imported by the benchmark for its own runs. Run as a script, it builds the
coupled problem and prints ``ready``: the benchmark starts it as a fresh
process to time set-up (interpreter start, imports, bundled problem and
constants, the 33 corners) from the outside.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    """The checkout does not hold the package sources the benchmark measures."""


def import_package():
    """Import ldovco from this checkout's src/, never from an installed copy."""
    if not (SRC / "ldovco" / "__init__.py").is_file():
        raise MissingSources(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ldovco

    if Path(ldovco.__file__).resolve().parent != (SRC / "ldovco").resolve():
        raise MissingSources(f"ldovco was imported from {ldovco.__file__}, not {SRC}")
    return ldovco


@dataclass(frozen=True)
class Setup:
    space: object
    constraints: tuple
    tc: object
    corners: tuple
    coupled: object  # the 43-variable coupled SizingProblem


def build() -> Setup:
    import_package()
    from ldovco import NOMINAL_CORNER, enumerate_corners, load_bundled_constants, load_bundled_problem
    from ldovco import flows

    space, constraints = load_bundled_problem()
    tc = load_bundled_constants()
    corners = tuple([NOMINAL_CORNER] + enumerate_corners())
    return Setup(space, constraints, tc, corners, flows.coupled_problem(space, corners, constraints, tc))


if __name__ == "__main__":
    build()
    print("ready", flush=True)

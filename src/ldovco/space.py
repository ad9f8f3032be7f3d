"""Design space definition: bounded continuous/integer variables, LHS
initialization, and repair of raw vectors onto the legal grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
INTEGER = "integer"


def frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # CONTINUOUS or INTEGER
    lower: float
    upper: float
    unit: str = ""

    def is_integer(self) -> bool:
        return self.kind == INTEGER


@dataclass(frozen=True)
class DesignSpace:
    """Ordered list of variables plus the held-constant circuit elements.

    Variable order is stable: points are plain value vectors parallel to
    ``variables``.
    """

    variables: tuple[Variable, ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        vs = tuple(self.variables)
        object.__setattr__(self, "variables", vs)
        # derived once; read-only, so an in-place write by a caller fails loudly
        object.__setattr__(self, "_names", tuple(v.name for v in vs))
        object.__setattr__(self, "_lowers", frozen_array([v.lower for v in vs]))
        object.__setattr__(self, "_uppers", frozen_array([v.upper for v in vs]))
        object.__setattr__(self, "_integer_mask", frozen_array([v.is_integer() for v in vs], bool))

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def index_of(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise KeyError(f"no variable named {name!r}")

    def lowers(self) -> np.ndarray:
        return self._lowers

    def uppers(self) -> np.ndarray:
        return self._uppers

    def integer_mask(self) -> np.ndarray:
        return self._integer_mask

    def subspace(self, names: list[str]) -> "DesignSpace":
        """New space restricted to the named variables (order as given)."""
        by_name = {v.name: v for v in self.variables}
        return DesignSpace(tuple(by_name[n] for n in names), dict(self.fixed))


DesignPoint = np.ndarray  # value vector parallel to DesignSpace.variables


def validate_space(space: DesignSpace) -> list[str]:
    """Return a list of human-readable invariant violations (empty = valid)."""
    problems: list[str] = []
    seen: set[str] = set()
    for v in space.variables:
        if v.name in seen:
            problems.append(f"{v.name}: duplicate variable name")
        seen.add(v.name)
        if not v.lower < v.upper:
            problems.append(f"{v.name}: lower bound {v.lower} is not below upper {v.upper}")
        elif not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            problems.append(f"{v.name}: non-finite bounds [{v.lower}, {v.upper}]")
        if v.kind not in (CONTINUOUS, INTEGER):
            problems.append(f"{v.name}: unknown kind {v.kind!r}")
        # a non-finite bound is reported above; round() cannot take it
        if v.is_integer() and math.isfinite(v.lower) and math.isfinite(v.upper):
            if v.lower != round(v.lower) or v.upper != round(v.upper):
                problems.append(f"{v.name}: integer variable has non-integral bounds")
    return problems


def sample_initial(space: DesignSpace, n: int, seed: int) -> list[DesignPoint]:
    """Latin-hypercube sample of n points: per variable, one sample in each of
    n equal-width strata, independently permuted. Integer variables are
    snapped after sampling."""
    if n < 2:
        raise ValueError("sample_initial requires n >= 2")
    rng = np.random.default_rng(seed)
    d = space.dim
    # stratum index permutation per column + uniform jitter inside the stratum
    u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.uniform(size=(n, d))) / n
    lo, hi = space.lowers(), space.uppers()
    raw = lo + u * (hi - lo)
    return list(repair(space, raw))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def repair(space: DesignSpace, raw: np.ndarray) -> DesignPoint:
    """Clamp to bounds; round integer variables half-away-from-zero, then
    re-clamp. Idempotent. `raw` is one (dim,) vector or an (n, dim) batch,
    repaired row by row."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[-1] != space.dim:
        raise ValueError(
            f"raw vector has shape {raw.shape}, expected ({space.dim},) or (n, {space.dim})"
        )
    lo, hi = space.lowers(), space.uppers()
    x = np.clip(raw, lo, hi)
    mask = space.integer_mask()
    if mask.any():
        x = np.where(mask, np.clip(_round_half_away(x), lo, hi), x)
    return x


def point_from_dict(space: DesignSpace, values: dict[str, float]) -> DesignPoint:
    missing = [v.name for v in space.variables if v.name not in values]
    if missing:
        raise KeyError(f"design is missing variables: {', '.join(missing)}")
    unknown = [name for name in values if name not in space._names]
    if unknown:
        raise KeyError(f"design names non-variables: {', '.join(unknown)}")
    return np.array([values[v.name] for v in space.variables], dtype=float)

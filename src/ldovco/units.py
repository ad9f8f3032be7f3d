"""SI-suffixed number parsing and formatting for config and data files.

Accepted suffixes: f, p, n, u, m (sub-unit) and K, M, G (multiples).
Case matters: 'm' is milli, 'M' is mega.
"""

from __future__ import annotations

SI_SUFFIXES = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "K": 1e3,
    "M": 1e6,
    "G": 1e9,
}

# Preferred rendering order, largest first.
_FORMAT_STEPS = sorted([*SI_SUFFIXES.items(), ("", 1.0)], key=lambda step: step[1], reverse=True)


def parse_si(text: str) -> float:
    """Parse a number with an optional SI suffix, e.g. '60n' -> 6e-8."""
    s = text.strip()
    if not s:
        raise ValueError("empty numeric field")
    if s[-1] in SI_SUFFIXES:
        scale = SI_SUFFIXES[s[-1]]
        s = s[:-1].strip()
    else:
        scale = 1.0
    try:
        return float(s) * scale
    except ValueError as exc:
        raise ValueError(f"cannot parse numeric value {text!r}") from exc


def format_si(value: float) -> str:
    """Render a number with the largest SI suffix that keeps it in [1, 1000).

    Chosen so that round-tripping through parse_si is exact for the
    magnitudes used in the bundled problem files.
    """
    if value == 0.0:
        return "0"
    mag = abs(value)
    for suffix, scale in _FORMAT_STEPS:
        if mag >= scale:
            scaled = value / scale
            # %.12g keeps full double precision for our value ranges
            return f"{scaled:.12g}{suffix}"
    return f"{value:.12g}"

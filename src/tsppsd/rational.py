"""Parsing and formatting of exact rationals as "p/q" strings."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def parse_fraction(s: str | int | Fraction) -> Fraction:
    """Parse a rational from a "p/q" string (also accepts bare integers)."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_fraction(x: Fraction | int) -> str:
    """Render a rational canonically as "p/q" (denominator always present)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def clear_denominators(
    rows: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[int]], int]:
    """Integer rows N and the least positive den with rows = N / den."""
    rows = [
        [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        for row in rows
    ]
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den

"""Formatting helpers shared by the serializers and the CLI."""

from __future__ import annotations

import math


def format_float(x: float, digits: int = 6) -> str:
    """Fixed significant-digit rendering; ``%g`` spells infinities 'inf'/'-inf'."""
    return f"{x:.{digits}g}"


def json_number(x: float, digits: int = 6):
    """JSON-safe value: rounded float, or the literal string '-inf'/'inf'."""
    if math.isinf(x) or math.isnan(x):
        return format_float(x, digits)
    return float(format_float(x, digits))

"""Formatting helpers shared by the serializers and the CLI.

Every csv or json row of the CLI goes through the one pair of row
renderers, ``csv_lines`` and ``json_rows``: a row is some leading integer
key columns, printed as they are (``%d``), then float columns, rendered
``%.{digits}g`` in csv and through ``json_number`` in json.  The csv
header names the columns, and its names are the json keys.
"""

from __future__ import annotations

import math
from itertools import repeat


def format_float(x: float, digits: int = 6) -> str:
    """Fixed significant-digit rendering; ``%g`` spells infinities 'inf'/'-inf'."""
    return f"{x:.{digits}g}"


def json_number(x: float, digits: int = 6):
    """JSON-safe value: rounded float, or the literal string '-inf'/'inf'."""
    text = format_float(x, digits)
    return float(text) if math.isfinite(x) else text


def csv_lines(header: str, rows, digits: int = 6, keys: int = 1) -> list[str]:
    """``header``, then one line per row (a tuple), each from one ``%`` template call."""
    row = ",".join(["%d"] * keys + [f"%.{digits}g"] * (header.count(",") + 1 - keys))
    return [header, *map(row.__mod__, rows)]


def json_rows(header: str, rows, digits: int = 6, keys: int = 1) -> list[dict]:
    """One dict per row, keyed by the names of ``header``."""
    names = header.split(",")
    # a map over each float column is faster than converting row by row
    columns = list(zip(*rows))
    values = columns[:keys] + [map(json_number, c, repeat(digits)) for c in columns[keys:]]
    return [dict(zip(names, row)) for row in zip(*values)]

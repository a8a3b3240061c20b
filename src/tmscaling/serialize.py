"""Formatting helpers shared by the serializers and the CLI.

Every csv or json row of the CLI goes through the one pair of row
renderers, ``csv_lines`` and ``json_rows``: a row is some leading integer
key columns, printed as they are (``%d``), then float columns, rendered
``%.{digits}g`` in csv and, in json, as the float that text spells (a
non-finite value stays text, as ``json_number`` gives it).  The csv
header names the columns, and its names are the json keys.
"""

from __future__ import annotations

import math


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
    template = f"%.{digits}g".__mod__
    # one template map and ``float`` per float column: faster than row by row
    columns = list(zip(*rows))
    for i in range(keys, len(columns)):
        values = list(map(float, map(template, columns[i])))
        if not math.isfinite(sum(values)):   # a non-finite cell, or one rounding past the range
            values = [v if math.isfinite(x) else template(x) for x, v in zip(columns[i], values)]
        columns[i] = values
    return [dict(zip(names, row)) for row in zip(*columns)]

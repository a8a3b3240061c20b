"""Formatting helpers shared by the serializers and the CLI.

Every csv or json row of the CLI goes through one of two row renderers,
``text_rows`` (csv, and the ``exponent`` orbit line) and ``json_rows``:
a row is some leading integer key columns, printed as they are (``%d``),
then float columns, rendered ``%.{digits}g`` in csv and, in json, as the
float that text spells (a non-finite value stays text, as ``json_number``
gives it).  The csv header names the columns, and its names are the json keys.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: rows rendered per numpy pass, so that the slot matrix and its temporaries stay in cache
_CHUNK = 1 << 13
#: 10**j as exact doubles (from Python ints, not a SIMD power) and as uint64
_POW10 = np.array([float(10**j) for j in range(23)])
_INT_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def format_float(x: float, digits: int = 6) -> str:
    """Fixed significant-digit rendering; ``%g`` spells infinities 'inf'/'-inf'."""
    return f"{x:.{digits}g}"


def json_number(x: float, digits: int = 6):
    """JSON-safe value: rounded float, or the literal string '-inf'/'inf'."""
    text = format_float(x, digits)
    return float(text) if math.isfinite(x) else text


def csv_lines(header: str, rows, digits: int = 6, keys: int = 1) -> list[str]:
    """``header``, then one line per row (a tuple), from ``text_rows``."""
    text = text_rows(list(zip(*rows)) or [()], digits, keys)
    return [header, *text.split("\n")] if text else [header]


def text_rows(columns, digits: int = 6, keys: int = 1, sep: str = "\n") -> str:
    """The rows of ``columns`` as text: cells joined by ',', rows by ``sep``.

    Byte for byte the row template ``"%d,...,%.{digits}g" % row``, over
    ``keys`` int columns and then float columns.  numpy writes ``_CHUNK``
    rows at a time into a uint8 matrix with one slot for every byte position
    a cell can use, 0 marking an unused slot; the zeros are dropped and the
    rest decoded as ASCII.  For a finite nonzero x and P <= 15 digits, the
    digits are exact:

    - numpy's ``log10`` only estimates the decimal exponent e of |x|; exact
      comparison of y with 10**(P-1) and 10**P catches a miss.
    - y = |x| * 10**k, or |x| / 10**-k, with k = P - 1 - e and |k| <= 22: each
      10**|k| is an exact double, so y has one rounding.
    - Rounding is monotone and every half-integer below 2**52 is a double, so
      ``np.rint(y)`` gives the correctly rounded P digits unless y is a half-integer.
    - As ``log10`` only picks k, its last bit cannot move a byte, on any SIMD level.

    The row template renders a row holding 0, -0, a non-finite value, |k| > 22,
    a missed e, a half-integer y or an int that int64 cannot hold, and every row
    at 16 and 17 digits.
    """
    template = ",".join(["%d"] * keys + [f"%.{digits}g"] * (len(columns) - keys))
    return sep.join(_chunk_text([c[i:i + _CHUNK] for c in columns], template, digits, keys, sep)
                    for i in range(0, len(columns[0]), _CHUNK))


def _chunk_text(columns, template: str, digits: int, keys: int, sep: str) -> str:
    """``text_rows`` of at most ``_CHUNK`` rows."""
    fallback = np.full(len(columns[0]), digits > 15)
    try:
        ints = [] if digits > 15 else [np.asarray(c, dtype=np.int64) for c in columns[:keys]]
    except OverflowError:       # an int past int64
        fallback[:] = True
    if not fallback.all():
        floats = (np.asarray(c, dtype=float) for c in columns[keys:])
        blocks = [*map(_int_cells, ints), *(_float_cells(x, digits, fallback) for x in floats)]
    if fallback.all():
        return sep.join(map(template.__mod__, zip(*(
            c.tolist() if isinstance(c, np.ndarray) else c for c in columns))))
    comma = np.full(len(fallback), ord(","), np.uint8)
    # an int block is one array of slot rows, a float block a list of rows and arrays of them
    slots = np.vstack([rows for block in blocks for rows in (*block, comma)])
    slots[-1] = ord(sep)
    slots[:-1, fallback] = 0    # a 1 alone in the row, then replaced by the template's text
    slots[0, fallback] = 1
    text = slots.T.tobytes().translate(None, b"\0")[:-1].decode("ascii")
    if not fallback.any():
        return text
    parts = text.split("\1")
    rendered = map(template.__mod__, zip(*(np.asarray(c)[fallback].tolist() for c in columns)))
    return "".join(itertools.chain.from_iterable(zip(parts, rendered))) + parts[-1]


def _int_cells(values: np.ndarray) -> np.ndarray:
    """The ``%d`` slots of ``values``: a sign, then the digits shifted left and cut at their count."""
    size = np.abs(values).astype(np.uint64)     # |-2**63| wraps to -2**63, as uint64 2**63
    width = len(str(int(size.max())))
    count = 1 + np.searchsorted(_INT_POW10[1:width], size, side="right")
    out = np.empty((1 + width, len(values)), np.uint8)
    out[0] = (values < 0).view(np.uint8) * ord("-")
    _digits(out[1:], size * _INT_POW10[width - count], count)
    return out


def _float_cells(x: np.ndarray, digits: int, fallback: np.ndarray) -> list[np.ndarray] | None:
    """The ``%.{digits}g`` slots of ``x``; sets ``fallback`` where the template must render.

    The slots: the sign, '0.000' (for exponents -1 to -4), the digits with a
    slot for the point after each but the last, then 'e+dd' (scientific
    form).  The sign, '0.000' and 'e+dd' slots are left out when no value
    uses them.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):    # log10 of 0 and of nan
        k = (digits - 1) - np.floor(np.log10(ax))
    fallback |= ~(np.abs(k) <= 22)      # also 0, inf and nan
    if fallback.all():
        return None
    k = np.where(fallback, 0, k).astype(np.int8)
    ax[fallback] = 1.0
    scale, divided = _POW10.take(np.abs(k)), k < 0
    y = np.multiply(ax, scale, out=ax, where=~divided)
    np.divide(ax, scale, out=y, where=divided)
    mantissa = np.rint(y)
    lo, hi = _POW10[digits - 1], _POW10[digits]
    # a y outside [lo, hi) is an exponent that log10 missed, next to a power of 10
    fallback |= (y < lo) | (y >= hi) | (np.abs(y - mantissa) == 0.5)
    carry = mantissa == hi      # y rounds up to 10**digits
    mantissa[carry | fallback] = lo
    exponent = (digits - 1) - k + carry.view(np.int8)
    scientific = (exponent < -4) | (exponent >= digits)
    small = ((exponent < 0) & ~scientific).view(np.uint8)
    sign = np.signbit(x)
    cells = [sign.view(np.uint8) * ord("-")] if sign.any() else []
    if small.any():
        cells += [small * ord("0"), small * ord("."),
                  *((exponent < -j).view(np.uint8) * small * ord("0") for j in (1, 2, 3))]
    out = np.empty((2 * digits - 1, len(x)), np.uint8)
    # digits before the point: all of the integer part, or one in scientific form
    _digits(out, mantissa, np.where(scientific, 1, np.maximum(exponent + 1, 0)), True)
    cells.append(out)
    if scientific.any():
        size, shown = np.abs(exponent).view(np.uint8), scientific.view(np.uint8)
        cells += [shown * ord("e"), shown * (ord("+") + 2 * (exponent < 0).view(np.uint8)),
                  shown * (size // 10 + ord("0")), shown * (size % 10 + ord("0"))]
    return cells


def _digits(out: np.ndarray, value: np.ndarray, lead, points: bool = False) -> None:
    """Write the digits of ``value`` into ``out``, first digits first.

    ``lead`` digits come before the point; with ``points`` a slot for it
    follows each digit but the last, and the zeros that end the digits after
    it go.
    """
    cells = out[::1 + points]
    value = value.astype(np.int32 if len(cells) <= 9 else np.uint64)
    for cell in cells[::-1]:
        tens = value // 10      # numpy divides by a scalar with SIMD, but takes % slowly
        cell[:] = value - tens * 10
        value = tens
    place = np.arange(1, len(cells) + 1, dtype=np.uint8)[:, None]
    kept = np.maximum((cells.astype(bool) * place).max(axis=0), lead) if points else lead
    cells += ord("0")
    cells *= place <= kept
    if points:
        out[1::2] = ((place[:-1] == lead) & (place[:-1] < kept)).view(np.uint8) * ord(".")


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

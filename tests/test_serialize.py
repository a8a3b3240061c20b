"""``serialize.text_rows`` against Python's ``%``, cell by cell."""

import math

import numpy as np
import pytest

from tmscaling import serialize
from tmscaling.serialize import csv_lines, text_rows

DIGITS = range(1, 18)


def powers_of_ten_and_neighbours() -> list[float]:
    """+-10**j for j in -30..30, each with both of its float neighbours."""
    values = []
    for j in range(-30, 31):
        for x in (10.0 ** j, -(10.0 ** j)):
            values += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    return values


def scale_edges(digits: int) -> list[float]:
    """Values whose scale 10**k sits at |k| = 22 (the last exact power) and 23."""
    return [m * 10.0 ** (digits - 1 - k) for k in (22, 23, -22, -23) for m in (1.0, 1.5, 9.99)]


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
            2.2250738585072014e-308, 1.7976931348623157e308]


def expected(columns, digits: int, keys: int = 1, sep: str = "\n") -> str:
    template = ",".join(["%d"] * keys + [f"%.{digits}g"] * (len(columns) - keys))
    return sep.join(template % row for row in zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def assert_cells_match(columns, digits: int, keys: int = 1, sep: str = "\n"):
    got = text_rows(columns, digits, keys, sep).split(sep)
    want = expected(columns, digits, keys, sep).split(sep)
    assert len(got) == len(want)
    assert [(i, g) for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


class TestTextRows:
    @pytest.mark.parametrize("digits", DIGITS)
    def test_powers_of_ten_and_their_neighbours(self, digits):
        x = np.array(powers_of_ten_and_neighbours())
        assert_cells_match([np.arange(len(x)), x, x[::-1]], digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_scale_edges_and_special_values(self, digits):
        x = np.array(scale_edges(digits) + SPECIALS + [1.0, -2.5, 123456.0])
        assert_cells_match([np.arange(len(x)), x], digits)

    @pytest.mark.parametrize("x, digits, text", [
        (1234565.0, 6, "1.23456e+06"), (0.125, 2, "0.12"), (2.5, 1, "2"),
        (3.5, 1, "4"), (0.375, 2, "0.38")])
    def test_exact_ties_round_half_even(self, x, digits, text):
        # y is a half-integer here, so the row goes through the template
        assert text_rows([[7], [x], [-x]], digits) == f"7,{text},-{text}"

    def test_int_keys(self):
        keys = [0, 9, 10, 2**53 + 1, 2**63 - 1, -1, -(2**63)]
        assert_cells_match([keys, [0.5] * len(keys)], 6)
        assert_cells_match([np.array(keys, dtype=np.int64)], 6, sep=" ")
        assert text_rows([keys[:5], keys[:5], [1.5] * 5], 3, keys=2).split("\n")[-1] == \
            "9223372036854775807,9223372036854775807,1.5"

    def test_ints_past_int64_use_the_template(self):
        keys = [3, 2**64 + 1, -(2**70)]
        assert text_rows([keys], sep=" ") == "3 18446744073709551617 -1180591620717411303424"
        orbit = np.array(keys, dtype=object)
        assert text_rows([orbit, [1e-3, 2.0, math.inf]], 4) == expected([keys, [1e-3, 2.0, math.inf]], 4)

    def test_empty_table(self):
        assert text_rows([np.array([], np.int64), np.array([])]) == ""
        assert csv_lines("n,x", []) == ["n,x"]
        assert csv_lines("q,p,beta", [], keys=2) == ["q,p,beta"]

    @pytest.mark.parametrize("digits", [1, 6, 15, 17])
    def test_rows_across_chunk_seams(self, digits):
        rows = 3 * serialize._CHUNK + 1
        rng = np.random.default_rng(digits)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
        x[::997] = -math.inf    # template rows inside every chunk
        levels = np.arange(1, rows + 1) * 7
        assert_cells_match([levels, x, x / levels], digits)
        got = text_rows([levels, x], digits).split("\n")
        assert got[serialize._CHUNK - 1:serialize._CHUNK + 1] == [
            f"%d,%.{digits}g" % (levels[i], x[i]) for i in (serialize._CHUNK - 1, serialize._CHUNK)]

    def test_rows_that_all_need_the_template(self):
        x = np.full(serialize._CHUNK + 5, -math.inf)
        assert_cells_match([np.arange(len(x)), x, np.zeros(len(x))], 6)

    def test_csv_lines_keeps_its_shape(self):
        rows = [(1, 0.5, -math.inf), (2, 1e-5, 1e22)]
        assert csv_lines("n,a,b", rows) == ["n,a,b", "1,0.5,-inf", "2,1e-05,1e+22"]

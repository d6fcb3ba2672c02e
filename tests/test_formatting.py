"""Tests for the deterministic number/CSV/JSON formatting."""

import json
import sys

import numpy as np
import pytest

from modeconv import formatting
from modeconv.formatting import csv_text, format_float, grid_csv_text, json_text


def test_format_examples():
    assert format_float(1.0) == "1.000000000000e0"
    assert format_float(0.8) == "8.000000000000e-1"
    assert format_float(0.0) == "0.000000000000e0"
    assert format_float(-2.5) == "-2.500000000000e0"
    assert format_float(1318.723) == "1.318723000000e3"
    assert format_float(1e-15) == "1.000000000000e-15"


def test_round_trip_accuracy():
    rng = np.random.default_rng(61)
    values = np.concatenate(
        [
            rng.uniform(-10, 10, 200),
            10.0 ** rng.uniform(-12, 12, 200) * rng.choice([-1, 1], 200),
        ]
    )
    for x in values:
        back = float(format_float(float(x)))
        assert abs(back - x) <= 1e-12 * abs(x)


def test_csv_layout():
    text = csv_text("omega,eta", [(0.0, 1.0), (0.5, 0.25)])
    lines = text.split("\n")
    assert lines[0] == "omega,eta"
    assert lines[1] == "0.000000000000e0,1.000000000000e0"
    assert lines[2] == "5.000000000000e-1,2.500000000000e-1"
    assert lines[-1] == ""  # trailing newline


def test_json_text_is_valid_and_ordered():
    doc = {
        "threshold": 0.999,
        "intervals": [{"lo": -0.5, "hi": 0.5, "width": 1.0}],
        "count": 1,
        "flag": True,
        "note": None,
    }
    text = json_text(doc)
    parsed = json.loads(text)
    assert list(parsed) == ["threshold", "intervals", "count", "flag", "note"]
    assert parsed["threshold"] == 0.999
    assert parsed["count"] == 1
    assert parsed["flag"] is True
    assert parsed["note"] is None
    assert '"threshold": 9.990000000000e-1' in text


def _per_value_csv(header, table):
    """The CSV text written one format_float call per value."""
    return header + "\n" + "".join(",".join(format_float(x) for x in row) + "\n" for row in table)


def _edge_values():
    """About 20k values whose decimal exponents span -323..308, plus edge cases."""
    rng = np.random.default_rng(15)
    spread = np.ldexp(rng.uniform(0.5, 1.0, 20000), rng.integers(-1073, 1025, 20000))
    spread *= rng.choice([-1.0, 1.0], spread.size)
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
    edges += [1e5, 1e-5, 1e100, 1e-100, -1e5, -1e-100]
    # 12-decimal rounding carries these up to the next power of ten
    edges += [9.9999999999995e-1, 9.99999999999995, -9.99999999999995]
    return np.concatenate([np.array(edges), spread])


def test_exponent_rule_is_int_of_the_exponent():
    for x in _edge_values():
        mantissa, exponent = f"{x:.12e}".split("e")
        assert format_float(x) == f"{mantissa}e{int(exponent)}"
    assert format_float(9.9999999999995e-1) == "1.000000000000e0"
    assert format_float(9.99999999999995) == "1.000000000000e1"
    assert format_float(5e-324) == "4.940656458412e-324"
    assert format_float(-0.0) == "-0.000000000000e0"


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_csv_text_matches_per_value_format(columns):
    values = _edge_values()
    table = values[: len(values) // columns * columns].reshape(-1, columns)
    assert len(table) > formatting._BLOCK_ROWS
    header = ",".join(f"c{i}" for i in range(columns))
    assert csv_text(header, table) == _per_value_csv(header, table)
    # a table one row past a whole number of blocks, and one shorter than a block
    for rows in (formatting._BLOCK_ROWS + 1, 7):
        assert csv_text(header, table[:rows]) == _per_value_csv(header, table[:rows])


def test_csv_text_empty_table():
    assert csv_text("h", []) == "h\n"
    assert csv_text("h", np.empty((0, 3))) == "h\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_are_named(bad):
    message = f"non-finite value {bad!r}"
    with pytest.raises(ValueError, match=message):
        format_float(bad)
    with pytest.raises(ValueError, match=message):
        json_text({"ok": 1.0, "values": [0.5, bad]})
    table = np.ones((formatting._BLOCK_ROWS + 5, 2))
    table[-1, 1] = bad
    with pytest.raises(ValueError, match=message):
        csv_text("a,b", table)
    with pytest.raises(ValueError, match=message):
        csv_text("a,b", [(0.0, 1.0), (bad, 2.0)])


def grid_table(rows, columns, values):
    """The column-stacked (row, column, value) table of a grid, row-major."""
    return np.column_stack([np.repeat(rows, len(columns)), np.tile(columns, len(rows)), np.ravel(values)])


def test_grid_text_is_csv_text_of_the_stacked_table():
    special = [0.0, -0.0, 1e-300, 1e300, 1.0 - 2.0**-53, -2.5e-7, 3.0]
    rows = np.array(special)
    columns = np.array(special[::-1] + [1e-5, -1e5])
    values = np.random.default_rng(5).uniform(-1.0, 1.0, (len(rows), len(columns)))
    values[:, : len(special)] = special
    values[::2] = values[::2, ::-1]
    text = grid_csv_text("kappa,omega,eta", rows, columns, values)
    assert text == csv_text("kappa,omega,eta", grid_table(rows, columns, values))
    assert all(x in text for x in ("-0.000000000000e0", "1.000000000000e-300", "1.000000000000e300"))
    assert grid_csv_text("kappa,omega,eta", [], [1.0], np.zeros((0, 1))) == "kappa,omega,eta\n"


@pytest.mark.parametrize(
    "spoil",
    [
        {"values": [(2, 3, np.nan)]},
        {"columns": [(4, np.inf)], "values": [(0, 1, np.nan)]},
        {"rows": [(3, -np.inf)], "values": [(3, 0, np.nan)]},
        {"columns": [(2, -np.inf)], "values": [(1, 2, np.nan)]},
    ],
    ids=["value", "first_in_line_order", "row_before_value", "column_before_value"],
)
def test_grid_text_names_the_non_finite_value_csv_text_names(spoil):
    rows, columns = np.linspace(0.1, 5.0, 5), np.linspace(-3.0, 3.0, 6)
    values = np.full((5, 6), 0.5)
    for i, x in spoil.get("rows", []):
        rows[i] = x
    for j, x in spoil.get("columns", []):
        columns[j] = x
    for i, j, x in spoil.get("values", []):
        values[i, j] = x
    with pytest.raises(ValueError, match="^cannot format non-finite value") as grid_error:
        grid_csv_text("k,w,eta", rows, columns, values)
    with pytest.raises(ValueError) as csv_error:
        csv_text("k,w,eta", grid_table(rows, columns, values))
    assert str(grid_error.value) == str(csv_error.value)

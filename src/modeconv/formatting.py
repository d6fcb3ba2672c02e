"""Deterministic text formatting for the emitted CSV/JSON regression surface.

Every numeric value is written as lower-case scientific notation with a
12-decimal-place mantissa and a minimal exponent ("1.000000000000e0",
"8.000000000000e-1").  That is precise enough that parsing the text recovers the
computed double to better than 1e-12 relative, and stable enough that identical
runs produce byte-identical files.

There is one exponent rule, :func:`_minimal_exponents`: Python's ``%e`` always
writes a sign and at least two exponent digits, and three string replacements
turn that into ``int(exponent)``.  :func:`format_float` applies it to one value;
:func:`csv_text` formats a table in blocks of rows, each block with a single
``%`` operation and one pass of the same rule, so no Python code runs per value
and the memory held at once stays bounded by the block.  :func:`grid_csv_text`
writes the same lines for a table over a grid of two axes, formatting each
axis value once instead of once per line.  NaN and infinities have no place in
the emitted files and raise ``ValueError`` naming the value.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Rows formatted per ``%`` operation in :func:`csv_text`.
_BLOCK_ROWS = 2048


def _minimal_exponents(text: str) -> str:
    """Rewrite every ``%e`` exponent in ``text`` ("e+00", "e-05", "e+123") as int(exponent)."""
    return text.replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")


def _non_finite(x: float) -> ValueError:
    return ValueError(f"cannot format non-finite value {x!r}")


def format_float(x: float) -> str:
    """Scientific notation, 12 decimal places, no '+' or leading zeros in the exponent."""
    x = float(x)
    if not math.isfinite(x):
        raise _non_finite(x)
    return _minimal_exponents(f"{x:.12e}")


def json_text(value, indent: int = 0) -> str:
    """Render a JSON document with :func:`format_float` numbers and dict key order kept.

    Floats use the fixed-width scientific form (valid JSON number syntax);
    ints, strings, booleans and None render the standard way.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {json_text(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{json_text(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return json.dumps(value)


def csv_text(header: str, rows) -> str:
    """CSV document: a literal header line plus one formatted line per table row.

    ``rows`` is a 2-D table of floats (an array, or a sequence of equal-length
    rows); an empty table gives the header line alone.
    """
    table = np.asarray(rows, dtype=float)
    if table.size == 0:
        return header + "\n"
    line = ",".join(["%.12e"] * table.shape[1]) + "\n"
    parts = [header + "\n"]
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        finite = np.isfinite(block)
        if not finite.all():
            raise _non_finite(float(block[~finite][0]))
        parts.append(_minimal_exponents((line * len(block)) % tuple(block.ravel().tolist())))
    return "".join(parts)


def grid_csv_text(header: str, rows, columns, values) -> str:
    """:func:`csv_text` of the table with one line (row, column, value) per grid point, row-major.

    ``values`` is the (len(rows), len(columns)) grid.  The column strings make
    one line template, which each row fills with one ``%`` over its values,
    so each row and column value is formatted once; the exponent rule runs
    once per row.  A non-finite entry raises the ``ValueError`` that
    :func:`csv_text` raises for the first one in its line order.
    """
    rows, columns, values = (np.asarray(a, dtype=float) for a in (rows, columns, values))
    if values.size == 0:
        return header + "\n"
    finite = np.isfinite(values) & np.isfinite(rows)[:, None] & np.isfinite(columns)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise _non_finite(next(float(x) for x in (rows[i], columns[j], values[i, j]) if not math.isfinite(x)))
    pieces = ["," + column + ",%.12e\n" for column in ("%.12e" % x for x in columns.tolist())]
    parts = [header + "\n"]
    for row, line in zip(("%.12e" % x for x in rows.tolist()), values.tolist()):
        parts.append(_minimal_exponents((row + row.join(pieces)) % tuple(line)))
    return "".join(parts)

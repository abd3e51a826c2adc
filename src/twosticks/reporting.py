"""Deterministic CSV/JSON emission for experiment reports.

Floats are written with `repr`, the shortest string that round-trips the
exact binary value, so identical runs produce identical bytes.  CSV files
use '.' decimals and no locale; an optional leading '# config: ...' comment
embeds the generating configuration.  Every CSV cell is the text `fmt` gives
it; the writer formats a whole block of one column at a time, and each
distinct value of a column with few of them once (a float column of one bit
pattern, an int column spanning fewer values than it has cells), which
changes no byte.  JSON reports carry their full config
and an ISO-8601 timestamp (the one field excluded from the determinism
contract).  `to_jsonable` is the one serializer: report dataclasses, norms
and numpy values all pass through it.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .norms import Norm

# Rows formatted at a time by `write_csv`: the cell strings of one block are
# alive at once, not those of the whole file.
CSV_BLOCK = 1024


def fmt(value) -> str:
    """Round-trip-exact text for a scalar cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def to_jsonable(obj):
    """Recursively convert dataclasses, norms and numpy containers to plain JSON types.

    A dataclass becomes the dict of its fields, walked one level at a time
    (`dataclasses.asdict` would deep-copy every array first); a norm becomes
    its descriptor.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Norm):
        return obj.descriptor()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _format_column(column: np.ndarray) -> list:
    """`fmt` of every cell of one column, with one formatter per numpy dtype
    applied to the column's `.tolist()`; a column mixing ints and floats is
    therefore written as floats.

    A column with few distinct values formats each of them once: a float
    column whose cells share one float64 bit pattern (0.0 and -0.0 differ)
    repeats one `repr`, and an int column spanning fewer values than it has
    cells looks its cells up in a table of `str(lo..hi)`.  The text is the
    same either way.
    """
    if not len(column):
        return []
    kind = column.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    if kind in "iu":
        wide = column.astype(kind + "8", copy=False)  # 64 bits: every offset below fits
        lo, hi = int(wide.min()), int(wide.max())
        if hi - lo + 1 < len(column):
            table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
            return table[wide - wide.min()].tolist()
        return list(map(str, column.tolist()))
    if kind == "f":
        # `fmt` writes repr(float(cell)), so cells of one float64 value share a text.
        values = column.astype(np.float64, copy=False)
        bits = values.view(np.uint64)
        if (bits == bits[0]).all():
            return [repr(float(values[0]))] * len(values)
        return list(map(repr, values.tolist()))
    return list(map(fmt, column.tolist()))


def write_csv(path, header: Iterable[str], columns: Iterable,
              config: Optional[dict] = None) -> None:
    """Write one CSV row per entry of the columns (arrays or sequences of one
    length), formatted column by column, CSV_BLOCK rows at a time, and each
    block joined in one pass."""
    columns = [np.asarray(column) for column in columns]
    rows = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(to_jsonable(config), sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK):
            cells = [_format_column(column[start:start + CSV_BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, payload: dict, config: Optional[dict] = None) -> None:
    doc = to_jsonable(payload)
    if config is not None:
        doc["config"] = to_jsonable(config)
    doc.setdefault("timestamp", _dt.datetime.now(_dt.timezone.utc).isoformat())
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")

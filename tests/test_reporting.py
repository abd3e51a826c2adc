"""The one serializer: report dataclasses, norms and numpy values to plain JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosticks import PNorm, SiteSet, build_ray_family, modulus
from twosticks.reporting import CSV_BLOCK, fmt, to_jsonable, write_csv, write_json


def small_family():
    norm = PNorm(3, 2)
    rng = np.random.default_rng(3)
    sites = SiteSet(rng.uniform(-2, 2, size=(4, 2)), norm)
    return sites, build_ray_family(sites, rng.uniform(-2, 2, size=(12, 2)), 1.0)


def plain(obj) -> bool:
    """True when obj is built from JSON types only (no numpy scalars or tuples)."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and plain(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(plain(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


def test_ray_family_keeps_its_former_dict():
    _, family = small_family()
    assert len(family) >= 2 and family.skipped
    # The dict the former RayFamily.to_dict built, float for float.
    expected = {
        "length": family.length,
        "site_index": list(family.site_index),
        "sticks": [{"start": [float(v) for v in s.start], "end": [float(v) for v in s.end]}
                   for s in family.sticks],
        "skipped": [list(entry) for entry in family.skipped],
    }
    got = to_jsonable(family)
    assert got == expected
    assert plain(got)


def test_norm_becomes_its_descriptor():
    sites, _ = small_family()
    got = to_jsonable(sites)
    assert got == {"sites": sites.sites.tolist(), "norm": {"kind": "p_norm", "p": 3.0, "dim": 2}}
    assert plain(got)


def test_arrays_and_numpy_scalars_become_lists_and_floats():
    res = modulus(PNorm(3, 2), [1.0, 0.0], 0.2)
    got = to_jsonable(res)
    assert got["maximizer_y"] == [float(v) for v in res.maximizer_y]
    assert got["sigma"] == res.sigma
    assert plain(got)


def test_write_json_embeds_config_and_timestamp(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"value": np.float64(0.1), "ok": np.bool_(True)}, config={"seed": 3})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["value"] == 0.1 and doc["ok"] is True
    assert doc["config"] == {"seed": 3}
    assert isinstance(doc["timestamp"], str)


def test_csv_columns_are_written_as_fmt_writes_each_cell(tmp_path):
    rows = CSV_BLOCK + 3                     # a full block and a partial one
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    floats[:4] = [0.1, -0.0, np.inf, np.nan]
    columns = [range(rows), np.arange(rows, dtype=np.uint32), floats, floats > 0,
               [float(v) for v in floats], ["ab"[k % 2] for k in range(rows)]]
    path = tmp_path / "c.csv"
    write_csv(path, ["i", "u", "x", "pos", "y", "s"], columns, config={"seed": 1})
    expected = ['# config: {"seed": 1}', "i,u,x,pos,y,s"]
    cells = [np.asarray(c) for c in columns]
    expected += [",".join(fmt(c[k]) for c in cells) for k in range(rows)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"



def assert_written_as_fmt(path, columns):
    """write_csv of the columns gives, cell by cell, the text of `fmt`."""
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(path, header, columns)
    cells = [np.asarray(c) for c in columns]
    rows = len(cells[0]) if cells else 0
    expected = [",".join(header)] + [",".join(fmt(c[k]) for c in cells) for k in range(rows)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


U64 = np.iinfo(np.uint64).max
ROWS = CSV_BLOCK + 5


def one_negative_zero():
    column = np.zeros(ROWS)
    column[CSV_BLOCK + 2] = -0.0
    return column


def constant_in_one_block():
    column = np.linspace(-1.0, 1.0, ROWS)
    column[:CSV_BLOCK] = 0.1
    return column


EDGE_COLUMNS = {
    "float64-constant": np.full(ROWS, 0.1),
    "float32-constant": np.full(ROWS, 0.1, dtype=np.float32),
    "longdouble-constant": np.full(ROWS, 1.0 / 3.0, dtype=np.longdouble),
    "negative-zeros": np.full(ROWS, -0.0),
    "zeros-and-one-negative-zero": one_negative_zero(),
    "nan": np.full(ROWS, np.nan),
    "inf": np.full(ROWS, np.inf),
    "plus-and-minus-inf": np.where(np.arange(ROWS) % 3, np.inf, -np.inf),
    "constant-in-one-block": constant_in_one_block(),
    "int8-offsets-past-int8": (np.arange(ROWS) % 200 - 100).astype(np.int8),
    "int64-narrow-negative": np.arange(ROWS) % 7 - 3,
    "int64-narrow-at-min": np.iinfo(np.int64).min + np.arange(ROWS) % 5,
    "uint64-narrow-at-max": U64 - (np.arange(ROWS) % 3).astype(np.uint64),
    "uint64-extremes": np.where(np.arange(ROWS) % 2, U64, 0).astype(np.uint64),
    "int64-wide": np.arange(ROWS) * 10 ** 15 - 5 * 10 ** 17,
    "range": range(ROWS),
    "bool": np.arange(ROWS) % 3 == 0,
    "str": ["ab"[k % 2] for k in range(ROWS)],
}


@pytest.mark.parametrize("column", EDGE_COLUMNS.values(), ids=EDGE_COLUMNS.keys())
def test_each_column_kind_is_written_as_fmt_writes_each_cell(column, tmp_path):
    # Alone, and beside a column of another kind, over a full block and a partial one.
    assert_written_as_fmt(tmp_path / "alone.csv", [column])
    assert_written_as_fmt(tmp_path / "beside.csv", [column, np.arange(ROWS) % 2 == 0])


def test_a_write_of_no_rows_is_its_header(tmp_path):
    assert_written_as_fmt(tmp_path / "empty.csv", [np.empty(0), np.empty(0, dtype=np.int64),
                                                    np.empty(0, dtype=bool), []])


FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.longdouble]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def csv_column(kind, rows, rng, draw):
    """One column of `rows` cells of the given kind, for the writer's shortcuts."""
    if kind == "constant":
        value = draw(st.one_of(st.floats(width=64), st.sampled_from([-0.0, np.inf, -np.inf])))
        return np.full(rows, value).astype(draw(st.sampled_from(FLOAT_DTYPES)))
    if kind == "zeros-one-negative":
        column = np.zeros(rows)
        if rows:
            column[draw(st.integers(0, rows - 1))] = -0.0
        return column
    if kind == "non-finite":
        return rng.choice([np.inf, -np.inf, np.nan], size=rows)
    if kind == "constant-in-one-block":
        column = rng.standard_normal(rows)
        column[:CSV_BLOCK] = draw(st.floats(width=64))
        return column
    if kind == "floats":
        return (rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)).astype(
            draw(st.sampled_from(FLOAT_DTYPES)))
    if kind in ("narrow-int", "wide-int"):
        dtype = draw(st.sampled_from(INT_DTYPES))
        info = np.iinfo(dtype)
        if kind == "wide-int":
            column = rng.integers(info.min, info.max, size=rows, dtype=dtype, endpoint=True)
            column[:2] = [info.min, info.max][:rows]
            return column
        span = draw(st.integers(0, min(max(rows - 1, 0), int(info.max) - int(info.min))))
        lo = draw(st.integers(int(info.min), int(info.max) - span))
        return (lo + rng.integers(0, span, size=rows, endpoint=True).astype(object)).astype(dtype)
    if kind == "bool":
        return rng.random(rows) < 0.5
    return [str(v) for v in rng.choice(["a", "-0.0", "1e3", ""], size=rows)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 5, CSV_BLOCK + 5]),
       st.lists(st.sampled_from(["constant", "zeros-one-negative", "non-finite",
                                 "constant-in-one-block", "floats", "narrow-int", "wide-int",
                                 "bool", "str"]), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_write_csv_matches_fmt_cell_by_cell(tmp_path_factory, rows, kinds, seed, data):
    # Random columns of one value, of a narrow int range and of neither, of
    # every dtype: each cell's text is `fmt`'s, whichever path made it.
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # a narrow float dtype rounds large draws to inf
        columns = [csv_column(kind, rows, rng, data.draw) for kind in kinds]
    assert_written_as_fmt(tmp_path_factory.mktemp("csv") / "c.csv", columns)

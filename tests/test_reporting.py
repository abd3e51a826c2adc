"""The one serializer: report dataclasses, norms and numpy values to plain JSON."""

import json

import numpy as np

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

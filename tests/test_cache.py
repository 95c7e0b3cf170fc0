from __future__ import annotations

import json

import pytest

from polycount.cache import (
    entry_path,
    load_entry,
    resolve_cache_dir,
    save_entry,
)
from polycount.errors import ParameterError
from polycount.lattice import CountTable, LatticeSpec, count_polynomial


def test_round_trip(tmp_path):
    table = count_polynomial(LatticeSpec(3, 4, 2))
    save_entry(tmp_path, table)
    loaded = load_entry(tmp_path, 2, 3, 4)
    assert loaded is not None
    assert loaded.counts == table.counts
    assert loaded.spec == table.spec
    # a write that cannot replace its entry (here a directory) leaves no temp file
    blocked = tmp_path / "blocked"
    entry_path(blocked, 2, 3, 4).mkdir(parents=True)
    with pytest.raises(ParameterError, match="cannot write cache entry"):
        save_entry(blocked, table)
    assert [p.name for p in blocked.iterdir()] == ["k2_n3_m4.json"]


def test_schema(tmp_path):
    table = count_polynomial(LatticeSpec(2, 2, 2))
    path = save_entry(tmp_path, table)
    data = json.loads(path.read_text())
    assert data == {
        "version": 1,
        "k": 2,
        "n": 2,
        "m": 2,
        "counts": ["1", "4", "2"],
    }
    assert all(isinstance(c, str) for c in data["counts"])


def test_miss_and_partial(tmp_path):
    assert load_entry(tmp_path, 2, 5, 5) is None
    # a truncated table is not served as a full one
    partial = count_polynomial(LatticeSpec(4, 4, 2), s_max=2)
    save_entry(tmp_path, partial)
    assert load_entry(tmp_path, 2, 4, 4) is None


@pytest.mark.parametrize("counts", [
    ["1", "4"],  # wrong length
    ["1", "4", 2],  # not a string
    ["1", "4", "-2"],  # not a decimal
    ["2", "4", "2"],  # counts[0] must be 1
    ["1", "5", "2"],  # counts[1] must be the one-rod count
    ["1", "4", "3"],  # counts[2] must be the two-rod count
])
def test_corrupt_entry_is_miss(tmp_path, counts):
    path = entry_path(tmp_path, 2, 2, 2)
    path.write_text(json.dumps({"version": 1, "k": 2, "n": 2, "m": 2, "counts": counts}))
    assert load_entry(tmp_path, 2, 2, 2) is None


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"version": 1,'], ids=["not-utf8", "not-json"])
def test_an_entry_that_is_not_utf8_json_is_a_miss(tmp_path, raw):
    entry_path(tmp_path, 2, 2, 2).write_bytes(raw)
    assert load_entry(tmp_path, 2, 2, 2) is None


def test_one_rod_check_clamps_short_sides(tmp_path):
    # a 1x4 strip holds no vertical 3-rod, so a(1, 4, 3, 1) = 2
    for spec in (LatticeSpec(1, 4, 3), LatticeSpec(2, 2, 3), LatticeSpec(1, 1, 2)):
        table = count_polynomial(spec)
        save_entry(tmp_path, table)
        assert load_entry(tmp_path, spec.k, spec.n, spec.m) == table


def test_key_mismatch(tmp_path):
    table = count_polynomial(LatticeSpec(2, 3, 2))
    path = entry_path(tmp_path, 2, 9, 9)
    tmp_path.mkdir(exist_ok=True)
    path.write_text(
        json.dumps({"version": 1, "k": 2, "n": 2, "m": 3,
                    "counts": [str(c) for c in table.counts]})
    )
    with pytest.raises(ParameterError):
        load_entry(tmp_path, 2, 9, 9)


def test_dir_resolution(tmp_path, monkeypatch):
    assert resolve_cache_dir("/x/y") == __import__("pathlib").Path("/x/y")
    monkeypatch.setenv("POLYCOUNT_CACHE", str(tmp_path / "envdir"))
    assert resolve_cache_dir(None) == tmp_path / "envdir"
    monkeypatch.delenv("POLYCOUNT_CACHE")
    default = resolve_cache_dir(None)
    assert default.name == "polycount"


def test_a_table_and_its_transpose_share_one_entry(tmp_path):
    table = count_polynomial(LatticeSpec(5, 3, 2))
    path = save_entry(tmp_path, table)
    assert path == entry_path(tmp_path, 2, 3, 5) == entry_path(tmp_path, 2, 5, 3)
    assert [p.name for p in tmp_path.iterdir()] == ["k2_n3_m5.json"]
    assert json.loads(path.read_text())["n"] == 3
    for n, m in ((5, 3), (3, 5)):
        loaded = load_entry(tmp_path, 2, n, m)
        assert loaded == CountTable(spec=LatticeSpec(n, m, 2), counts=table.counts)


def test_an_entry_under_a_transposed_name_is_a_miss(tmp_path):
    # the name an n > m entry had when every ordered pair had its own file
    table = count_polynomial(LatticeSpec(5, 3, 2))
    (tmp_path / "k2_n5_m3.json").write_text(json.dumps(
        {"version": 1, "k": 2, "n": 5, "m": 3, "counts": [str(c) for c in table.counts]}))
    assert load_entry(tmp_path, 2, 5, 3) is None
    assert load_entry(tmp_path, 2, 3, 5) is None


def test_a_transposed_key_in_the_canonical_file_is_a_mismatch(tmp_path):
    table = count_polynomial(LatticeSpec(5, 3, 2))
    entry_path(tmp_path, 2, 3, 5).write_text(json.dumps(
        {"version": 1, "k": 2, "n": 5, "m": 3, "counts": [str(c) for c in table.counts]}))
    with pytest.raises(ParameterError):
        load_entry(tmp_path, 2, 5, 3)

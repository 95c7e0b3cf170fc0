from __future__ import annotations

import json
import random

import pytest

from polycount.cli import main
from polycount.lattice import LatticeSpec, count_configurations


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYCOUNT_CACHE", str(tmp_path / "cache"))
    yield


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_single(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--m", "3", "--k", "2", "--s", "1")
    assert code == 0 and out.strip() == "7"


def test_count_all(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--m", "2", "--k", "2", "--all-s")
    assert code == 0 and out.strip() == "1 4 2"


def test_count_brute_method(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--m", "2", "--k", "2",
                           "--s", "2", "--method", "brute")
    assert code == 0 and out.strip() == "2"


def test_count_json_uses_strings(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--m", "3", "--k", "2", "--all-s",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"][0] == "1"
    assert all(isinstance(c, str) for c in data["counts"])


def test_count_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "0", "--m", "3", "--k", "2", "--s", "1")
    assert code == 2 and "error" in err


def test_count_missing_s(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "2", "--m", "3", "--k", "2")
    assert code == 2


def test_count_s_and_all_s_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3", "--m", "3", "--k", "2", "--s", "1", "--all-s"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_resource_cap_exit(capsys):
    argv = ["--state-cap", "16", "count", "--n", "9", "--m", "9", "--k", "2"]
    code, out, _ = run_cli(capsys, *argv, "--s", "1")
    assert code == 0 and out.strip() == "144"  # one rod keeps the live frontier at 10
    code, _, err = run_cli(capsys, *argv, "--all-s")
    assert code == 3 and "resource" in err.lower() and "exceeds cap 16" in err


def test_wide_lattice_cap_exit(capsys):
    # the live frontier is known before the sweep, so these stop at once
    for argv in (["--n", "30", "--m", "30", "--all-s"], ["--n", "40", "--m", "40", "--s", "12"]):
        code, out, err = run_cli(capsys, "count", "--k", "2", *argv)
        assert code == 3 and out == "" and "live frontier" in err


def test_nonpositive_state_cap_is_usage_error(capsys):
    for cap in ("0", "-5"):
        code, out, err = run_cli(capsys, "--state-cap", cap, "count",
                                 "--n", "2", "--m", "2", "--k", "2", "--s", "1")
        assert code == 2 and out == "" and "state cap" in err


@pytest.mark.parametrize("argv", [
    ["--k", "1", "--n-max", "0", "--m-max", "3"],
    ["--k", "1", "--n-max", "2", "--m-max", "3"],
    ["--k", "2", "--n-max", "2", "--m-max", "0"],
    ["--k", "2", "--n-max", "-1", "--m-max", "2"],
])
def test_table_rejects_empty_ranges(capsys, tmp_path, argv):
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "table", *argv, "--cache-dir", str(cache_dir))
    assert code == 2 and out == "" and "error" in err
    assert not cache_dir.exists()


def test_verify_diagonal(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagonal", "--k", "2", "--s", "1",
                           "--n", "3..8")
    assert code == 0
    assert "0 failed" in out


def test_verify_strip(capsys):
    code, out, _ = run_cli(capsys, "verify", "strip", "--k", "2", "--n", "2..4",
                           "--s", "1..2", "--m", "4..9")
    assert code == 0


def test_verify_requires_ranges(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "diagonal", "--k", "2", "--s", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_weights(capsys):
    code, out, _ = run_cli(capsys, "verify", "weights", "--s", "4", "--lambda", "2",
                           "--eta", "-1", "--anchor-n", "30")
    assert code == 0
    assert "26880" in out


def test_verify_quadrants(capsys):
    code, out, _ = run_cli(capsys, "verify", "quadrants", "--s", "1..2")
    assert code == 0


def test_verify_identities_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--filter", "appendix-d/*")
    assert code == 0
    assert "appendix-d/rising-binomial-antidifference" in out


def test_verify_unsafe_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagonal", "--k", "2", "--s", "2",
                           "--n", "5..6", "--unsafe-range")
    assert code == 0
    assert "in_range=False" in out


def test_verify_unsafe_range_reports_info(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagonal", "--k", "2", "--s", "2",
                           "--n", "5", "--m", "6", "--unsafe-range")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("info diagonal") and "expected=48 actual=46" in lines[0]
    assert lines[-1] == "# 0 passed, 0 failed, 0 skipped, 1 info"


def test_report_determinism(capsys):
    argv = ["verify", "diagonal", "--k", "2", "--s", "1", "--n", "3..6",
            "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time"), d2.pop("wall_time")
    assert d1 == d2


def test_extend(capsys):
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "1",
                           "--anchor-n", "6", "--anchor-m", "6", "--steps", "3")
    assert code == 0
    assert [line.split(" = ")[1] for line in out.strip().splitlines()] == ["84", "112", "144"]


def test_extend_crosscheck_reach(capsys):
    # direct enumeration checks widths up to 24, whose 2**24 profiles fit the cap
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "1", "--anchor-n", "20",
                           "--anchor-m", "20", "--steps", "8", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["crosschecked_steps"] == [1, 2, 3, 4]
    assert data["extended"][-1] == str(2 * 28 * 27)


def test_extend_range_violation(capsys):
    code, _, err = run_cli(capsys, "extend", "--k", "2", "--s", "1",
                           "--anchor-n", "3", "--anchor-m", "3", "--steps", "1")
    assert code == 2


def test_extend_no_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "10",
                           "--anchor-m", "10", "--steps", "2", "--no-crosscheck",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["extended"] == ["23492", "33992"]
    assert data["residuals"] == [0, 0]


def test_extend_seeded_from_cache(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "seeded"
    assert main(["table", "--k", "2", "--n-max", "6", "--m-max", "7",
                 "--cache-dir", str(cache_dir), "--out", str(tmp_path / "t.csv")]) == 0
    argv = ["extend", "--k", "2", "--s", "1", "--anchor-n", "6", "--anchor-m", "7",
            "--steps", "4", "--no-crosscheck", "--format", "json", "--cache-dir"]
    _, empty, _ = run_cli(capsys, *argv, str(tmp_path / "empty"))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("seed should come from the cache")

    monkeypatch.setattr("polycount.cli.count_configurations", no_enumeration)
    code, cached, _ = run_cli(capsys, *argv, str(cache_dir))
    assert code == 0
    assert json.loads(cached) == json.loads(empty)
    assert json.loads(cached)["extended"] == ["97", "127", "161", "199"]


@pytest.mark.parametrize("payload", [
    [1],
    {"version": 1, "k": 2, "n": 5, "m": 5, "counts": ["x"]},
    {"version": 1},
])
def test_extend_treats_corrupt_cache_entry_as_miss(capsys, tmp_path, payload):
    from polycount.cache import entry_path

    cache_dir = tmp_path / "corrupt"
    cache_dir.mkdir()
    entry_path(cache_dir, 2, 5, 5).write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "1", "--anchor-n", "6",
                           "--anchor-m", "6", "--steps", "3", "--cache-dir", str(cache_dir))
    assert code == 0
    assert [line.split(" = ")[1] for line in out.strip().splitlines()] == ["84", "112", "144"]


def test_table_cache_dir_is_a_file(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, _, err = run_cli(capsys, "table", "--k", "2", "--n-max", "2", "--m-max", "2",
                           "--cache-dir", str(not_a_dir))
    assert code == 2 and "cache" in err


def test_table_out_into_missing_dir(capsys, tmp_path):
    out_path = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, "table", "--k", "2", "--n-max", "2", "--m-max", "2",
                           "--cache-dir", str(tmp_path / "cache"), "--out", str(out_path))
    assert code == 2 and "--out" in err
    assert not out_path.exists()


def test_table_csv_and_idempotence(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    argv = ["table", "--k", "2", "--n-max", "4", "--m-max", "4",
            "--format", "csv", "--out", str(out_path)]
    assert main(list(argv)) == 0
    first = out_path.read_bytes()
    assert main(list(argv)) == 0
    assert out_path.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "n,m,s,count"
    assert "2,2,1,4" in lines
    capsys.readouterr()


def test_table_json_schema(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    assert main(["table", "--k", "3", "--n-max", "3", "--m-max", "3",
                 "--format", "json", "--out", str(out_path)]) == 0
    entries = json.loads(out_path.read_text())
    by_key = {(e["n"], e["m"]): e for e in entries}
    assert by_key[(3, 3)]["counts"][1] == "6"
    assert all(e["version"] == 1 for e in entries)
    capsys.readouterr()


def test_failing_report_exit_code(capsys):
    import argparse
    import time

    from polycount.cli import EXIT_CHECK_FAILED, _emit_report
    from polycount.reports import Report

    report = Report(title="synthetic")
    report.record("bad", {"s": 1}, 1, 2)
    args = argparse.Namespace(format="text")
    code = _emit_report(report, args, "verify synthetic", time.time())
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out and "expected=1" in out


def test_cache_coherence(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "coherence"
    monkeypatch.setenv("POLYCOUNT_CACHE", str(cache_dir))
    assert main(["table", "--k", "2", "--n-max", "5", "--m-max", "5",
                 "--format", "csv", "--out", str(tmp_path / "t.csv")]) == 0
    capsys.readouterr()
    from polycount.cache import load_entry

    rng = random.Random(20250809)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        table = load_entry(cache_dir, 2, n, m)
        assert table is not None
        spec = LatticeSpec(n, m, 2)
        s = rng.randint(0, spec.capacity)
        assert table.count(s) == count_configurations(spec, s)

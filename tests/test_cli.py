from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polycount import hseq
from polycount.cli import main
from polycount.lattice import LatticeSpec, count_configurations, count_polynomial

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    # the brute-force oracle counts one s at a time, so it has no --all-s
    code, out, err = run_cli(capsys, "count", "--n", "3", "--m", "3", "--k", "2",
                             "--all-s", "--method", "brute")
    assert code == 2 and out == "" and "--method brute" in err


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


@pytest.mark.parametrize("target", ["weights", "quadrants"])
def test_a_failed_integrality_check_exits_1(capsys, monkeypatch, target):
    monkeypatch.setattr(hseq, "_h_frac", lambda s, i, j: Fraction(1, 2))
    code, out, err = run_cli(capsys, "verify", target, "--s", "2")
    assert code == 1 and out == ""
    assert err == "check failed: h(2,0,1) is not an integer: 1/2\n"


@pytest.mark.parametrize("flag,value", [("--lambda", "1/0"), ("--eta", "3/0"), ("--eta", "x")])
def test_bad_fraction_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "weights", "--s", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err and "Traceback" not in err


#: sha256 of the --format json output, wall_time line removed: the proof
#: checkers' reports are fixed byte for byte
GOLDEN_JSON = {
    ("quadrants", "--s", "1..7"):
        "e1b759cca1f2ed8c5eb65bbc764f28b4371268c48424aaf0d8065e7634f21884",
    ("weights", "--s", "1..7"):
        "f276b02dcf01428537b7768c8e17599058b3587894c84651794e3b4a8f0ffe69",
    ("identities",):
        "04a108a237ea7c98b5b7449056a12222bd14fd7715844f94197d5cc2b4b087c4",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON), ids="_".join)
def test_proof_checker_json_is_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if '"wall_time"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN_JSON[argv]


def test_verify_quadrants(capsys):
    code, out, _ = run_cli(capsys, "verify", "quadrants", "--s", "1..2")
    assert code == 0


def test_verify_identities_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--filter", "appendix-d/*")
    assert code == 0
    assert "appendix-d/rising-binomial-antidifference" in out


def test_verify_identities_filter_matching_nothing_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "identities", "--filter", "appendx-d/*")
    assert code == 2 and out == "" and "'appendx-d/*'" in err


@pytest.mark.parametrize("argv", [
    ["strip", "--k", "2", "--n", "2..8", "--s", "1..3", "--m", "6..14"],
    ["diagonal", "--k", "2", "--s", "1..2", "--n", "6..14"],
    ["corollary", "--k", "3", "--s", "1..2", "--n", "9..12", "--m", "10..13"],
    ["diagonal", "--k", "2", "--s", "1..2", "--n", "5..8", "--unsafe-range"],
], ids=["strip", "diagonal", "corollary", "diagonal-unsafe"])
def test_window_command_makes_one_count_tables_call(capsys, monkeypatch, argv):
    from polycount import cli, recurrences
    from polycount.reports import Report

    calls = []

    def counted(real):
        return lambda *a, **kw: calls.append(a) or real(*a, **kw)

    monkeypatch.setattr(cli, "count_tables", counted(cli.count_tables))
    monkeypatch.setattr(recurrences, "count_tables", counted(recurrences.count_tables))
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    doc.pop("wall_time")

    # the same command as the merge of one front-door call per (n, s) or per s
    args = cli.build_parser().parse_args(["verify", *argv])
    if args.target == "strip":
        title = "strip recurrence"
        parts = [cli.verify_strip(args.k, n, sv, args.m) for n in args.n for sv in args.s]
    else:
        title, verify = {"diagonal": ("diagonal recurrence", cli.verify_diagonal),
                         "corollary": ("diagonal corollary",
                                       cli.verify_diagonal_corollary)}[args.target]
        points = [(n, m) for n in args.n for m in (args.m or args.n)]
        parts = [verify(args.k, sv, points, enforce_range=not args.unsafe_range)
                 for sv in args.s]
    merged = Report(title=title).merge(*parts).to_dict()
    assert {key: doc[key] for key in merged} == merged
    assert set(doc) == set(merged) | {"command", "params"}


def test_verify_window_ranges_checked_before_the_sweep(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("every window must be validated before the sweep")

    monkeypatch.setattr("polycount.cli.count_tables", no_sweep)
    monkeypatch.setattr("polycount.recurrences.count_tables", no_sweep)
    # s = 1 is in range at n = 5; s = 2 is not, and must fail before any count
    code, out, err = run_cli(capsys, "verify", "diagonal", "--k", "2", "--s", "1..2",
                             "--n", "5..7")
    assert code == 2 and out == "" and "got (5,5)" in err


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


def test_verify_strip_unsafe_range_reports_info(capsys):
    argv = ["verify", "strip", "--k", "2", "--n", "2..6", "--s", "1..3", "--m", "4..12",
            "--format", "json"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "strip window asserted only for n >= 2, m >= 6; got (2,4)" in err
    code, out, _ = run_cli(capsys, *argv, "--unsafe-range")
    assert code == 0
    checks = json.loads(out)["checks"]
    below = [c for c in checks if c["params"]["m"] < 2 * c["params"]["s"]]
    assert len(below) == 10 and all(c["status"] == "info" for c in below)
    assert all(c["status"] == "pass" for c in checks if c not in below)


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
    # every step is checked against the quadrant polynomial, however wide the lattice
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "1", "--anchor-n", "20",
                           "--anchor-m", "20", "--steps", "8", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["crosschecked_steps"] == list(range(1, 9))
    assert data["extended"][-1] == str(2 * 28 * 27)


def test_extend_crosschecks_every_step_to_212(capsys, monkeypatch):
    argv = ["extend", "--k", "2", "--s", "2", "--anchor-n", "12", "--anchor-m", "12",
            "--steps", "200", "--format", "json"]
    calls = []
    monkeypatch.setattr("polycount.cli.count_configurations",
                        lambda *a, **kw: calls.append(a) or count_configurations(*a, **kw))
    code, out, _ = run_cli(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["crosschecked_steps"] == list(range(1, 201))
    assert data["extended"][27] == "4856516"  # a(40, 40, 2, 2)
    assert len(calls) == 4  # the seed's 2s counts, nothing per step


def test_extend_catches_corrupt_seed_in_cache(capsys, tmp_path):
    from polycount.cache import load_entry, save_entry
    from polycount.lattice import CountTable, count_polynomial

    cache_dir = tmp_path / "bad-seed"
    good = count_polynomial(LatticeSpec(8, 8, 2))
    counts = list(good.counts)
    counts[2] += 1  # still passes the cache's own checks on counts[0] and counts[1]
    save_entry(cache_dir, CountTable(spec=good.spec, counts=tuple(counts)))
    assert load_entry(cache_dir, 2, 8, 8).counts[2] == counts[2]
    argv = ["extend", "--k", "2", "--s", "2", "--anchor-n", "10", "--anchor-m", "10",
            "--steps", "3", "--cache-dir", str(cache_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "extension mismatch at (11,11)" in err and "quadrant polynomial" in err
    code, _, _ = run_cli(capsys, *argv, "--no-crosscheck")
    assert code == 0  # the recurrence alone cannot see a bad seed


def test_extend_refuses_an_uncertified_polynomial(capsys, monkeypatch):
    from polycount import recurrences

    real = recurrences.count_tables

    def off_by_one_at_top(k, points, s_max=None, state_cap=None):
        tables = real(k, points, s_max, state_cap)
        table = tables[5, 5]  # k=2, s=2: the held-out corner beyond both block sides
        tables[5, 5] = type(table)(table.spec, table.counts[:2] + (table.counts[2] + 1,))
        return tables

    monkeypatch.setattr(recurrences, "count_tables", off_by_one_at_top)
    code, out, err = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "10",
                             "--anchor-m", "10", "--steps", "2")
    assert code == 1 and out == "" and "check failed" in err and "held-out (5,5)" in err


def test_extend_checks_seed_range_before_counting(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("range must be checked before any count")

    monkeypatch.setattr("polycount.cli.count_configurations", no_enumeration)
    code, out, err = run_cli(capsys, "extend", "--k", "2", "--s", "4", "--anchor-n", "14",
                             "--anchor-m", "200", "--steps", "1")
    assert code == 2 and out == ""
    assert "seed window reaches (7,193) below the proven range" in err


def test_extend_checks_steps_before_counting(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("steps must be checked before any count")

    monkeypatch.setattr("polycount.lattice._sweep", no_sweep)
    code, out, err = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "10",
                             "--anchor-m", "10", "--steps", "0")
    assert code == 2 and out == ""
    assert "steps must be >= 1, got 0" in err


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


@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_table_unwritable_out_fails_before_any_work(capsys, tmp_path, monkeypatch, where):
    def no_sweep(*args, **kwargs):
        raise AssertionError("--out must be checked before the sweep")

    monkeypatch.setattr("polycount.cli.count_tables", no_sweep)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "table", "--k", "2", "--n-max", "3", "--m-max", "3",
                             "--out", str(tmp_path / where), "--cache-dir", str(cache_dir))
    assert code == 2 and "--out" in err and out == ""
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


@pytest.mark.parametrize("where", ["file/sub", "file"])
def test_table_unwritable_cache_dir_fails_before_any_work(capsys, tmp_path, monkeypatch, where):
    def no_sweep(*args, **kwargs):
        raise AssertionError("--cache-dir must be checked before the sweep")

    monkeypatch.setattr("polycount.cli.count_tables", no_sweep)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, "table", "--k", "2", "--n-max", "3", "--m-max", "3",
                             "--cache-dir", str(tmp_path / where))
    assert code == 2 and "cache directory" in err and out == ""


class _ClosedPipe:
    """A stdout whose reader has gone away, as under `polycount ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_is_a_usage_error_not_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main(["verify", "quadrants", "--s", "2..6", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_closed_stdout_leaves_nothing_for_interpreter_exit():
    # no reader from the start, so the first write or flush fails whatever the timing;
    # the output is one short line, still in the buffer when main's flush fails, so the
    # interpreter's own flush at exit would fail again (and exit 120) had main left it there
    read_end, write_end = os.pipe()
    os.close(read_end)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from polycount.cli import main; "
              "sys.exit(main(['count', '--n', '2', '--m', '3', '--k', '2', '--s', '1']))")
    try:
        proc = subprocess.run([sys.executable, "-I", "-c", script, SRC], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_table_writes_one_entry_per_unordered_lattice(capsys, tmp_path):
    from polycount.cache import load_entry

    cache_dir = tmp_path / "unordered"
    code, _, _ = run_cli(capsys, "table", "--k", "2", "--n-max", "6", "--m-max", "4",
                         "--cache-dir", str(cache_dir))
    assert code == 0
    # 1..4 x 1..6 as unordered pairs; (6, 2) is stored as (2, 6) with no (2, 6) requested
    assert len(list(cache_dir.iterdir())) == 18
    assert (cache_dir / "k2_n2_m6.json").exists()
    for n in range(1, 7):
        for m in range(1, 5):
            spec = LatticeSpec(n, m, 2)
            table = load_entry(cache_dir, 2, n, m)
            assert table.spec == spec
            assert table.counts == count_polynomial(spec).counts


#: sha256 of table's stdout: the printed table stays per ordered pair, byte for byte
GOLDEN_TABLES = {
    ("--k", "2", "--n-max", "9", "--m-max", "9", "--format", "csv"):
        "0e5b6ea5c6d245d547ae0f1f8b143b6bfb5fb27f8374bf980cbc1dbeb3b39624",
    ("--k", "3", "--n-max", "8", "--m-max", "8", "--format", "json"):
        "3ec4673fdadeab48ce10bcad434c354d76d01c57379a30529ae6e0473640e92d",
    ("--k", "2", "--n-max", "6", "--m-max", "4"):
        "53e7d881cd9d267ca9040dc2cecb7eb131994c8e2200b13dc78ecd9db6fe32c9",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TABLES), ids=" ".join)
def test_table_stdout_is_unchanged(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, "table", *argv, "--cache-dir", str(tmp_path / "golden"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLES[argv]


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

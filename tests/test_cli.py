from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
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
    for argv, expected in [(["--s", "1"], "7\n"),
                           (["--s", "2", "--format", "csv"], "n,m,s,count\n2,3,2,11\n")]:
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--m", "3", "--k", "2", *argv)
        assert code == 0 and out == expected, argv


def test_count_all(capsys):
    for argv, expected in [
        (["--m", "2"], "1 4 2\n"),
        (["--m", "3", "--format", "csv"],
         "n,m,s,count\n2,3,0,1\n2,3,1,7\n2,3,2,11\n2,3,3,3\n"),
    ]:
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "2", "--all-s", *argv)
        assert code == 0 and out == expected, argv


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
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--m", "3", "--k", "2", "--s", "2",
                           "--format", "json")
    assert code == 0 and out == '{"count": "11", "k": 2, "m": 3, "n": 2, "s": 2}\n'


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


def _readme_commands():
    """Each line of README's "Command line" sh block, with its `# -> ...` note."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    return [(line, line.partition("# -> ")[2] or None) for line in lines]


@pytest.mark.parametrize("line,note", _readme_commands())
def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch, line, note):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert argv[0] == "polycount"
    code, out, err = run_cli(capsys, *argv[1:])
    assert code == 0 and err == "", (line, err)
    if note is not None:
        assert out == note + "\n", line


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
    # like any other bad window argument: one error line, no usage text
    for argv, message in [
        (["diagonal", "--k", "2", "--s", "1"], "verify diagonal requires --n"),
        (["corollary", "--s", "1"], "verify corollary requires --n"),
        (["strip", "--m", "4..6"], "verify strip requires --n"),
        (["strip", "--n", "3"], "verify strip requires --m"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n", argv


def test_verify_quadrants_and_weights_refuse_s_below_one(capsys):
    # the weight grid refuses s < 1 before any report line is written
    for target in ("quadrants", "weights"):
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "verify", target, "--s", "0", "--format", fmt)
            assert (code, out, err) == (2, "", "error: s must be >= 1, got 0\n"), (target, fmt)


@pytest.mark.parametrize("argv", [
    ["diagonal", "--k", "2", "--n", "5", "--s", "0"],
    ["corollary", "--k", "2", "--n", "5", "--s", "0"],
    ["strip", "--k", "2", "--n", "3", "--m", "5", "--s=-1"],
    ["strip", "--k", "2", "--n", "3"],
    ["strip", "--k", "2", "--n", "3", "--m", "9..5"],
], ids=" ".join)
def test_verify_usage_errors(capsys, argv):
    try:
        code = main(["verify", *argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert code == 2 and captured.out == "" and len(errors) == 1
    assert "Traceback" not in captured.err


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


def test_a_failed_cancellation_writes_a_fail_record_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("polycount.cli.accumulate_lhs", lambda grid: [[0] * 5 for _ in range(5)])
    code, out, _ = run_cli(capsys, "verify", "weights", "--s", "2")
    assert code == 1
    assert out.startswith("FAIL cancellation s=2 expected=diagonal 2(-1)^i C(2s,i), zero elsewhere")
    assert out.endswith("# 15 passed, 1 failed\n")


@pytest.mark.parametrize("flag,value", [("--lambda", "1/0"), ("--eta", "3/0"), ("--eta", "x")])
def test_bad_fraction_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "weights", "--s", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err and "Traceback" not in err


def _content_hash(text: str) -> str:
    """sha256 of the compact canonical dump of a JSON document, less its wall_time."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc.pop("wall_time")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: the proof checkers' --format json reports: (sha256 of the output with the
#: wall_time line removed, sha256 of its content) -- the bytes fix the
#: one-record-per-line layout, the content what json.loads reads, which is
#: what the earlier indented layout held less its always-zero summary.skipped
GOLDEN_JSON = {
    ("quadrants", "--s", "1..7"): (
        "37097c12d1e8a886da5ce104535894beb762163529e3b4f788feb2171c9dee2b",
        "1d0e5f37b4ce9dafb1b71872db6c7edbc00fb5eee631500efa08f5c28224a3c6"),
    ("weights", "--s", "1..7"): (
        "55ce7748d9b65b7dcf50197163d079f699703a0212f309897fa8bc121bdac6db",
        "5f2803add8a5308cbb10d628ca573266f153b78d9480201c072a6ee57d470eb8"),
    ("identities",): (
        "a721d4a91e0ce973ee529553b13bfde0bcce52eb563d183e81d8c3b1e4dc4949",
        "681c580211cde697c6f23be3e2a248765993d20e35f0c2b51862fdda5a4dac4c"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON), ids="_".join)
def test_proof_checker_json_is_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if '"wall_time"' not in line)
    assert (hashlib.sha256(kept.encode()).hexdigest(), _content_hash(out)) == GOLDEN_JSON[argv]


#: sha256 of the text reports and of the window commands' JSON reports (less
#: the wall_time line), computed on the writer that joined a whole report
#: before printing it: the streaming writer must reproduce them byte for byte
GOLDEN_STREAMED = {
    ("quadrants", "--s", "1..7"):
        "87a751e28b7c4ad3844c5fa6af90a7aa5b05fca1d5fa8eb71e44552ee22081a3",
    ("weights", "--s", "1..7"):
        "964b4d4fdbb13f2e49968ac56161b921d43f1145ec7aa8c4d1164140580e718f",
    ("strip", "--k", "2", "--n", "2..8", "--s", "1..3", "--m", "6..14"):
        "098079a49cf1d6e328949e337f81f9bd8b31a11e96b90f4724f8e5b3acf40d7e",
    ("strip", "--k", "2", "--n", "2..8", "--s", "1..3", "--m", "6..14", "--format", "json"):
        "3bd86d44d85c6e05b17863d38e64259390e17ad31e405e7948886bde6f79ed74",
    ("diagonal", "--k", "2", "--s", "1..2", "--n", "6..14", "--format", "json"):
        "77bbec34e3764257f057422ca5fb74be7d62db05e5cd8c942b2f5af54980d52a",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STREAMED), ids=" ".join)
def test_streamed_reports_are_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if '"wall_time"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN_STREAMED[argv]


def _records_one_per_line(out: str, records: list) -> None:
    # every record is one line (less its separating comma) that json.loads parses alone
    lines = [line.strip().removesuffix(",") for line in out.splitlines()]
    assert [json.loads(line) for line in lines if line.startswith("{\"")] == records


@pytest.mark.parametrize("argv", [
    ("weights", "--s", "1..3"),
    ("quadrants", "--s", "1..2"),
    ("identities", "--filter", "q3/*"),
    ("diagonal", "--k", "2", "--s", "1", "--n", "3..6"),
], ids="_".join)
def test_json_report_holds_one_record_per_line(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    _records_one_per_line(out, doc["checks"])
    # the top-level keys, one per line in sorted order; wall_time alone on its line
    lines = out.splitlines()
    keys = [json.loads(line.split(":")[0]) for line in lines if line.startswith('  "')]
    assert keys == sorted(doc) and lines[0] == "{" and lines[-1] == "}"
    assert [json.loads("{" + line.removesuffix(",") + "}") for line in lines
            if '"wall_time"' in line] == [{"wall_time": doc["wall_time"]}]


def test_wall_time_is_never_negative(capsys, monkeypatch):
    # a wall-clock step back during the run must not print a negative duration
    import time

    clock = iter(range(10**6, 0, -100))
    monkeypatch.setattr(time, "time", lambda: next(clock))
    code, out, _ = run_cli(capsys, "verify", "weights", "--s", "1", "--format", "json")
    assert code == 0 and json.loads(out)["wall_time"] >= 0


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

    # the same records as one front-door call per (n, s) or per s, in turn
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
    records = [c for part in parts for c in part.checks]
    summaries = [part.summary() for part in parts]
    assert doc == {
        "checks": [c.to_dict() for c in records],
        "command": f"verify {args.target}",
        "ok": all(part.ok for part in parts),
        "params": doc["params"],
        "summary": {key: sum(summ[key] for summ in summaries) for key in summaries[0]},
        "title": title,
    }
    assert doc["summary"]["total"] == len(records) > 0


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
    assert lines[-1] == "# 0 passed, 0 failed, 1 info"


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
    good = count_polynomial(LatticeSpec(12, 12, 2))
    counts = list(good.counts)
    counts[3] += 1  # still passes the cache's own checks on counts[0..2]
    save_entry(cache_dir, CountTable(spec=good.spec, counts=tuple(counts)))
    assert load_entry(cache_dir, 2, 12, 12).counts[3] == counts[3]
    argv = ["extend", "--k", "2", "--s", "3", "--anchor-n", "14", "--anchor-m", "14",
            "--steps", "3", "--cache-dir", str(cache_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("check failed: extension mismatch at (15,15)")
    assert "quadrant polynomial" in err
    code, _, _ = run_cli(capsys, *argv, "--no-crosscheck")
    assert code == 0  # the recurrence alone cannot see a bad seed


def test_extend_recounts_a_seed_whose_two_rod_count_is_corrupt(capsys, tmp_path):
    # a(n, m, k, 2) has a closed form, so without the crosscheck a corrupt s = 2
    # seed in the cache is a miss, recounted, and the extension stays right
    cache_dir = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "table", "--k", "2", "--n-max", "9", "--m-max", "10",
                         "--cache-dir", str(cache_dir))
    assert code == 0
    path = cache_dir / "k2_n8_m9.json"
    data = json.loads(path.read_text())
    data["counts"][2] = str(int(data["counts"][2]) + 1)
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "9",
                           "--anchor-m", "10", "--steps", "3", "--cache-dir", str(cache_dir),
                           "--no-crosscheck", "--format", "json")
    assert code == 0
    assert json.loads(out)["extended"] == ["19163", "28262", "40251"]


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
    code, out, err = run_cli(capsys, "extend", "--k", "2", "--s", "4", "--anchor-n", "10",
                             "--anchor-m", "200", "--steps", "1")
    assert code == 2 and out == ""
    assert err == ("error: diagonal window asserted only for n >= 12, m >= 12; "
                   "got (11,201)\n")


def test_extend_checks_steps_before_counting(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("steps must be checked before any count")

    monkeypatch.setattr("polycount.lattice._sweep", no_sweep)
    code, out, err = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "10",
                             "--anchor-m", "10", "--steps", "0")
    assert code == 2 and out == ""
    assert "steps must be >= 1, got 0" in err


def test_extend_range_violation(capsys):
    def extend(anchor):
        return run_cli(capsys, "extend", "--k", "2", "--s", "1", "--anchor-n", anchor,
                       "--anchor-m", anchor, "--steps", "1")

    code, out, err = extend("1")
    assert code == 2 and out == ""
    assert "diagonal window asserted only for n >= 3, m >= 3; got (2,2)" in err
    # the window (3,3), (2,2), (1,1) is in range, though its seed points are not
    code, out, _ = extend("2")
    assert code == 0 and out == "a(3,3) = 12\n"


def test_extend_accepts_the_windows_verify_diagonal_asserts(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagonal", "--k", "2", "--s", "2", "--n", "7",
                           "--format", "json")
    (record,) = json.loads(out)["checks"]
    assert code == 0 and record["params"]["in_range"] is True and record["actual"] == "48"
    # that window's top is the first value this extension solves for
    code, out, _ = run_cli(capsys, "extend", "--k", "2", "--s", "2", "--anchor-n", "6",
                           "--anchor-m", "6", "--steps", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["extended"] == ["3272", "5924", "9914"]
    assert data["crosschecked_steps"] == [1, 2, 3] and data["residuals"] == [0, 0, 0]


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


@pytest.mark.parametrize("flag", ["--out", "--cache-dir"])
def test_table_refuses_an_unwritable_target_before_any_work(capsys, tmp_path, monkeypatch, flag):
    # os.access grants every write to root, so the refusal is stubbed in
    def no_sweep(*args, **kwargs):
        raise AssertionError(f"{flag} must be checked before the sweep")

    monkeypatch.setattr("polycount.cli.count_tables", no_sweep)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    argv = ["--cache-dir", str(tmp_path / "cache")]
    if flag == "--out":
        argv += ["--out", str(tmp_path / "table.csv")]
    code, out, err = run_cli(capsys, "table", "--k", "2", "--n-max", "3", "--m-max", "3", *argv)
    what = "--out" if flag == "--out" else "cache directory"
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {what} ") and err.endswith(": not writable\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_table_out_on_a_full_device_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "table", "--k", "2", "--n-max", "2", "--m-max", "2",
                             "--cache-dir", str(tmp_path / "cache"), "--out", "/dev/full")
    assert code == 2 and out == ""
    assert err == "error: cannot write --out /dev/full: [Errno 28] No space left on device\n"


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


CLOSED_STDOUT = "error: standard output was closed; the output is incomplete\n"


def test_a_closed_stdout_is_a_usage_error_not_a_failed_check(capsys, monkeypatch):
    # nothing was written: the message holds without claiming any part got out
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main(["verify", "quadrants", "--s", "2..6", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == CLOSED_STDOUT


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
    assert proc.stderr == CLOSED_STDOUT


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["verify", "quadrants", "--s", "2"],
    ["count", "--n", "3", "--m", "3", "--k", "2", "--s", "1"],
    ["table", "--k", "2", "--n-max", "3", "--m-max", "3"],
    ["extend", "--k", "2", "--s", "1", "--anchor-n", "3", "--anchor-m", "3", "--steps", "2",
     "--no-crosscheck"],
], ids=lambda argv: argv[0])
def test_a_full_stdout_is_a_usage_error_not_a_failed_check(tmp_path, argv):
    # a write error other than a closed pipe: one line on stderr, exit 2, and
    # nothing left for the interpreter's own flush at exit to fail on again
    script = "import sys; sys.path.insert(0, sys.argv[1]); from polycount.cli import main; " \
             "sys.exit(main(sys.argv[2:]))"
    env = {**os.environ, "POLYCOUNT_CACHE": str(tmp_path / "cache")}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", script, SRC, *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("error: standard output could not be written ([Errno 28] No space "
                           "left on device); the output is incomplete\n")


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


#: sha256 of table's stdout: the printed table stays per ordered pair, byte for
#: byte; a JSON table also pins its content (see GOLDEN_JSON)
GOLDEN_TABLES = {
    ("--k", "2", "--n-max", "9", "--m-max", "9", "--format", "csv"):
        "0e5b6ea5c6d245d547ae0f1f8b143b6bfb5fb27f8374bf980cbc1dbeb3b39624",
    ("--k", "3", "--n-max", "8", "--m-max", "8", "--format", "json"): (
        "f77e2478a8e979ba4714a684005fee2f029586f7ed1dd84f111b553c5700f53c",
        "403bdfebb0231311a2dbab26d14d3087df7e755a2278655e71a605c8c9b77338"),
    ("--k", "2", "--n-max", "6", "--m-max", "4"):
        "53e7d881cd9d267ca9040dc2cecb7eb131994c8e2200b13dc78ecd9db6fe32c9",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TABLES), ids=" ".join)
def test_table_stdout_is_unchanged(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, "table", *argv, "--cache-dir", str(tmp_path / "golden"))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    if "json" in argv:
        assert (digest, _content_hash(out)) == GOLDEN_TABLES[argv]
    else:
        assert digest == GOLDEN_TABLES[argv]


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
    text = out_path.read_text()
    entries = json.loads(text)
    _records_one_per_line(text, entries)
    assert text.startswith("[\n  {") and text.endswith("}\n]\n")
    by_key = {(e["n"], e["m"]): e for e in entries}
    assert by_key[(3, 3)]["counts"][1] == "6"
    assert all(e["version"] == 1 for e in entries)
    capsys.readouterr()


def test_failing_report_exit_code(capsys):
    import argparse
    import time

    from polycount.cli import EXIT_CHECK_FAILED, EXIT_OK, _write_report
    from polycount.reports import Report

    good, bad = Report(title="one"), Report(title="two")
    good.record("good", {"s": 1}, 1, 1)
    bad.record("bad", {"s": 2}, 1, 2)
    bad.record("note", {"s": 2}, 1, 3, info=True)
    for parts, code in (([good, bad], EXIT_CHECK_FAILED), ([good], EXIT_OK),
                        ([bad, good], EXIT_CHECK_FAILED)):
        args = argparse.Namespace(format="text", target="synthetic")
        assert _write_report(parts, args, "synthetic", time.perf_counter()) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == sum(len(p.checks) for p in parts) + 1
        if bad in parts:
            assert "FAIL bad s=2 expected=1 actual=2" in lines
            assert lines[-1] == f"# {len(parts) - 1} passed, 1 failed, 1 info"
        args.format = "json"
        assert _write_report(parts, args, "synthetic", time.perf_counter()) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is (code == EXIT_OK) and doc["command"] == "verify synthetic"
        assert doc["checks"] == [c.to_dict() for p in parts for c in p.checks]
        assert doc["summary"]["failed"] == (bad in parts) and doc["params"] == {
            "target": "synthetic"}


def _record_lines(text: str) -> int:
    return sum(line.startswith(("pass ", "    {")) for line in text.splitlines())


class _ReaderGoneAfter:
    """A stdout whose reader takes writes until it has read `records` records, then goes away."""

    def __init__(self, records):
        self.records = records
        self.taken = ""

    def write(self, text):
        if _record_lines(self.taken) >= self.records:
            raise BrokenPipeError(32, "Broken pipe")
        self.taken += text
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_stdout_closed_after_the_first_part(capsys, monkeypatch, fmt):
    from polycount.weights import verify_quadrant_lemmas

    first = len(verify_quadrant_lemmas(2).checks)
    pipe = _ReaderGoneAfter(first)
    monkeypatch.setattr("sys.stdout", pipe)
    code = main(["verify", "quadrants", "--s", "2..4", "--format", fmt])
    err = capsys.readouterr().err
    # part of the output got out, and the message still holds
    assert code == 2 and err == CLOSED_STDOUT
    # the reader took the s = 2 part whole, and nothing of the parts after it had been written
    assert _record_lines(pipe.taken) == first
    assert pipe.taken.startswith('{\n  "checks": [\n    {' if fmt == "json" else "pass ")


@pytest.mark.parametrize("argv", [
    ["quadrants", "--s", "0"],
    ["weights", "--s", "0..2"],
    ["identities", "--filter", "nomatch"],
    # an option the target never reads, off its default
    ["strip", "--n", "3", "--m", "5", "--lambda", "5"],
    ["diagonal", "--n", "6..8", "--filter", "q1/*"],
    ["corollary", "--n", "7", "--anchor-n", "12"],
    ["weights", "--s", "2", "--m", "4"],
    ["quadrants", "--s", "2", "--k", "7", "--n", "3..4", "--filter", "zz", "--unsafe-range"],
    ["identities", "--filter", "appendix-c/*", "--s", "9", "--lambda", "5"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_usage_errors_write_nothing_to_stdout(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_names_an_option_its_target_never_reads(capsys):
    code, out, err = run_cli(capsys, "verify", "quadrants", "--s", "1", "--lambda", "5")
    assert (code, out, err) == (2, "", "error: verify quadrants does not read --lambda\n")
    # an unread option given at its default is as if it were not given
    code, out, _ = run_cli(capsys, "verify", "quadrants", "--s", "1", "--k", "2", "--filter", "*")
    assert code == 0 and out == run_cli(capsys, "verify", "quadrants", "--s", "1")[1]


@pytest.mark.parametrize("target", ["weights", "quadrants", "identities"])
def test_verify_refuses_the_state_cap_where_no_sweep_reads_it(capsys, target):
    code, out, err = run_cli(capsys, "--state-cap", "5", "verify", target)
    assert (code, out, err) == (2, "", f"error: verify {target} does not read --state-cap\n")


def test_brute_count_refuses_the_state_cap(capsys):
    argv = ["count", "--n", "2", "--m", "2", "--k", "2", "--s", "1", "--method", "brute"]
    code, out, err = run_cli(capsys, "--state-cap", "5", *argv)
    assert (code, out, err) == (2, "", "error: --method brute does not read --state-cap\n")
    # the default cap is as if none were given
    assert run_cli(capsys, "--state-cap", str(2**24), *argv)[:2] == (0, "4\n")


@pytest.mark.parametrize("argv", [
    ["verify", "strip", "--n", "3", "--m", "6", "--s", "2"],
    ["verify", "diagonal", "--n", "6", "--m", "6", "--s", "1"],
    ["verify", "corollary", "--n", "6", "--m", "6", "--s", "1"],
    ["count", "--n", "3", "--m", "6", "--k", "2", "--s", "2"],
    ["table", "--k", "2", "--n-max", "3", "--m-max", "6"],
    ["extend", "--k", "2", "--s", "1", "--anchor-n", "6", "--anchor-m", "6", "--steps", "1"],
])
def test_the_commands_that_sweep_still_honour_the_state_cap(capsys, argv):
    code, out, err = run_cli(capsys, "--state-cap", "5", *argv)
    assert code == 3 and "exceeds cap 5" in err, argv


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_report_memory_stays_with_the_largest_part(monkeypatch):
    # a streamed report holds one part at a time: quadrants at s = 2..9 peaks
    # near s = 9 alone, not at the sum of every s (3.7 times it when joined whole)
    import tracemalloc

    monkeypatch.setattr("sys.stdout", _Discard())

    def peak(s):
        argv = ["verify", "quadrants", "--s", s, "--format", "json"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("9")  # warm: imports and first-use caches are not the report's
    alone, ranged = peak("9"), peak("2..9")
    assert ranged < 1.5 * alone, (ranged, alone)


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

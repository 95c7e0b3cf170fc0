"""The benchmark under perfbench/ reaches into the program from outside.

Its tracer replaces module attributes of the program (cli.verify_strip,
cli.window_residuals, recurrences.count_configurations, ...), and its
self-test runs CLI commands against independent references.  A refactor
that drops or renames one of those attributes must fail here, not only in
a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import polycount

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_on_every_hook_and_restores_them():
    tracing = _tracing()
    from polycount import cli, recurrences

    before = (cli.verify_strip, cli.window_residuals, recurrences.count_configurations)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, polycount)
        assert cli.verify_strip is not before[0]
    finally:
        tracer.close()
    assert (cli.verify_strip, cli.window_residuals, recurrences.count_configurations) == before


def test_tracer_counts_every_certificate_mutant():
    # the tracer counts mutants as calls of the module attribute
    # identities.run_check under certificate_mutation_report
    tracing = _tracing()
    from polycount import identities

    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, polycount)
        for pattern in ("gf/*", "double-gf/*", "rhs/*", "appendix-d/*"):
            # the worker sends the report as its dict, and checks read these keys
            report = identities.certificate_mutation_report(pattern).to_dict()
            assert report["ok"] and report["summary"]["failed"] == 0, pattern
            assert all(rec["name"] and rec["status"] == "pass" and rec["actual"] == "ok"
                       for rec in report["checks"]), pattern
    finally:
        tracer.close()
    metrics = tracing.layer_metrics(tracer.spans, 0, 0)
    assert metrics["identities.mutants"] == pinned["mutants"] == 43
    assert metrics["identities.detected_ratio"] == 1

"""The benchmark under perfbench/ reaches into the program from outside.

Its tracer replaces module attributes of the program (cli.verify_strip,
cli.window_residuals, recurrences.count_configurations, ...), and its
self-test runs CLI commands against independent references.  A refactor
that drops or renames one of those attributes must fail here, not only in
a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
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


def test_tracer_installs_on_every_hook_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from polycount import cli, recurrences

    before = (cli.verify_strip, cli.window_residuals, recurrences.count_configurations)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, polycount)
        assert cli.verify_strip is not before[0]
    finally:
        tracer.close()
    assert (cli.verify_strip, cli.window_residuals, recurrences.count_configurations) == before

"""Cold-process benchmark of polycount.

    python3 perfbench/run.py --workload sparse-count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass of the workload's work list runs
in a fresh interpreter (worker.py), one at a time, with a private cache
directory under ``.perfbench/``; the program's process-lifetime memos are
what a CLI user pays for on every invocation, so no pass may inherit them.
Passes repeat while another one still fits in ``--seconds``; an untraced
run makes at least two, and three if the third ends within 1.5 times that.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
is the sum over work items of each item's median time across the passes,
``setup_s`` the median spawn-to-ready time over the set-up-only workers run
before each pass and the pass workers, ``peak_rss_mib`` the median of the
workers' own peak RSS.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics.  The last line of standard output is the JSON result; failed checks
go to standard error.  Exits 1 without a result when a worker or the program
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, work_list  # noqa: E402

#: Set-up-only workers before each untraced pass.  Spread over the run, they
#: make set-up time a median of many spawns that no single slow burst of the
#: shared host covers.
SETUP_SPAWNS = 4
#: Untraced passes a run makes at least, so each item has more than one
#: chance to run outside a slow period of the shared host; a third is added
#: when it ends within STRETCH times --seconds.
MIN_PASSES = 2
STRETCH = 1.5
#: A run must finish well inside the 180 s a caller allows it.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(job: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    out = run_dir / f"{tag}.json"
    job = {**job, "out": str(out), "cache_dir": str(run_dir / f"cache-{tag}")}
    env = {k: v for k, v in os.environ.items() if k != "POLYCOUNT_CACHE"}
    # Even a fallback to the platform cache directory stays inside the run.
    env["XDG_CACHE_HOME"] = str(run_dir / "xdg")
    pycache = ROOT / ".perfbench" / "pycache"
    job["spawned"] = time.monotonic()
    cmd = [sys.executable, "-I", "-X", f"pycache_prefix={pycache}", str(HERE / "worker.py"),
           json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} ran past the run's time limit") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def item_wall(passes: list[dict], pick=median) -> float:
    """Seconds for one pass: the sum over items of each item's median time.

    With three or more passes, one pass slowed by the shared host does not
    move an item's median.  ``pick=min`` gives the fastest-pass figure
    printed beside it.
    """
    return sum(pick(p["item_s"][item] for p in passes) for item in passes[0]["item_s"])


def measure(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    items = work_list(workload, seed)
    print(f"# workload={workload} seed={seed} trace={int(trace)} "
          f"order={[it['id'] for it in items]}", flush=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"src": str(ROOT / "src"), "trace": False,
            "spans_out": str(ROOT / ".perfbench" / f"spans-{workload}.json")}
    setups, plain, traced = [], [], []
    start, longest = time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        n = len(plain)
        if not trace:
            setups += [spawn({**base, "items": []}, run_dir, f"setup-{n}-{i}", deadline)
                       for i in range(SETUP_SPAWNS)]
        plain.append(spawn({**base, "items": items}, run_dir, f"pass-{n}", deadline))
        if trace:
            traced.append(spawn({**base, "items": items, "trace": True}, run_dir,
                                f"traced-{n}", deadline))
        longest = max(longest, time.monotonic() - t0)
        next_end = time.monotonic() + longest - start
        if next_end > seconds and (trace or len(plain) > MIN_PASSES or (
                len(plain) == MIN_PASSES and next_end > STRETCH * seconds)):
            break
    done = plain + traced
    for p in done:
        for line in p["failures"]:
            print(f"FAIL {line}", file=sys.stderr)
    print(f"# passes={len(plain)} traced={len(traced)} "
          f"pass_s={[round(p['wall_s'], 3) for p in plain]} "
          f"item_min_wall_s={item_wall(plain, min):.4f}", flush=True)
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    if trace:
        # median_low keeps each figure one that a traced pass measured.
        metrics = {name: median_low(p["metrics"][name] for p in traced)
                   for name in traced[0]["metrics"]}
        metrics["bench.trace_overhead_s"] = item_wall(traced) - item_wall(plain)
        metrics["bench.error_rate"] = failed / max(attempted, 1)
    else:
        metrics = {
            "wall_s": item_wall(plain),
            "setup_s": median(p["setup_s"] for p in setups + plain),
            "peak_rss_mib": median(p["rss_mib"] for p in plain),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "polycount" / "__init__.py").is_file():
        print(f"no polycount sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    measured = res["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        print(f"metrics {sorted(measured)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold pass of a workload, in the fresh interpreter run.py starts.

Usage (from run.py only): ``python3 -I worker.py '<job as JSON>'``.

The job holds the monotonic clock reading taken just before the spawn, so
set-up time covers interpreter start, ``import polycount`` and building the
identity registry.  A job without items stops there.  Otherwise the worker
runs the items in the given order (traced or not), reads its own peak RSS,
then, outside the timed region, computes the brute-force references and
checks every output.  The result goes to the job's ``out`` file as JSON.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import polycount
    from polycount import identities

    identities.registry()
    setup_s = time.monotonic() - job["spawned"]
    if Path(polycount.__file__).resolve().parent != Path(job["src"], "polycount").resolve():
        print(f"polycount imported from {polycount.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if job["items"]:
        result.update(run_pass(job, polycount))
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_item(item: dict, cache_dir: str, polycount) -> dict:
    from polycount import cli, hseq, identities

    kind = item["kind"]
    if kind == "count_polynomial":
        spec = polycount.LatticeSpec(n=item["n"], m=item["m"], k=item["k"])
        return {"counts": list(polycount.count_polynomial(spec, s_max=item["s"]).counts)}
    if kind == "cli":
        argv = [cache_dir if a == "{cache}" else a for a in item["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "cache_dir": cache_dir}
    if kind == "mutation":
        return {"report": identities.certificate_mutation_report(item["pattern"]).to_dict()}
    if kind == "h_routes":
        s = item["s"]
        cells = [(i, j) for i in range(s) for j in range(1, s + 1)]
        return {"routes": {
            "recursive": {(i, j): hseq.h_recursive(s, i, j) for i, j in cells},
            "explicit": {(i, j): hseq.h_explicit(s, i, j) for i, j in cells},
            "gf": {(i, j): v for i in range(s)
                   for j, v in enumerate(hseq.h_from_gf(s, i, s), start=1)},
            "double_gf": hseq.h_from_double_gf(s, s - 1, s),
        }}
    raise ValueError(f"unknown item kind {kind}")


def run_pass(job: dict, polycount) -> dict:
    cache_dir = job["cache_dir"]
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracing.install(tracer, polycount)
    outputs, item_s = [], {}
    started = time.perf_counter()
    for item in job["items"]:
        t0 = time.perf_counter()
        try:
            out = run_item(item, cache_dir, polycount)
        except Exception as exc:  # one failed operation; the pass goes on
            out = {"error": "".join(traceback.format_exception_only(exc)).strip()}
        item_s[item["id"]] = time.perf_counter() - t0
        outputs.append(out)
    wall_s = time.perf_counter() - started
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.close()

    tally = checks.Tally()
    for item, out in zip(job["items"], outputs):
        if item["kind"] == "count_polynomial":
            spec = polycount.LatticeSpec(n=item["n"], m=item["m"], k=item["k"])
            try:
                out["brute"] = polycount.brute_force_count(spec, item["s"])
            except polycount.ResourceLimitError:
                out["brute"] = None  # beyond the oracle's work cap
        checks.check_item(tally, item, out)
    res = {"wall_s": wall_s, "item_s": item_s, "rss_mib": rss_mib}
    if tracer:
        cli_out = [o for it, o in zip(job["items"], outputs) if it["kind"] == "cli" and "rc" in o]
        crosschecked = 0
        for it, o in zip(job["items"], outputs):
            if it["check"] == "extend" and o.get("rc") == 0:
                crosschecked += len(json.loads(o["stdout"])["crosschecked_steps"])
        metrics = tracing.layer_metrics(
            tracer.spans, sum(len(o["stdout"].encode()) for o in cli_out), crosschecked)
        if any(it["kind"] == "mutation" for it in job["items"]):
            tally.expect(metrics["identities.mutants"] == checks.PINNED["mutants"],
                         f"traced mutants {metrics['identities.mutants']}")
            tally.expect(metrics["identities.detected_ratio"] == 1,
                         f"detected ratio {metrics['identities.detected_ratio']}")
        res["metrics"] = metrics
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump([sp[:4] for sp in tracer.spans], fh)
    res.update(attempted=tally.attempted, failed=len(tally.failures), failures=tally.failures[:20])
    return res


if __name__ == "__main__":
    sys.exit(main())

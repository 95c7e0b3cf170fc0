"""Spans around the calls into each layer, recorded from outside the program.

Each wrapped function is replaced at the module attribute its callers look
up, so no file of the program changes.  A span is ``[name, start, end,
parent, data]``: ``parent`` is the index of the span open when it started
(-1 at top level), ``data`` holds the counts read off the call's arguments
and return value.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, data=None, rss: bool = False) -> None:
        """Record a span named ``layer.attr`` around every call of owner.attr.

        ``data(args, kwargs, result)`` returns the span's counts; with ``rss``
        the growth of the process's peak RSS during the call is recorded too.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _rss_mib() if rss else 0.0
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if data:
                span[4] = data(args, kwargs, result)
            if rss:
                span[4]["rss"] = _rss_mib() - rss0
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, polycount) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from polycount import cli, hseq, identities, recurrences, weights

    def lattice_key(args, kwargs, result):
        spec = args[0]
        s = args[1] if len(args) > 1 else kwargs.get("s", kwargs.get("s_max"))
        return {"key": (spec.n, spec.m, spec.k, s)}

    def windows(args, kwargs, report):
        return {"windows": len(report.checks)}

    def records(args, kwargs, result):
        return {"records": len(getattr(result, "checks", ()))}

    def entries(args, kwargs, result):
        return {"entries": len(result) if isinstance(result, (list, dict)) else 1}

    def outcome(args, kwargs, out):
        return {"tested": out.tested, "skipped": out.skipped, "passed": out.passed}

    for owner, attr in ((polycount, "count_polynomial"),
                        (recurrences, "count_configurations"),
                        (cli, "count_polynomial"), (cli, "count_configurations")):
        tracer.wrap(owner, attr, "lattice", lattice_key, rss=True)
    for attr in ("verify_strip", "verify_diagonal", "verify_diagonal_corollary"):
        tracer.wrap(cli, attr, "recurrences", windows)
    for attr in ("extend_diagonal", "window_residuals"):
        tracer.wrap(cli, attr, "recurrences")
    tracer.wrap(cli, "save_entry", "cache",
                lambda a, kw, path: {"bytes": os.path.getsize(path)})
    tracer.wrap(cli, "load_entry", "cache", lambda a, kw, table: {"hit": table is not None})
    tracer.wrap(cli, "main", "cli", lambda a, kw, rc: {"rc": rc})
    tracer.wrap(identities, "run_registry", "identities")
    tracer.wrap(identities, "certificate_mutation_report", "identities")
    tracer.wrap(identities, "run_check", "identities", outcome)
    tracer.wrap(identities, "eval_term", "symbolic")
    for attr in ("build_weight_grid", "accumulate_lhs", "accumulate_rhs", "rhs_closed_form",
                 "verify_rhs_column_sums", "verify_quadrant_lemmas"):
        tracer.wrap(cli, attr, "weights", records)
    for attr in ("h_recursive", "h_explicit", "h_from_gf", "h_from_double_gf"):
        tracer.wrap(hseq, attr, "hseq", entries)
    for attr in ("h_recursive", "h_terms"):
        tracer.wrap(weights, attr, "hseq", entries)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], stdout_bytes: int, crosschecked: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus the time its direct children cover.
    A span is top-level for its layer when its parent belongs to another
    layer; calls and per-call figures count only those.
    """
    dur = [sp[2] - sp[1] for sp in spans]
    child = [0.0] * len(spans)
    for idx, sp in enumerate(spans):
        if sp[3] >= 0:
            child[sp[3]] += dur[idx]
    layer = [sp[0].split(".", 1)[0] for sp in spans]
    groups: dict[str, list[int]] = defaultdict(list)
    for idx, sp in enumerate(spans):
        groups[sp[0]].append(idx)
        groups[layer[idx]].append(idx)

    def select(name_or_layer: str, parent: str | None = None, top: bool = False):
        for idx in groups.get(name_or_layer, ()):
            sp = spans[idx]
            p = sp[3]
            if parent is not None and (p < 0 or parent not in (spans[p][0], layer[p])):
                continue
            if top and p >= 0 and layer[p] == layer[idx]:
                continue
            yield idx, sp

    def self_s(name: str) -> float:
        return sum(dur[i] - child[i] for i, _ in select(name))

    def total(name: str, field: str, **kw) -> float:
        return sum(sp[4].get(field, 0) for _, sp in select(name, **kw))

    def count(name: str, **kw) -> int:
        return sum(1 for _ in select(name, **kw))

    lattice = list(select("lattice", top=True))
    distinct = len({sp[4].get("key") for _, sp in lattice})
    windows = total("recurrences", "windows")
    reads = count("cache.load_entry")
    registry_checks = list(select("identities.run_check", parent="identities.run_registry"))
    mutants = list(select("identities.run_check",
                          parent="identities.certificate_mutation_report"))
    return {
        "lattice.calls": len(lattice),
        "lattice.distinct_requests": distinct,
        "lattice.reuse_ratio": _ratio(distinct, len(lattice)),
        "lattice.self_s": self_s("lattice"),
        "lattice.max_call_s": max((dur[i] for i, _ in lattice), default=0.0),
        "lattice.rss_growth_mib": sum(sp[4].get("rss", 0.0) for _, sp in lattice),
        "recurrences.windows": windows,
        "recurrences.self_s": self_s("recurrences"),
        "recurrences.counts_per_window": _ratio(count("lattice", parent="recurrences"), windows),
        "recurrences.crosschecked_steps": crosschecked,
        "cache.writes": count("cache.save_entry"),
        "cache.write_s": sum(dur[i] for i, _ in select("cache.save_entry")),
        "cache.bytes_written": total("cache.save_entry", "bytes"),
        "cache.reads": reads,
        "cache.hit_ratio": _ratio(total("cache.load_entry", "hit"), reads),
        "cache.read_s": sum(dur[i] for i, _ in select("cache.load_entry")),
        "cli.commands": count("cli"),
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": stdout_bytes,
        "cli.nonzero_exits": sum(1 for _, sp in select("cli") if sp[4].get("rc", 1)),
        "identities.registry_s": sum(dur[i] for i, _ in select("identities.run_registry")),
        "identities.checks": len(registry_checks),
        "identities.points_tested": sum(sp[4].get("tested", 0) for _, sp in registry_checks),
        "identities.points_skipped": sum(sp[4].get("skipped", 0) for _, sp in registry_checks),
        "identities.mutation_s": sum(
            dur[i] for i, _ in select("identities.certificate_mutation_report")),
        "identities.mutants": len(mutants),
        "identities.mutant_points": sum(sp[4].get("tested", 0) for _, sp in mutants),
        "identities.detected_ratio": _ratio(
            sum(1 for _, sp in mutants if not sp[4].get("passed", False)), len(mutants)),
        "symbolic.evals": count("symbolic"),
        "symbolic.self_s": self_s("symbolic"),
        "weights.records": total("weights", "records"),
        "weights.self_s": self_s("weights"),
        "hseq.entries": total("hseq", "entries", top=True),
        "hseq.self_s": self_s("hseq"),
    }

"""Persistent cache of exact count tables, one JSON file per (k, min(n, m), max(n, m)).

a(n, m, k, s) = a(m, n, k, s), so an n x m table and its transpose share
one entry, stored with the shorter side as n; a lookup either way round
returns the counts under the spec it asked for.  Counts are serialized as
decimal strings so values of any size round-trip losslessly.  Writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import ParameterError
from .lattice import CountTable, LatticeSpec, rod_pairs, rod_positions

ENV_VAR = "POLYCOUNT_CACHE"
FORMAT_VERSION = 1


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Cache directory: explicit flag, else $POLYCOUNT_CACHE, else platform default."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    elif os.name == "nt":
        base = Path(os.environ.get("LOCALAPPDATA", Path.home() / "AppData" / "Local"))
    else:
        base = Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache"))
    return base / "polycount"


def entry_path(cache_dir: Path, k: int, n: int, m: int) -> Path:
    """The one file of n x m and of m x n."""
    return cache_dir / f"k{k}_n{min(n, m)}_m{max(n, m)}.json"


def entry_payload(table: CountTable) -> dict:
    spec = table.spec
    return {
        "version": FORMAT_VERSION,
        "k": spec.k,
        "n": spec.n,
        "m": spec.m,
        "counts": [str(c) for c in table.counts],
    }


def save_entry(cache_dir: Path, table: CountTable) -> Path:
    """Write the table as its canonical entry, the transpose when n > m."""
    spec = table.spec
    if spec.n > spec.m:
        table = CountTable(spec=LatticeSpec(n=spec.m, m=spec.n, k=spec.k), counts=table.counts)
    path = entry_path(cache_dir, spec.k, spec.n, spec.m)
    data = json.dumps(entry_payload(table), sort_keys=True)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ParameterError(f"cannot write cache entry {path}: {exc}") from exc
    return path


def load_entry(cache_dir: Path, k: int, n: int, m: int) -> CountTable | None:
    """Load the full n x m table, or None on a miss or a stale, partial or corrupt entry.

    The entry is read from the canonical file and returned with the spec
    LatticeSpec(n, m, k); the checks on its counts are the same either way round.
    """
    path = entry_path(cache_dir, k, n, m)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
        return None
    if not isinstance(data, dict) or data.get("version") != FORMAT_VERSION:
        return None
    key = (data.get("k"), data.get("n"), data.get("m"))
    if any(type(v) is not int for v in key):
        return None  # no key to compare: corrupt, not someone else's entry
    if key != (k, min(n, m), max(n, m)):
        raise ParameterError(f"cache entry {path} does not match its key")
    spec = LatticeSpec(n=n, m=m, k=k)
    raw = data.get("counts")
    if not isinstance(raw, list) or len(raw) != spec.capacity + 1:
        return None  # partial entry from an older truncated run, or not a table
    if not all(isinstance(c, str) and c.isascii() and c.isdigit() for c in raw):
        return None
    counts = tuple(int(c) for c in raw)
    if counts[:3] != (1, rod_positions(n, m, k), rod_pairs(n, m, k))[:len(counts)]:
        return None  # a(n, m, k, s) for s <= 2 has a closed form
    return CountTable(spec=spec, counts=counts)

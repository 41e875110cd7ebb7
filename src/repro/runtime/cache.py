"""On-disk result cache for experiment sweeps.

Results live under ``benchmarks/.cache/v<N>/<worker>/<hash>.pkl`` where the
hash is a stable content digest of the config: dataclasses hash by class
name plus field values (recursively), so two configs with equal content
always map to the same entry and *any* field change — including a new
default — produces a different key.  Bumping :data:`CACHE_VERSION`
invalidates every prior entry at once (the versioned directory is simply
never consulted again).

The cache is self-managing: corrupt or truncated entries are unlinked and
treated as misses (the sweep re-simulates and overwrites them), and
optional ``max_bytes`` / ``max_entries`` caps evict least-recently-used
entries after every write.  Recency is file mtime — reads touch their
entry — so LRU state needs no sidecar index and survives across
processes.  ``python -m repro cache stats|clear|prune`` exposes the same
operations from the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import shutil
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "CACHE_VERSION",
    "CACHE_DIR_ENV",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "config_key",
    "default_cache_dir",
    "parse_size",
]

#: Bump when the result format (or simulation semantics) changes.
CACHE_VERSION = 1

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``benchmarks/.cache`` in the repo checkout (or ``REPRO_CACHE_DIR``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".cache"


_SIZE_SUFFIXES = {"": 1, "B": 1, "K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}


def parse_size(text: Union[str, int]) -> int:
    """Parse a human byte size: ``"500M"``, ``"1.5G"``, ``"2048"`` -> bytes.

    Suffixes are binary (K=1024, M=1024**2, ...); a trailing ``B`` is
    accepted (``"500MB"``), case-insensitively.
    """
    if isinstance(text, int):
        if text < 0:
            raise ValueError(f"size must be >= 0, got {text}")
        return text
    raw = text.strip().upper()
    if raw.endswith("B") and len(raw) > 1 and raw[-2] in "KMGT":
        raw = raw[:-1]
    suffix = raw[-1] if raw and raw[-1] in "BKMGT" else ""
    number = raw[: len(raw) - len(suffix)] if suffix else raw
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"invalid size {text!r}: expected e.g. 2048, 500M, or 1.5G"
        ) from None
    if not math.isfinite(value):
        # float("inf") / float("nan") parse but would crash int() below
        # (or poison every cap comparison); reject them as sizes.
        raise ValueError(f"size must be finite, got {text!r}")
    if value < 0:
        raise ValueError(f"size must be >= 0, got {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def _canonical(value: Any) -> Any:
    """Reduce a config to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Enum):
        cls = type(value)
        return {"__enum__": f"{cls.__module__}.{cls.__qualname__}.{value.name}"}
    if isinstance(value, dict):
        return {
            "__mapping__": sorted(
                (str(k), _canonical(v)) for k, v in value.items()
            )
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        # Canonicalize before ordering: set iteration order is
        # hash-randomized, and the old ``repr`` fallback made cache keys for
        # set-valued configs differ from run to run (every lookup a miss).
        return {
            "__set__": sorted(
                (_canonical(v) for v in value),
                key=lambda item: json.dumps(item, sort_keys=True),
            )
        }
    if isinstance(value, float):
        # repr round-trips exactly; JSON float encoding may not.
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return {"__repr__": repr(value)}


def config_key(config: Any) -> str:
    """Stable hex digest of a config's content."""
    blob = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _namespace(fn: Union[str, Callable]) -> str:
    if isinstance(fn, str):
        return fn
    module = getattr(fn, "__module__", type(fn).__module__)
    qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
    return f"{module}.{qualname}"


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """Eviction metadata for one on-disk entry (LRU order: oldest first)."""

    path: Path
    namespace: str
    key: str
    size: int
    last_used: float


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Snapshot of the store plus this process's hit/miss counters."""

    root: str
    version: int
    entries: int
    total_bytes: int
    #: (namespace, entry count, bytes), sorted by namespace.
    by_namespace: Tuple[Tuple[str, int, int], ...]
    hits: int
    misses: int


class ResultCache:
    """Pickle-backed result store keyed by (worker function, config hash).

    ``max_bytes`` / ``max_entries`` make the store self-limiting: every
    ``put`` prunes least-recently-used entries until both caps hold.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 version: int = CACHE_VERSION,
                 max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None):
        if max_bytes is not None and not (max_bytes >= 0):
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and not (max_entries >= 0):
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def path_for(self, fn: Union[str, Callable], config: Any) -> Path:
        return (
            self.root
            / f"v{self.version}"
            / _namespace(fn)
            / f"{config_key(config)}.pkl"
        )

    def get(self, fn: Union[str, Callable], config: Any) -> Tuple[bool, Any]:
        """``(hit, value)``; unreadable or stale entries count as misses.

        A corrupt entry is unlinked on detection so the store never
        accumulates dead weight; the caller re-simulates and the next
        ``put`` overwrites it.  Hits refresh the entry's mtime, which is
        the LRU recency signal used by :meth:`prune`.
        """
        path = self.path_for(fn, config)
        try:
            with open(path, "rb") as fh:
                opened_ino = os.fstat(fh.fileno()).st_ino
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Unpickling arbitrary corruption can raise nearly anything
            # (ValueError from stray opcodes, UnicodeDecodeError, ...);
            # every failure mode is just a miss.  Drop the dead entry —
            # but only if it is still the *same file* we opened: a
            # concurrent writer may have atomically republished a good
            # entry at this path since, and unlinking blindly would
            # delete another process's live result.
            try:
                if path.stat().st_ino == opened_ino:
                    path.unlink()
            except OSError:
                pass
            self.misses += 1
            return False, None
        try:
            os.utime(path)  # mark recently used for LRU eviction
        except OSError:
            pass
        self.hits += 1
        return True, value

    def put(self, fn: Union[str, Callable], config: Any, value: Any) -> Path:
        path = self.path_for(fn, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic publish: concurrent readers never
        #                        observe a half-written entry
        if self.max_bytes is not None or self.max_entries is not None:
            self.prune(max_bytes=self.max_bytes, max_entries=self.max_entries)
        return path

    def clear(self) -> int:
        """Drop every entry for this cache's version; returns the count."""
        count = len(self)
        shutil.rmtree(self.root / f"v{self.version}", ignore_errors=True)
        return count

    # -- introspection and eviction ---------------------------------------

    def entries(self) -> List[CacheEntry]:
        """All entries for this version, least-recently-used first.

        Ties on mtime break by path so eviction order is deterministic.
        """
        versioned = self.root / f"v{self.version}"
        found: List[CacheEntry] = []
        if not versioned.is_dir():
            return found
        for path in versioned.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            found.append(
                CacheEntry(
                    path=path,
                    namespace=path.parent.name,
                    key=path.stem,
                    size=stat.st_size,
                    last_used=stat.st_mtime,
                )
            )
        found.sort(key=lambda e: (e.last_used, str(e.path)))
        return found

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def stats(self) -> CacheStats:
        entries = self.entries()
        grouped: Dict[str, Tuple[int, int]] = {}
        for entry in entries:
            count, size = grouped.get(entry.namespace, (0, 0))
            grouped[entry.namespace] = (count + 1, size + entry.size)
        return CacheStats(
            root=str(self.root),
            version=self.version,
            entries=len(entries),
            total_bytes=sum(e.size for e in entries),
            by_namespace=tuple(
                (name, count, size)
                for name, (count, size) in sorted(grouped.items())
            ),
            hits=self.hits,
            misses=self.misses,
        )

    def prune(self, max_bytes: Optional[int] = None,
              max_entries: Optional[int] = None) -> Tuple[int, int]:
        """Evict LRU entries until both caps hold.

        Returns ``(evicted_count, freed_bytes)``.  ``None`` caps are
        unlimited; with both ``None`` this is a no-op.
        """
        entries = self.entries()
        total = sum(e.size for e in entries)
        count = len(entries)
        evicted = 0
        freed = 0
        for entry in entries:  # oldest first
            over_bytes = max_bytes is not None and total > max_bytes
            over_entries = max_entries is not None and count > max_entries
            if not (over_bytes or over_entries):
                break
            # Tolerate concurrent writers instead of locking: re-stat the
            # entry just before unlinking.  An mtime newer than our
            # snapshot means another process read (touched) or rewrote
            # the entry after we ranked it LRU — it is live now, so skip
            # it rather than evict another process's working set.
            try:
                current = entry.path.stat()
            except OSError:
                total -= entry.size
                count -= 1
                continue  # concurrently removed; treat as already evicted
            if current.st_mtime > entry.last_used:
                continue
            try:
                entry.path.unlink()
            except OSError:
                continue
            total -= entry.size
            count -= 1
            evicted += 1
            freed += entry.size
        return evicted, freed

    def __len__(self) -> int:
        versioned = self.root / f"v{self.version}"
        if not versioned.is_dir():
            return 0
        return sum(1 for _ in versioned.glob("*/*.pkl"))

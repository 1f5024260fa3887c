"""Content-keyed memo cache for CTMC solves.

Many figures revisit the same ``(model, protocol, parameters)`` point:
Table I and Figs. 4-10 all solve the Kazaa defaults, the sensitivity
grid re-solves each decoding for every claim, and ``repro-signaling
all`` regenerates everything in one process.  Keying solutions by the
*content* of the parameter dataclass (not object identity) makes every
repeat a dictionary hit.

The cache is per-process.  Pool workers each grow their own; batch
helpers in :mod:`repro.runtime.solvers` copy worker results back into
the parent's cache so later figures in the same process still hit.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import Any

__all__ = ["SolveCache", "cache_key", "global_cache"]


def cache_key(kind: str, protocol: Any, params: Hashable, extra: Hashable = ()) -> tuple:
    """A hashable content key for one solve.

    ``params`` is any hashable, usually a frozen parameter dataclass,
    which compares and hashes by its field values.  ``extra`` carries
    model inputs outside the parameter object (e.g. a heterogeneous hop
    vector).
    """
    protocol_key = getattr(protocol, "value", protocol)
    return (kind, protocol_key, params, extra)


class SolveCache:
    """A thread-safe bounded memo cache with hit/miss accounting."""

    def __init__(self, maxsize: int | None = 65536) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self._maxsize = maxsize
        self._data: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: tuple, default: Any = None) -> Any:
        """Look up ``key``, counting the hit or miss."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: tuple, value: Any) -> None:
        """Store ``value``; evicts oldest entries beyond ``maxsize``."""
        with self._lock:
            self._data[key] = value
            if self._maxsize is not None:
                while len(self._data) > self._maxsize:
                    self._data.pop(next(iter(self._data)))

    def stats(self) -> dict[str, int]:
        """``{"hits": ..., "misses": ..., "size": ...}``."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "size": len(self._data)}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0


_GLOBAL = SolveCache()


def global_cache() -> SolveCache:
    """The process-wide solve cache used by the batch helpers."""
    return _GLOBAL

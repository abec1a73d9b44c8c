"""Shared bounded-LRU cache machinery for the Tcl compilation layer.

Every hot cache in the interpreter -- the script parse cache, the
compiled-script cache, and the expr AST cache -- is an :class:`LRUCache`
so eviction behaviour and instrumentation are uniform.  The previous
``ParseCache`` wholesale-cleared itself on reaching its size bound,
which thrashes steady-state workloads touching more than ``maxsize``
distinct scripts; true LRU (move-to-end on hit, evict oldest on
insert) keeps the working set resident.

Each cache counts hits, misses and evictions; ``info stats tcl.*``
surfaces the counters and the benchmark harness records hit rates in
``BENCH_tcl_compile.json``.
"""

from collections import OrderedDict

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction and counters."""

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize=512):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """Return the cached value or ``None``; a hit refreshes recency."""
        data = self._data
        value = data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        data.move_to_end(key)
        return value

    def put(self, key, value):
        data = self._data
        if key in data:
            data.move_to_end(key)
        elif len(data) >= self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value
        return value

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def clear(self):
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        self._data.clear()

    def reset_stats(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self):
        """Counters plus the derived hit rate, as a plain dict."""
        lookups = self.hits + self.misses
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

"""Query result cache with update-aware invalidation.

Hop-labeling queries are already cheap; what a cache buys the serving
layer is skipping the *cross-shard fetch* (micro- not nanoseconds, see
``docs/serving.md``) for the hot pairs a Zipf-skewed workload repeats
endlessly.  The cache is a plain LRU over ``(s, t) → bool`` with two
serving-specific twists:

**Negative caching is optional.**  Positive answers are usually the
valuable ones (they gate an action); negative answers can dominate the
key space on sparse graphs.  ``negative_caching=False`` stores only
``True`` answers.

**Invalidation is monotonicity-aware.**  Edge updates change answers
in one direction only:

- *inserting* an edge can only turn answers ``False → True`` — every
  cached positive stays correct, so only negatives are dropped;
- *deleting* an edge can only turn answers ``True → False`` — only
  positives are dropped.

Attach a cache to a live
:class:`~repro.core.dynamic.DynamicReachabilityIndex` with
:meth:`QueryCache.attach` and the right half is evicted on every
applied update; the staleness property (no cached answer ever
disagrees with a full rebuild) is asserted by
``tests/test_serve_cache.py`` using the fuzzer's dynamic-vs-rebuild
oracle as the reference.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import check_count
from repro.pregel.cost_model import DEFAULT_COST_MODEL
from repro.telemetry import tracing


class QueryCache:
    """Bounded LRU cache of reachability answers.

    Parameters
    ----------
    capacity:
        Maximum number of cached pairs; the least recently used entry
        is evicted on overflow.
    negative_caching:
        When False, ``put`` ignores negative answers.
    """

    def __init__(self, capacity: int = 65536, negative_caching: bool = True):
        self.capacity = check_count("capacity", capacity)
        self.negative_caching = negative_caching
        self._entries: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get(self, s: int, t: int) -> bool | None:
        """The cached answer, or ``None`` on a miss."""
        answer = self._entries.get((s, t))
        if answer is None:
            self.misses += 1
            return None
        self._entries.move_to_end((s, t))
        self.hits += 1
        return answer

    def put(self, s: int, t: int, answer: bool) -> None:
        """Cache an answer (a no-op for negatives when disabled)."""
        if not answer and not self.negative_caching:
            return
        entries = self._entries
        if (s, t) in entries:
            entries.move_to_end((s, t))
            entries[(s, t)] = answer
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[(s, t)] = answer

    def clear(self) -> None:
        """Drop every entry (counts them as invalidated)."""
        self.invalidated += len(self._entries)
        self._entries.clear()

    # -- invalidation -------------------------------------------------
    def invalidate_for_update(self, op: str, u: int, v: int) -> int:
        """Evict entries a graph update may have stale-ified.

        Returns the number of entries dropped.  This is the callback
        shape :meth:`DynamicReachabilityIndex.subscribe` expects, so
        ``dynamic.subscribe(cache.invalidate_for_update)`` wires the
        cache directly; :meth:`attach` does exactly that.
        """
        if op == "insert":
            doomed = False  # negatives may have flipped
        elif op in ("delete", "delete_node"):
            doomed = True   # positives may have flipped
        elif op in ("add_node", "promote"):
            return 0        # reachability is unchanged; nothing stales
        else:
            raise ValueError(f"unknown update op {op!r}")
        stale = [key for key, answer in self._entries.items() if answer == doomed]
        for key in stale:
            del self._entries[key]
        self.invalidated += len(stale)
        return len(stale)

    def attach(self, dynamic_index) -> None:
        """Subscribe to a dynamic index's update notifications."""
        dynamic_index.subscribe(self.invalidate_for_update)

    def detach(self, dynamic_index) -> None:
        """Undo :meth:`attach`."""
        dynamic_index.unsubscribe(self.invalidate_for_update)


class CachingBackend:
    """Wrap any :class:`~repro.query.service.QueryBackend` in a cache.

    A hit costs one table probe (``t_op``); a miss pays the probe plus
    the inner backend's full cost, then fills the cache.  A request
    reads the LRU directly: a hit is one probe and a ``move_to_end``, a
    miss fills without testing membership again (the probe just missed)
    — with the same counts and evictions as :meth:`QueryCache.get` then
    :meth:`QueryCache.put`.
    """

    def __init__(self, inner, cache: QueryCache | None = None):
        self.inner = inner
        self.cache = cache if cache is not None else QueryCache()
        self._probe_seconds = DEFAULT_COST_MODEL.t_op
        # Bound once, from the objects given.
        self._entries = self.cache._entries
        self._inner_query = inner.query_with_cost

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        cache = self.cache
        entries = self._entries
        key = (s, t)
        answer = entries.get(key)
        if answer is not None:
            entries.move_to_end(key)
            cache.hits += 1
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.add_stage("cache", self._probe_seconds, hit=True)
            return answer, self._probe_seconds
        cache.misses += 1
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.add_stage("cache", self._probe_seconds, hit=False)
        answer, seconds = self._inner_query(s, t)
        if answer or cache.negative_caching:
            if len(entries) >= cache.capacity:
                entries.popitem(last=False)
                cache.evictions += 1
            entries[key] = answer
        return answer, seconds + self._probe_seconds

"""The one bounded least-recently-used map behind every cross-evaluation cache.

:class:`~repro.perf.cache.SubqueryCache`, the packed kernel's
per-table caches of alignment masks and slices
(:mod:`repro.kernel.packed`), the shared
codec table (:func:`repro.kernel.backend.codec_for`) and the serve
layer's per-process answer-encoding memo
(:func:`repro.serve.workers.encode_rows`) each hold an :class:`LRU`.
None of them is ever invalidated: each key is built from everything its
value was computed from, so changed inputs key to a new entry and the
old one ages out under the bound.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Hashable, Optional, Sequence, Tuple

from repro.obs.metrics import Counter

#: The tallies every :class:`LRU` keeps, in the order it takes them.
TALLIES = ("hits", "misses", "evictions")


def new_tallies(prefix: str = "") -> Tuple[Counter, ...]:
    """Fresh ``(hits, misses, evictions)`` counters named ``prefix + tally``."""
    return tuple(Counter(prefix + name) for name in TALLIES)


class LRU:
    """A map bounded by entry count and, optionally, by summed weight.

    :meth:`put` evicts least-recently-used entries until at most
    ``max_entries`` remain and their weights sum to at most
    ``max_weight``.  Hits, misses and evictions are tallied on the
    ``(hits, misses, evictions)`` counters passed as ``tallies`` —
    registry counters to publish them, or one triple shared by several
    LRUs to tally them together — or on fresh ones.
    """

    __slots__ = (
        "max_entries",
        "max_weight",
        "weight",
        "hits",
        "misses",
        "evictions",
        "_entries",
    )

    def __init__(
        self,
        max_entries: int,
        max_weight: float = math.inf,
        tallies: Optional[Sequence[Counter]] = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.weight = 0
        self.hits, self.misses, self.evictions = (
            tallies if tallies is not None else new_tallies()
        )
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The value stored under ``key``, now most recently used, or
        ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits.inc()
        return entry[0]

    def put(self, key: Hashable, value, weight: int = 0) -> None:
        """Store ``value`` under ``key``, then evict down to both bounds.

        A value heavier than ``max_weight`` on its own is not stored:
        it would evict everything else for one entry.
        """
        if weight > self.max_weight:
            return
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.weight -= old[1]
        entries[key] = (value, weight)
        self.weight += weight
        while len(entries) > self.max_entries or self.weight > self.max_weight:
            self.weight -= entries.popitem(last=False)[1][1]
            self.evictions.inc()


__all__ = ["LRU", "TALLIES", "new_tallies"]

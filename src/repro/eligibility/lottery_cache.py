"""Per-sweep shared eligibility-lottery cache.

``Fmine`` coins are a deterministic function of ``(seed, node, topic)``
and the topic's success probability (:meth:`FMine.mine` seeds a
dedicated RNG stream per ``(seed, "fmine", node, topic)``).  Two protocol
instances built with the same master seed and difficulty schedule
therefore draw *bit-identical* coins — yet each instance recomputes them
from scratch.  A scenario sweep multiplies that waste: an adversary grid
runs the same ``(n, λ, seed)`` lottery once per adversary, and a
resilience sweep once per corruption fraction.

:class:`SharedLotteryCache` memoizes the coin flips across instances.
The cache key covers **everything the flip reads** — the fully derived
seed string (master seed, node, topic) *and* the topic's success
probability — so cells with different ``λ`` or ``n`` (hence different
difficulty) can never alias, and a cache hit is observationally identical
to recomputation.  Only the ideal-world (``fmine``) lottery is shared:
real VRF *evaluations* are already memoized per instance, but their NIZK
proofs consume prover randomness in call order, so sharing them across
instances would change proof bytes (not verdicts) and break the
byte-identical-results contract.

Caches are registered in a process-local table keyed by a ``token`` and
pickle down to that token (see :meth:`SharedLotteryCache.__reduce__`):
shipping a cache to a worker process rebinds it to the *worker's* cache
for the same sweep, so trials that land in the same worker share coins
while processes never share mutable state.  For that to matter the
workers must outlive a single cell — which is why
:func:`~repro.harness.scenarios.run_sweep` keeps **one process pool for
the whole sweep** and submits every cell's trials to it: the per-worker
caches then accumulate coins cell over cell.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, Optional, Tuple

#: Process-local registry: token -> cache.  Worker processes populate
#: their own copy lazily the first time a pickled cache arrives.
_PROCESS_CACHES: Dict[str, "SharedLotteryCache"] = {}

_TOKENS = itertools.count()

#: A fully-derived flip identity: (derived seed string, success probability).
CoinKey = Tuple[str, float]


def shared_cache(token: str) -> "SharedLotteryCache":
    """The process-local cache for ``token``, created on first use."""
    cache = _PROCESS_CACHES.get(token)
    if cache is None:
        cache = SharedLotteryCache(token=token)
    return cache


def release_cache(token: str) -> None:
    """Drop a cache from the process-local registry (sweep teardown)."""
    _PROCESS_CACHES.pop(token, None)


class SharedLotteryCache:
    """Memo of F-mine Bernoulli coins shared across protocol instances."""

    def __init__(self, token: Optional[str] = None) -> None:
        if token is None:
            token = f"lottery-{os.getpid()}-{next(_TOKENS)}"
        self.token = token
        self._coins: Dict[CoinKey, bool] = {}
        self.hits = 0
        self.misses = 0
        _PROCESS_CACHES[self.token] = self

    def coin(self, key: CoinKey, compute: Callable[[], bool]) -> bool:
        """The memoized coin for ``key``, computing it on first sight."""
        try:
            value = self._coins[key]
        except KeyError:
            self.misses += 1
            value = self._coins[key] = compute()
            return value
        self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._coins)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss counters for this process's view of the cache."""
        return {"token": self.token, "coins": len(self._coins),
                "hits": self.hits, "misses": self.misses}

    def __reduce__(self):
        # Pickle down to the token: the receiving process rebinds to its
        # own cache for the same sweep (coins are deterministic, so any
        # process's cache holds the same values for the same keys).
        return (shared_cache, (self.token,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedLotteryCache(token={self.token!r}, "
                f"coins={len(self._coins)}, hits={self.hits}, "
                f"misses={self.misses})")

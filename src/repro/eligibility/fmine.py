"""The ``Fmine`` ideal mining functionality (Figure 1).

    Fmine(1^κ, P)
      On receive mine(m) from node i for the first time:
        Coin[m, i] := Bernoulli(P(m)); return Coin[m, i].
      On receive verify(m, i):
        if mine(m) has been called by node i, return Coin[m, i]; else 0.

Properties implemented faithfully:

- **memoization** — repeated mining attempts on the same ``(m, i)`` reuse
  the first coin;
- **secrecy** — mining requires the node's capability, so no party learns
  an honest node's eligibility before that node chooses to reveal it;
- **verifiability** — anyone can verify a claimed success, and
  verification of a never-mined or failed attempt returns 0 (False).

Coins are drawn from a dedicated deterministic stream keyed by
``(node, topic)`` so executions replay exactly under a fixed seed and are
independent of call order.  A topic is a message up to equality, so its
stream is labelled with every ``bool`` or integral ``float`` spelled as
an ``int``: ``("Vote", 1, True)`` has ``("Vote", 1, 1)``'s coin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.eligibility.base import (
    EligibilitySource,
    MiningCapability,
    Ticket,
    Topic,
)
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.lottery_cache import SharedLotteryCache
from repro.rng import SEPARATOR as _SEP, Seed, derive_seed
from repro.types import NodeId


#: Classes of topic elements that may equal an ``int`` under another repr.
_RESPELLED = frozenset({bool, float})


@dataclass(frozen=True)
class FMineTicket(Ticket):
    """Marker ticket for the hybrid world; validity lives in ``Fmine``."""


class FMine:
    """The trusted party of Figure 1."""

    def __init__(self, schedule: DifficultySchedule, seed: Seed,
                 coin_cache: Optional[SharedLotteryCache] = None) -> None:
        self.schedule = schedule
        self._coin_cache = coin_cache
        # derive_seed(seed, "fmine", node, topic), up to the node label.
        self._seed_prefix = derive_seed(seed, "fmine") + _SEP
        # P(m) per topic, filled when the schedule first accepts it.
        self._probabilities: Dict[Topic, float] = {}
        # Coin[m, i]; insertion-ordered, so also the log of attempts.
        self._coins: Dict[Tuple[NodeId, Topic], bool] = {}

    def mine(self, node_id: NodeId, topic: Topic) -> bool:
        """``Fmine.mine(m)`` from node i; memoized per Figure 1.

        The coin is ``derive_rng(seed, "fmine", node, topic).random() <
        P(topic)``, spelled out in one frame: a silent node's round costs
        little else.  A :class:`SharedLotteryCache` serves it from the
        sweep-wide memo; its key covers the fully derived seed *and* the
        probability, so a hit is the coin this instance would compute.
        """
        key = (node_id, topic)
        coin = self._coins.get(key)
        if coin is None:
            probability = self._probabilities.get(topic)
            if probability is None:
                probability = self.schedule.probability(topic)
                self._probabilities[topic] = probability
            # ``True == 1`` as dict keys: label the stream by the int
            # spelling, whichever spelling comes first (an honest topic
            # holds only str, int and None).
            if not _RESPELLED.isdisjoint(map(type, topic)):
                topic = tuple([int(item) if item.__class__ is bool or (
                    item.__class__ is float and item.is_integer()) else item
                    for item in topic])
            derived = f"{self._seed_prefix}{node_id!r}{_SEP}{topic!r}"
            if self._coin_cache is None:
                coin = random.Random(derived).random() < probability
            else:
                coin = self._coin_cache.coin(
                    (derived, probability),
                    lambda: random.Random(derived).random() < probability)
            self._coins[key] = coin
        return coin

    def verify(self, node_id: NodeId, topic: Topic) -> bool:
        """``Fmine.verify(m, i)``: the recorded coin, else 0."""
        return self._coins.get((node_id, topic), False)


class FMineEligibility(EligibilitySource):
    """Adapter exposing ``Fmine`` through the eligibility interface."""

    def __init__(self, n: int, schedule: DifficultySchedule, seed: Seed,
                 coin_cache: Optional[SharedLotteryCache] = None) -> None:
        self.n = n
        self.fmine = FMine(schedule, seed, coin_cache=coin_cache)
        self._capabilities = [MiningCapability(self, node) for node in range(n)]

    def capability_for(self, node_id: NodeId) -> MiningCapability:
        return self._capabilities[node_id]

    def _mine(self, capability: MiningCapability,
              topic: Topic) -> Optional[FMineTicket]:
        node_id = capability.node_id
        self.check_capability(capability, self._capabilities[node_id])
        if self.fmine.mine(node_id, topic):
            return FMineTicket(node_id=node_id, topic=topic)
        return None

    def verify(self, ticket: Ticket) -> bool:
        if not isinstance(ticket, FMineTicket):
            return False
        if not 0 <= ticket.node_id < self.n:
            return False
        return self.fmine.verify(ticket.node_id, ticket.topic)

    def ticket_bits(self) -> int:
        # Matches what a real ticket would carry (a 256-bit evaluation plus
        # a constant-size proof) so ideal-mode accounting is comparable.
        return 256

"""Communication accounting (Definitions 6 and 7).

- *Classical communication complexity* (Definition 6): total bits
  exchanged between pairs of honest nodes.  A multicast counts as ``n - 1``
  pairwise messages of the same length.
- *Multicast complexity* (Definition 7): total bits **multicast by honest
  nodes**.  This is the headline metric of Theorem 2: the subquadratic
  protocol multicasts ``O(λ²)`` messages of ``O(λ(log κ + log n))`` bits
  regardless of ``n``.

A message is attributed to the honest side iff its sender was so-far-honest
at the moment of sending; subsequent corruption (or after-the-fact removal
of the message) does not retroactively un-count it, matching the paper's
"honest mining attempt" convention (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serialization import encoded_size_bits
from repro.sim.network import Envelope
from repro.types import Round


@dataclass
class CommunicationMetrics:
    n: int
    honest_multicast_count: int = 0
    honest_multicast_bits: int = 0
    honest_unicast_count: int = 0
    honest_unicast_bits: int = 0
    corrupt_multicast_count: int = 0
    corrupt_unicast_count: int = 0
    max_message_bits: int = 0
    per_round_honest_multicasts: Dict[Round, int] = field(default_factory=dict)
    #: Raw (round, bits) event log of honest multicasts, aggregated
    #: lazily by :meth:`per_round_multicast_bits`.
    #: Excluded from equality/repr: it is derived bookkeeping — two
    #: metric states with equal counters are equal regardless of how the
    #: event log happens to be chunked.
    _multicast_bit_events: List[Tuple[Round, int]] = field(
        default_factory=list, compare=False, repr=False)

    def record(self, envelope: Envelope) -> None:
        bits = encoded_size_bits(envelope.payload)
        if envelope.honest_sender:
            self.max_message_bits = max(self.max_message_bits, bits)
            if envelope.is_multicast:
                self.honest_multicast_count += 1
                self.honest_multicast_bits += bits
                per_round = self.per_round_honest_multicasts
                per_round[envelope.round_sent] = (
                    per_round.get(envelope.round_sent, 0) + 1)
                self._multicast_bit_events.append(
                    (envelope.round_sent, bits))
            else:
                self.honest_unicast_count += 1
                self.honest_unicast_bits += bits
        else:
            if envelope.is_multicast:
                self.corrupt_multicast_count += 1
            else:
                self.corrupt_unicast_count += 1

    def per_round_multicast_bits(self) -> Dict[Round, int]:
        """Bits multicast by honest nodes, per round sent.

        Aggregated from the raw event log on demand, in exact integer
        arithmetic, instead of a per-envelope dict update on the staging
        hot path.
        """
        totals_by_round: Dict[Round, int] = {}
        for round_index, bits in self._multicast_bit_events:
            totals_by_round[round_index] = (
                totals_by_round.get(round_index, 0) + bits)
        return totals_by_round

    # -- Definition 7 ----------------------------------------------------
    @property
    def multicast_complexity_bits(self) -> int:
        """Total bits multicast by honest nodes."""
        return self.honest_multicast_bits

    @property
    def multicast_complexity_messages(self) -> int:
        """Total number of honest multicasts."""
        return self.honest_multicast_count

    # -- Definition 6 ----------------------------------------------------
    @property
    def classical_message_count(self) -> int:
        """Honest sends counted as pairwise messages."""
        return (self.honest_multicast_count * (self.n - 1)
                + self.honest_unicast_count)

    @property
    def classical_bits(self) -> int:
        return (self.honest_multicast_bits * (self.n - 1)
                + self.honest_unicast_bits)

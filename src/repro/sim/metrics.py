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
from typing import Dict

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
    _per_round_multicast_bits: Dict[Round, int] = field(
        default_factory=dict, repr=False)

    def record(self, envelope: Envelope) -> None:
        bits = encoded_size_bits(envelope.payload)
        if envelope.honest_sender:
            self.max_message_bits = max(self.max_message_bits, bits)
            if envelope.is_multicast:
                self.honest_multicast_count += 1
                self.honest_multicast_bits += bits
                round_sent = envelope.round_sent
                counts = self.per_round_honest_multicasts
                counts[round_sent] = counts.get(round_sent, 0) + 1
                totals = self._per_round_multicast_bits
                totals[round_sent] = totals.get(round_sent, 0) + bits
            else:
                self.honest_unicast_count += 1
                self.honest_unicast_bits += bits
        else:
            if envelope.is_multicast:
                self.corrupt_multicast_count += 1
            else:
                self.corrupt_unicast_count += 1

    def per_round_multicast_bits(self) -> Dict[Round, int]:
        """Bits multicast by honest nodes, per round sent (exact integers)."""
        return self._per_round_multicast_bits

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

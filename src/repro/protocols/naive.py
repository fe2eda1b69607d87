"""Deliberately cheap deterministic broadcast protocols.

Lower-bound targets for the Dolev–Reischuk harness (Section 2 warmup):
protocols that spend far fewer than ``(f/2)²`` messages and are therefore
provably attackable.  They are *correct in the all-honest case* — the
point is exactly that correctness without enough messages cannot survive
``f`` corruptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.rng import Seed
from repro.sim.node import Node, RoundContext
from repro.types import BROADCAST_SENDER, Bit, NodeId


@dataclass(frozen=True)
class NaiveBit:
    """The sender's (or a relayer's) bare bit."""

    bit: Bit


class NaiveBroadcastNode(Node):
    """Sender unicasts its bit to everyone; everyone echoes once through a
    sparse relay set; nodes output the first bit heard, or a default.

    ``default_when_silent`` is the bit a node outputs if it never hears
    anything — the Dolev–Reischuk attack turns exactly this default
    against the protocol.
    """

    def __init__(self, node_id: NodeId, n: int,
                 sender: NodeId, sender_input: Optional[Bit],
                 relay_width: int, total_rounds: int,
                 default_when_silent: Bit = 1) -> None:
        super().__init__(node_id, n)
        self.sender = sender
        self.sender_input = sender_input
        self.relay_width = relay_width
        self.total_rounds = total_rounds
        self.default_when_silent = default_when_silent
        self.heard: Optional[Bit] = None
        self._relayed = False

    def _relay_targets(self) -> Sequence[NodeId]:
        """A fixed sparse set of successors (deterministic protocol)."""
        return [(self.node_id + offset + 1) % self.n
                for offset in range(self.relay_width)]

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round == 0 and self.node_id == self.sender:
            bit = self.sender_input if self.sender_input is not None else 0
            self.heard = bit
            for recipient in range(self.n):
                if recipient != self.node_id:
                    ctx.send(recipient, NaiveBit(bit=bit))
            self._relayed = True
        for delivery in ctx.inbox:
            msg = delivery.payload
            if isinstance(msg, NaiveBit) and msg.bit in (0, 1):
                if self.heard is None:
                    self.heard = msg.bit
        if (self.heard is not None and not self._relayed
                and self.relay_width > 0):
            self._relayed = True
            for recipient in self._relay_targets():
                if recipient != self.node_id:
                    ctx.send(recipient, NaiveBit(bit=self.heard))
        if ctx.round >= self.total_rounds - 1:
            self.decide(self.finalize(), ctx.round)
            self.halted = True

    def output(self) -> Optional[Bit]:
        return self.finalize() if self.halted else None

    def finalize(self) -> Bit:
        return self.heard if self.heard is not None else self.default_when_silent


def build_naive_broadcast(
    n: int,
    f: int,
    sender_input: Bit,
    seed: Seed = 0,
    sender: NodeId = BROADCAST_SENDER,
    relay_width: int = 2,
    total_rounds: int = 4,
    default_when_silent: Bit = 1,
) -> ProtocolInstance:
    """A deterministic broadcast spending ``O(n · relay_width)`` messages."""
    if not 0 <= f < n:
        raise ConfigurationError(f"need 0 <= f < n, got f={f}, n={n}")
    nodes = [
        NaiveBroadcastNode(
            node_id, n, sender,
            sender_input if node_id == sender else None,
            relay_width, total_rounds, default_when_silent)
        for node_id in range(n)
    ]
    return ProtocolInstance(
        name="naive-broadcast",
        nodes=nodes,
        max_rounds=total_rounds,
        inputs={sender: sender_input},
        signing_capabilities=[],
        mining_capabilities=[],
    )

"""Dolev–Strong authenticated Byzantine Broadcast [13].

The classic baseline the paper's Section 1 positions against: tolerates
any ``f < n`` corruptions given a PKI, runs in ``f + 1`` rounds, and
inherently costs at least quadratic communication — every node relays
every newly-extracted bit with its signature chain.

Protocol (signature chains):

- Round 0: the designated sender signs its bit and multicasts it.
- Round ``r``: upon receiving a bit with a chain of ``r`` valid signatures
  from distinct nodes, the first being the sender's, a node adds the bit
  to its extracted set; if ``r <= f`` it appends its own signature and
  multicasts the extended chain (once per bit).
- After round ``f + 1``: output the unique extracted bit, else a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Set, Tuple

from repro.crypto.registry import KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.rng import Seed
from repro.sim.node import Node, RoundContext
from repro.types import BROADCAST_SENDER, Bit, NodeId


@dataclass(frozen=True)
class ChainMsg:
    """A bit with its signature chain ``((signer, signature), ...)``."""

    bit: Bit
    chain: Tuple[Tuple[NodeId, Any], ...]


class DolevStrongNode(Node):
    """One party of Dolev–Strong broadcast."""

    def __init__(self, node_id: NodeId, n: int, f: int,
                 registry: KeyRegistry,
                 sender: NodeId = BROADCAST_SENDER,
                 sender_input: Optional[Bit] = None,
                 default_output: Bit = 0) -> None:
        super().__init__(node_id, n)
        self.f = f
        self.registry = registry
        self.sender = sender
        self.sender_input = sender_input
        self.default_output = default_output
        self.extracted: Set[Bit] = set()
        self._relayed: Set[Bit] = set()
        self._capability = registry.capability_for(node_id)

    def _chain_valid(self, msg: ChainMsg, round_index: int) -> bool:
        """A round-r acceptance needs r distinct valid signatures,
        starting with the sender's."""
        if msg.bit not in (0, 1):
            return False
        chain = msg.chain
        if len(chain) < round_index:
            return False
        signers = [signer for signer, _sig in chain]
        if len(set(signers)) != len(signers):
            return False
        if not signers or signers[0] != self.sender:
            return False
        return all(
            self.registry.verify(signer, ("ds", self.sender, msg.bit), signature)
            for signer, signature in chain
        )

    def _extract_and_relay(self, ctx: RoundContext, msg: ChainMsg) -> None:
        if msg.bit in self.extracted:
            return
        if not self._chain_valid(msg, ctx.round):
            return
        self.extracted.add(msg.bit)
        if ctx.round <= self.f and msg.bit not in self._relayed:
            self._relayed.add(msg.bit)
            own = self._capability.sign(("ds", self.sender, msg.bit))
            ctx.multicast(ChainMsg(
                bit=msg.bit, chain=msg.chain + ((self.node_id, own),)))

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round == 0:
            if self.node_id == self.sender:
                bit = self.sender_input if self.sender_input is not None else 0
                signature = self._capability.sign(("ds", self.sender, bit))
                ctx.multicast(ChainMsg(bit=bit,
                                       chain=((self.sender, signature),)))
                self.extracted.add(bit)
                self._relayed.add(bit)
            return
        for delivery in ctx.inbox:
            if isinstance(delivery.payload, ChainMsg):
                self._extract_and_relay(ctx, delivery.payload)
        if ctx.round >= self.f + 1:
            self.decide(self.finalize(), ctx.round)
            self.halted = True

    def output(self) -> Optional[Bit]:
        if not self.halted:
            return None
        return self.finalize()

    def finalize(self) -> Bit:
        if len(self.extracted) == 1:
            return next(iter(self.extracted))
        return self.default_output


def build_dolev_strong(
    n: int,
    f: int,
    sender_input: Bit,
    seed: Seed = 0,
    sender: NodeId = BROADCAST_SENDER,
) -> ProtocolInstance:
    """Dolev–Strong broadcast; tolerates any ``f < n``."""
    if not 0 <= f < n:
        raise ConfigurationError(f"need 0 <= f < n, got f={f}, n={n}")
    registry = KeyRegistry(n)
    nodes = [
        DolevStrongNode(
            node_id, n, f, registry, sender=sender,
            sender_input=sender_input if node_id == sender else None)
        for node_id in range(n)
    ]
    return ProtocolInstance(
        name="dolev-strong",
        nodes=nodes,
        max_rounds=f + 3,
        inputs={sender: sender_input},
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
    )

"""Byzantine Broadcast from BA (the Section 1.1 reduction).

*"Given an adaptively secure BA protocol, one can construct an adaptively
secure Byzantine Broadcast protocol by first having the designated sender
multicast its input to everyone, and then having everyone invoke the BA
instance [with the received bit as input].  If the BA scheme is
communication efficient, so is the resulting Byzantine Broadcast
scheme."*

The wrapper adds exactly one round: round 0 is the sender's input
multicast (channel-authenticated); from round 1 on, the wrapped BA nodes
run unmodified with their rounds shifted by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.sim.node import Node, RoundContext
from repro.types import BROADCAST_SENDER, Bit, NodeId


@dataclass(frozen=True)
class SenderInputMsg:
    """The designated sender's input announcement (round 0)."""

    bit: Bit
    sender: NodeId


class BroadcastNode(Node):
    """Wraps a BA node: learn the sender's bit, then run BA on it."""

    def __init__(self, inner: Node, sender: NodeId,
                 sender_input: Optional[Bit], default_input: Bit = 0) -> None:
        super().__init__(inner.node_id, inner.n)
        self.inner = inner
        self.sender = sender
        self.sender_input = sender_input
        self.default_input = default_input
        self.received_input: Optional[Bit] = None

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round == 0:
            if self.node_id == self.sender and self.sender_input is not None:
                ctx.multicast(SenderInputMsg(bit=self.sender_input,
                                             sender=self.sender))
                self.received_input = self.sender_input
            return
        if ctx.round == 1:
            for delivery in ctx.inbox:
                msg = delivery.payload
                # Channel authentication: trust only the true sender's
                # announcement, first one wins on equivocation.
                if (isinstance(msg, SenderInputMsg)
                        and delivery.sender == self.sender
                        and msg.bit in (0, 1)
                        and self.received_input is None):
                    self.received_input = msg.bit
            ba_input = (self.received_input if self.received_input is not None
                        else self.default_input)
            # Install the BA input on whichever state the inner node uses.
            self.inner.input_bit = ba_input
            if hasattr(self.inner, "belief"):
                self.inner.belief = ba_input
        # Delegate to the BA node with the round shifted down by one and
        # the sender announcement filtered out of the inbox.
        inner_ctx = RoundContext(
            self.node_id, ctx.round - 1,
            [d for d in ctx.inbox if not isinstance(d.payload, SenderInputMsg)],
            ctx.rng)
        self.inner.on_round(inner_ctx)
        ctx.staged.extend(inner_ctx.staged)
        self.halted = self.inner.halted
        if self.inner.decided_round is not None and self.decided_round is None:
            self.decide(self.inner.output(), ctx.round)

    def output(self) -> Optional[Bit]:
        return self.inner.output()

    def finalize(self) -> Bit:
        return self.inner.finalize()

    def reveal_state(self) -> dict:
        state = dict(vars(self))
        state["inner_state"] = self.inner.reveal_state()
        return state


def build_broadcast_from_ba(
    ba_builder: Callable[..., ProtocolInstance],
    n: int,
    f: int,
    sender_input: Bit,
    sender: NodeId = BROADCAST_SENDER,
    default_input: Bit = 0,
    **ba_kwargs,
) -> ProtocolInstance:
    """Wrap any agreement-protocol builder into a broadcast protocol.

    The BA instance is built with all-``default_input`` placeholder inputs
    — real inputs are installed in round 1 from the sender's multicast.
    """
    if sender_input not in (0, 1):
        raise ConfigurationError("sender input must be a bit")
    placeholder_inputs: Sequence[Bit] = [default_input] * n
    instance = ba_builder(n=n, f=f, inputs=placeholder_inputs, **ba_kwargs)
    nodes = [
        BroadcastNode(
            inner, sender,
            sender_input if inner.node_id == sender else None,
            default_input)
        for inner in instance.nodes
    ]
    return ProtocolInstance(
        name=f"broadcast[{instance.name}]",
        nodes=nodes,
        max_rounds=instance.max_rounds + 1,
        inputs={sender: sender_input},
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        authenticator=instance.authenticator,
        config=instance.config,
    )

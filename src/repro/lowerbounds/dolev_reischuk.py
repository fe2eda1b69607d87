"""The Dolev–Reischuk experiment (Section 2 warmup).

For a *deterministic* broadcast protocol the paper's two-step argument is
directly executable:

1. **Run 1 (adversary A)** — corrupt a set ``V`` of ``f/2`` nodes (not the
   sender).  Each member behaves honestly except it (i) ignores the first
   ``f/2`` messages sent to it and (ii) never talks to other members of
   ``V``.  Count the messages honest nodes send into ``V``.
2. If some ``p ∈ V`` received at most ``f/2`` messages, **Run 2
   (adversary A')** — don't corrupt ``p``; instead corrupt exactly the
   senders ``S(p)`` observed in Run 1 and have them behave honestly except
   that they never send to ``p``.  Determinism makes Run 2's view
   identical to Run 1 for everyone outside ``S(p) ∪ {p}`` — so they output
   the Run-1 bit, while ``p``, having heard nothing, outputs its
   silent-default.  If the two differ, consistency is violated.

Protocols that send **more** than ``(f/2)²`` messages into ``V`` (e.g.
Dolev–Strong) leave no such ``p`` and the harness reports the attack
infeasible — the executable content of the ``Ω(f²)`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.adversaries.sandbox import Deaf, SandboxAdversary
from repro.errors import ConfigurationError
from repro.harness.runner import run_instance
from repro.protocols.base import ProtocolInstance
from repro.sim.conditions import NetworkConditions
from repro.sim.network import Delivery, Envelope
from repro.types import AdversaryModel, Bit, NodeId, Round


class _IgnoringSetAdversary(SandboxAdversary):
    """Adversary A: V behaves honestly, deaf for f/2 messages, mute to V."""

    name = "dolev-reischuk-A"

    def __init__(self, corrupt_set: Sequence[NodeId], ignore_first: int) -> None:
        super().__init__()
        self.corrupt_set = list(corrupt_set)
        self._inbox_filter = Deaf(corrupt_set, ignore_first)
        #: messages (from so-far-honest nodes) addressed into V, per member.
        self.received_by: Dict[NodeId, int] = {node: 0 for node in corrupt_set}
        #: distinct honest senders observed attempting to reach each member.
        self.senders_to: Dict[NodeId, Set[NodeId]] = {
            node: set() for node in corrupt_set}

    def on_setup(self) -> None:
        for node_id in self.corrupt_set:
            self.sandbox.adopt(self.api.corrupt(node_id))

    def _send_filter(self, node_id: NodeId, recipient: Optional[NodeId],
                     payload) -> bool:
        # (ii): V members do not send messages to each other.
        return recipient not in self.received_by or recipient is None

    def observe_deliveries(self, round_index: Round,
                           inboxes: Dict[NodeId, List[Delivery]]) -> None:
        self.sandbox.step(inboxes, inbox_filter=self._inbox_filter,
                          send_filter=self._send_filter)

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        member_set = self.received_by
        for envelope in staged:
            if not envelope.honest_sender:
                continue
            if envelope.is_multicast:
                recipients = [node for node in member_set
                              if node != envelope.sender]
            elif envelope.recipient in member_set:
                recipients = [envelope.recipient]
            else:
                continue
            for recipient in recipients:
                self.received_by[recipient] += 1
                self.senders_to[recipient].add(envelope.sender)


class _PrimeAdversary(SandboxAdversary):
    """Adversary A': "almost identical to A" (Section 2).

    Keeps corrupting ``V \\ {p}`` with A's deaf/mute behaviour, leaves the
    starved member ``p`` honest, and additionally corrupts the senders
    ``S(p)``, who behave honestly except that they never send to ``p``.
    Total corruptions: ``|V| - 1 + |S(p)| <= f``.
    """

    name = "dolev-reischuk-A-prime"

    def __init__(self, corrupt_set: Sequence[NodeId], victim: NodeId,
                 senders: Sequence[NodeId], ignore_first: int) -> None:
        super().__init__()
        self.v_members = [node for node in corrupt_set if node != victim]
        self.v_set = set(corrupt_set)  # including p: V stays mute towards p
        self.victim = victim
        self.senders = [node for node in senders if node not in self.v_set]
        self._inbox_filter = Deaf(self.v_members, ignore_first)

    def on_setup(self) -> None:
        for node_id in self.v_members:
            self.sandbox.adopt(self.api.corrupt(node_id))
        for node_id in self.senders:
            self.sandbox.adopt(self.api.corrupt(node_id))

    def _send_filter(self, node_id: NodeId, recipient: Optional[NodeId],
                     payload) -> bool:
        if node_id in self.v_set:
            # V members: mute towards V (including p), as under A.
            return recipient is None or recipient not in self.v_set
        # S(p) members: honest except towards the victim.
        return recipient is not None and recipient != self.victim

    def observe_deliveries(self, round_index: Round,
                           inboxes: Dict[NodeId, List[Delivery]]) -> None:
        self.sandbox.step(inboxes, inbox_filter=self._inbox_filter,
                          send_filter=self._send_filter)

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        return None


@dataclass
class DolevReischukReport:
    """Outcome of the two-run experiment."""

    protocol: str
    n: int
    f: int
    message_budget: int  # (f/2)^2, the bound being probed
    messages_into_v: int
    victim: Optional[NodeId]
    victim_message_count: Optional[int]
    senders_to_victim: int
    attack_feasible: bool
    honest_output_run1: Optional[Bit]
    victim_output_run2: Optional[Bit]
    others_output_run2: Optional[Bit]
    consistency_violated: bool


def run_dolev_reischuk_attack(
    builder: Callable[..., ProtocolInstance],
    n: int,
    f: int,
    sender_input: Bit,
    seed=0,
    sender: NodeId = 0,
    conditions: Optional[NetworkConditions] = None,
    **builder_kwargs,
) -> DolevReischukReport:
    """Execute the A / A' experiment against a deterministic protocol.

    The builder must accept ``(n, f, sender_input, seed, **kwargs)`` and
    produce a broadcast :class:`ProtocolInstance` (node 0 = sender by
    default).  The protocol must be deterministic for Run 2's
    view-identity argument to hold — the harness replays it with the same
    seed.

    ``conditions`` runs both executions under partial synchrony — a
    partition *study*.  Each run is still deterministic (the network's
    coins derive from the shared seed), but the view-identity argument is
    stated for lock-step delivery: Run 2's different send pattern shifts
    the network's coin stream, so a conditioned report is an empirical
    observation about the attack's robustness, not the Ω(f²) proof.
    """
    if f < 2:
        raise ConfigurationError("the experiment needs f >= 2")
    half_f = f // 2
    corrupt_set = [node for node in range(n) if node != sender][:half_f]

    # ---- Run 1: adversary A --------------------------------------------
    instance = builder(n=n, f=f, sender_input=sender_input, seed=seed,
                       **builder_kwargs)
    adversary_a = _IgnoringSetAdversary(corrupt_set, ignore_first=half_f)
    result_a = run_instance(instance, f, adversary_a,
                            model=AdversaryModel.ADAPTIVE, seed=seed,
                            conditions=conditions)
    messages_into_v = sum(adversary_a.received_by.values())
    honest_outputs = set(result_a.honest_outputs)
    honest_bit = honest_outputs.pop() if len(honest_outputs) == 1 else None

    # ---- Find the starved member p ----------------------------------------
    victim: Optional[NodeId] = None
    victim_count: Optional[int] = None
    for node_id in corrupt_set:
        count = adversary_a.received_by[node_id]
        if count <= half_f and (victim_count is None or count < victim_count):
            victim = node_id
            victim_count = count
    feasible = victim is not None
    senders_to_victim = (len(adversary_a.senders_to[victim]) if feasible else 0)

    victim_output: Optional[Bit] = None
    others_output: Optional[Bit] = None
    violated = False
    if feasible:
        # ---- Run 2: adversary A' ----------------------------------------
        instance2 = builder(n=n, f=f, sender_input=sender_input, seed=seed,
                            **builder_kwargs)
        suppressors = sorted(adversary_a.senders_to[victim])
        adversary_ap = _PrimeAdversary(corrupt_set, victim, suppressors,
                                       ignore_first=half_f)
        result_ap = run_instance(instance2, f, adversary_ap,
                                 model=AdversaryModel.ADAPTIVE, seed=seed,
                                 conditions=conditions)
        victim_output = result_ap.outputs.get(victim)
        other_nodes = [node for node in result_ap.forever_honest
                       if node != victim]
        other_bits = {result_ap.outputs[node] for node in other_nodes}
        others_output = other_bits.pop() if len(other_bits) == 1 else None
        violated = (victim_output is not None and others_output is not None
                    and victim_output != others_output)

    return DolevReischukReport(
        protocol=instance.name,
        n=n,
        f=f,
        message_budget=half_f * half_f,
        messages_into_v=messages_into_v,
        victim=victim,
        victim_message_count=victim_count,
        senders_to_victim=senders_to_victim,
        attack_feasible=feasible,
        honest_output_run1=honest_bit,
        victim_output_run2=victim_output,
        others_output_run2=others_output,
        consistency_violated=violated,
    )

"""Theorem 3: the hypothetical experiment ``(input: 0) Q --- 1 --- Q'`` (input: 1).

A custom router runs ``2n - 1`` honest protocol instances:

- the *bridge* node (id 0 here; "node 1" in the paper) participates in
  both executions — whatever it multicasts is delivered to both sides, and
  it receives both sides' messages under the *same* claimed sender ids;
- the left side ``Q`` (ids 1..n-1) runs with the designated sender's
  input 0; the right side ``Q'`` (same ids!) runs with input 1.

Under the **shared random-oracle setup** (one ``Fmine`` lottery keyed only
by node *number*, which is all a setup-free world can offer), both sides'
messages verify everywhere, each side reaches its own validity-mandated
output (0 on the left, 1 on the right) — and the bridge node, one machine,
must disagree with one of the two sides it is "honestly consistent" with.
That is the contradiction: whichever side is real, consistency or validity
fails, and the adversary of the honest-1 interpretation needs only
``#(distinct right-side speakers) ≈ C`` adaptive corruptions to realise it.

Under a **PKI** the same construction collapses: the simulated side's
eligibility proofs verify against *its own* keys, not the published PKI,
so the bridge rejects every right-side message — the experiment can no
longer tear the bridge in two.  This is the executable content of "some
setup assumption is necessary".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMineEligibility
from repro.eligibility.vrf_eligibility import VrfEligibility
from repro.errors import ConfigurationError
from repro.protocols.broadcast import build_broadcast_from_ba
from repro.protocols.phase_king_subquadratic import build_phase_king_subquadratic
from repro.rng import Seed, derive_rng, derive_seed
from repro.sim.network import Delivery
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId, SecurityParameters

SHARED_RO_SETUP = "shared-ro"
PKI_SETUP = "pki"

#: The designated sender on each side ("node 2" in the paper's numbering).
SIDE_SENDER: NodeId = 1


@dataclass
class HypotheticalReport:
    protocol: str
    n: int
    setup: str
    rounds: int
    left_outputs: Set[Bit]
    right_outputs: Set[Bit]
    bridge_output: Bit
    #: Left validity + right validity + a torn bridge: the Thm 3 clash.
    contradiction: bool
    #: Corruptions the honest-1 interpretation needs: distinct Q' speakers.
    right_speakers: int
    #: Honest multicasts of one side (the protocol's multicast complexity).
    left_multicasts: int
    #: Right-side messages whose eligibility failed at the bridge's PKI.
    bridge_rejections: int


def _build_side(n: int, f: int, sender_input: Bit, seed: Seed,
                params: SecurityParameters, epochs: int, eligibility):
    return build_broadcast_from_ba(
        build_phase_king_subquadratic,
        n=n, f=f, sender_input=sender_input, sender=SIDE_SENDER,
        seed=seed, params=params, epochs=epochs, eligibility=eligibility)


def run_hypothetical_experiment(
    n: int,
    seed: Seed = 0,
    params: SecurityParameters = SecurityParameters(lam=30),
    epochs: int = 8,
    setup: str = SHARED_RO_SETUP,
) -> HypotheticalReport:
    """Run the 2n-1-node experiment and report the (non-)contradiction."""
    if n < 5:
        raise ConfigurationError("the experiment needs n >= 5")
    if setup not in (SHARED_RO_SETUP, PKI_SETUP):
        raise ConfigurationError(f"unknown setup {setup!r}")
    schedule = DifficultySchedule.for_parameters(params, n)
    if setup == SHARED_RO_SETUP:
        # One lottery for both sides: identity is just a number, exactly
        # what a random oracle without keys provides.
        shared = FMineEligibility(n, schedule, seed)
        left_eligibility = right_eligibility = shared
    else:
        # Independent key material per side: the simulated side cannot
        # know the real side's secret keys.
        left_eligibility = VrfEligibility(n, schedule, derive_seed_left(seed))
        right_eligibility = VrfEligibility(n, schedule, derive_seed_right(seed))

    f_unused = max(1, (n - 1) // 4)
    left = _build_side(n, f_unused, 0, seed, params, epochs, left_eligibility)
    right = _build_side(n, f_unused, 1, seed, params, epochs, right_eligibility)

    left_nodes: List[Node] = left.nodes
    right_nodes: List[Node] = right.nodes  # index 0 is never stepped
    bridge = left_nodes[0]

    max_rounds = left.max_rounds
    # Per-destination staging: messages delivered next round.
    pending_left: List[Delivery] = []
    pending_right: List[Delivery] = []
    pending_bridge: List[Delivery] = []

    right_speakers: Set[NodeId] = set()
    left_multicasts = 0
    bridge_rejections = 0

    def bridge_would_reject(payload) -> bool:
        ticket = getattr(payload, "auth", None)
        if ticket is None:
            return False
        inner_ticket = getattr(ticket, "ticket", ticket)
        try:
            return not left_eligibility.verify(inner_ticket)
        except Exception:
            return True

    rounds_run = 0
    for round_index in range(max_rounds):
        inbox_left = list(pending_left)
        inbox_right = list(pending_right)
        inbox_bridge = list(pending_bridge)
        pending_left, pending_right, pending_bridge = [], [], []

        # -- bridge node: one machine in both executions -----------------
        if not bridge.halted:
            ctx = RoundContext(0, round_index, inbox_bridge,
                               derive_rng(seed, "bridge-node"))
            bridge.on_round(ctx)
            for _recipient, payload in ctx.staged:
                pending_left.append(Delivery(sender=0, payload=payload))
                pending_right.append(Delivery(sender=0, payload=payload))

        # -- left side Q ---------------------------------------------------
        for node in left_nodes[1:]:
            if node.halted:
                continue
            ctx = RoundContext(node.node_id, round_index, inbox_left,
                               derive_rng(seed, "L-node", node.node_id))
            node.on_round(ctx)
            for _recipient, payload in ctx.staged:
                left_multicasts += 1
                delivery = Delivery(sender=node.node_id, payload=payload)
                pending_left.append(delivery)
                pending_bridge.append(delivery)

        # -- right side Q' ---------------------------------------------------
        for node in right_nodes[1:]:
            if node.halted:
                continue
            ctx = RoundContext(node.node_id, round_index, inbox_right,
                               derive_rng(seed, "R-node", node.node_id))
            node.on_round(ctx)
            for _recipient, payload in ctx.staged:
                right_speakers.add(node.node_id)
                delivery = Delivery(sender=node.node_id, payload=payload)
                pending_right.append(delivery)
                if bridge_would_reject(payload):
                    bridge_rejections += 1
                pending_bridge.append(delivery)

        rounds_run = round_index + 1
        all_halted = (bridge.halted
                      and all(node.halted for node in left_nodes[1:])
                      and all(node.halted for node in right_nodes[1:]))
        if all_halted:
            break

    left_outputs = {node.finalize() for node in left_nodes[1:]}
    right_outputs = {node.finalize() for node in right_nodes[1:]}
    bridge_output = bridge.finalize()
    # The Theorem 3 clash requires the bridge to be a *verification-clean*
    # member of both executions: each side satisfied validity AND nothing
    # was rejected at the bridge.  With a PKI the rejections break the
    # experiment — no contradiction can be derived.
    contradiction = (left_outputs == {0} and right_outputs == {1}
                     and bridge_rejections == 0)
    return HypotheticalReport(
        protocol=left.name,
        n=n,
        setup=setup,
        rounds=rounds_run,
        left_outputs=left_outputs,
        right_outputs=right_outputs,
        bridge_output=bridge_output,
        contradiction=contradiction,
        right_speakers=len(right_speakers),
        left_multicasts=left_multicasts,
        bridge_rejections=bridge_rejections,
    )


def derive_seed_left(seed: Seed) -> str:
    return derive_seed(seed, "left-pki")


def derive_seed_right(seed: Seed) -> str:
    return derive_seed(seed, "right-pki")

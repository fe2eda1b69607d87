"""GST-aware early-stopping variants of the warmup protocols.

The paper's protocols are stated against a worst-case round budget:
phase-king always runs its ``R = ω(log κ)`` epochs, and the iterated BA
provisions ``max_iterations`` iterations even though it usually decides
in the first.  Their practical cost under a *good* network is therefore
the budget, not the behaviour — the "optimistic responsiveness" gap that
Momose–Ren (Optimal Communication Complexity of Authenticated Byzantine
Agreement) and Cohen–Keidar–Spiegelman (Make Every Word Count) close for
their protocols.

These builders produce variants that close it here: nodes watch for a
*certified round* — an iteration or epoch whose authenticated messages
are unanimous across all ``n`` nodes — and terminate the moment one is
observed, exposing the payoff as ``rounds_saved`` on
:class:`~repro.sim.result.ExecutionResult` and
:class:`~repro.harness.runner.TrialStats`.

The "GST-aware" part is what keeps the detectors sound under partial
synchrony: a unanimous-looking round observed while the network may
still drop copies (before GST) or hold them behind an unhealed
partition can be an artifact of one node's view, and acting on it
breaks agreement.  The builders therefore accept the execution's
:class:`~repro.sim.conditions.NetworkConditions` and gate detection on
:attr:`~repro.sim.conditions.NetworkConditions.trusted_send_round` —
the first protocol round whose sends provably reach every honest node.
Under lock-step (``conditions=None`` or perfect) every round is
trusted, and under adversarial corruption the detectors simply never
fire (a crashed node ACKs nothing, so unanimity is unobservable):
``rounds_saved`` degrades to 0 and the variants behave exactly like
their fixed-budget originals.

See ``docs/PROTOCOLS.md`` for the per-protocol safety arguments.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.protocols.base import ProtocolInstance
from repro.protocols.phase_king import DEFAULT_EPOCHS, build_phase_king
from repro.protocols.quadratic_ba import (
    DEFAULT_MAX_ITERATIONS,
    build_quadratic_ba,
)
from repro.rng import Seed
from repro.sim.conditions import NetworkConditions
from repro.sim.leader import LeaderOracle
from repro.types import Bit, Round

__all__ = [
    "build_phase_king_early_stop",
    "build_quadratic_ba_early_stop",
    "trusted_send_round_for",
]


def trusted_send_round_for(conditions: Optional[NetworkConditions]) -> Round:
    """The first protocol round the early-stop detectors may trust.

    ``None`` (and perfect conditions) is lock-step synchrony: every
    round's sends reach everyone, so detection is trusted from round 0.
    """
    if conditions is None:
        return 0
    return conditions.trusted_send_round


def build_quadratic_ba_early_stop(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Quadratic BA with the unanimous-vote fast decide.

    Identical to :func:`build_quadratic_ba` until some iteration's votes
    are unanimous — authenticated votes for one bit from all ``n`` nodes
    — at a trusted round; then the node decides at the Commit round
    instead of waiting a further round for the commit quorum.  Sound
    because a unanimous vote round leaves at most ``f < f + 1`` possible
    opposite votes, so no conflicting certificate can ever form; the
    node still multicasts its own commit first, so slower nodes (whose
    view an equivocating adversary can keep just short of unanimity)
    terminate through the unchanged quorum machinery.
    """
    instance = build_quadratic_ba(
        n, f, inputs, seed=seed, max_iterations=max_iterations,
        oracle=oracle)
    config = instance.config
    config.early_stop_unanimity = True
    config.trusted_send_round = trusted_send_round_for(conditions)
    instance.name = "quadratic-ba-early-stop"
    return instance


def build_phase_king_early_stop(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    epochs: int = DEFAULT_EPOCHS,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Phase-king with unanimity-certificate early stopping.

    Identical to :func:`build_phase_king` until some epoch's ACKs are
    unanimous — authenticated ACKs for one bit from all ``n`` nodes — at
    a trusted round; then the node multicasts the ACK set as a
    transferable unanimity certificate
    (:class:`~repro.protocols.messages.PhaseKingDecideMsg`) and halts.
    Every other honest node receives the certificate, adopts the bit,
    and halts one round later, so the whole execution finishes in
    ``O(convergence)`` epochs instead of the fixed ``R`` — the dominant
    saving, since phase-king never stops early on its own.
    """
    instance = build_phase_king(
        n, f, inputs, seed=seed, epochs=epochs, oracle=oracle)
    config = instance.config
    config.early_stop_unanimity = True
    config.trusted_send_round = trusted_send_round_for(conditions)
    instance.name = "phase-king-early-stop"
    return instance

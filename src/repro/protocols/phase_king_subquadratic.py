"""Section 3.2: the phase-king warmup compiled with bit-specific eligibility.

Changes relative to :mod:`repro.protocols.phase_king`, exactly as the
paper lists them:

- every multicast becomes a conditional multicast gated by
  ``VRF(ACK, r, b) < D`` — eligibility is **bit-specific**;
- the ACK threshold ``2n/3`` becomes ``2λ/3``;
- the leader-election oracle disappears: a node proposes its epoch coin
  ``b`` iff ``VRF(Propose, r, b) < D0``;
- every received message's eligibility proof is verified.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.protocols.base import (
    EligibilityAuthenticator,
    ProposerPolicy,
    ProtocolInstance,
)
from repro.protocols.phase_king import (
    DEFAULT_EPOCHS,
    SCHEDULE,
    PhaseKingConfig,
    PhaseKingNode,
)
from repro.protocols.subquadratic_ba import FMINE_MODE, make_eligibility
from repro.rng import Seed
from repro.types import Bit, NodeId, SecurityParameters


def ack_threshold(params: SecurityParameters) -> int:
    """The ``2λ/3`` quorum threshold of Section 3.2."""
    return max(1, math.ceil(2 * params.lam / 3))


def build_phase_king_subquadratic(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    params: SecurityParameters = SecurityParameters(),
    epochs: int = DEFAULT_EPOCHS,
    mode: str = FMINE_MODE,
    eligibility=None,
    coin_cache=None,
) -> ProtocolInstance:
    """The compiled phase-king protocol, tolerating ``(1/3 - ε) n``.

    A pre-built ``eligibility`` source may be supplied (the Theorem 3
    experiment shares one random-oracle-style lottery across executions);
    ``coin_cache`` shares the ideal lottery's coins across instances (see
    :func:`~repro.protocols.subquadratic_ba.make_eligibility`).
    """
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 3 * f:
        raise ConfigurationError(
            f"phase-king requires f < n/3: n={n}, f={f}")
    if eligibility is None:
        eligibility = make_eligibility(n, params, seed, mode,
                                       coin_cache=coin_cache)
    authenticator = EligibilityAuthenticator(eligibility)
    config = PhaseKingConfig(
        threshold=ack_threshold(params),
        authenticator=authenticator,
        proposer=ProposerPolicy(authenticator),
        epochs=epochs,
    )
    nodes = [PhaseKingNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    input_map: Dict[NodeId, Bit] = {i: inputs[i] for i in range(n)}
    return ProtocolInstance(
        name=f"phase-king-subquadratic[{mode}]",
        nodes=nodes,
        max_rounds=SCHEDULE.rounds_for(epochs),
        inputs=input_map,
        signing_capabilities=[],
        mining_capabilities=[eligibility.capability_for(i) for i in range(n)],
        authenticator=authenticator,
        config=config,
    )

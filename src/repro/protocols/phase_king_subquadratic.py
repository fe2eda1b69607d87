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
from typing import Sequence

from repro.errors import ConfigurationError
from repro.protocols.base import (
    EligibilityAuthenticator,
    ProposerPolicy,
    ProtocolInstance,
)
from repro.protocols.phase_king import DEFAULT_EPOCHS, SCHEDULE, PhaseKingNode
from repro.protocols.subquadratic_ba import FMINE_MODE, make_eligibility
from repro.protocols.verification import (
    RoundConfig, admit, build_round_instance)
from repro.rng import Seed
from repro.types import Bit, SecurityParameters


def ack_threshold(params: SecurityParameters, n: int) -> int:
    """The ``2λ/3`` quorum threshold of Section 3.2, refused above ``n``:
    no ACK quorum could ever form, so no run could reach agreement."""
    threshold = max(1, math.ceil(2 * params.lam / 3))
    if threshold > n:
        raise ConfigurationError(
            f"the 2λ/3 ACK threshold {threshold} (λ = {params.lam}) "
            f"exceeds n = {n}: no quorum can form")
    return threshold


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
    admit("phase-king", n, f, inputs, 3)
    threshold = ack_threshold(params, n)
    if eligibility is None:
        eligibility = make_eligibility(n, params, seed, mode,
                                       coin_cache=coin_cache)
    authenticator = EligibilityAuthenticator(eligibility)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=threshold,
        authenticator=authenticator,
        proposer=ProposerPolicy(authenticator),
        units=epochs,
    )
    return build_round_instance(f"phase-king-subquadratic[{mode}]",
                                PhaseKingNode, inputs, config,
                                mining=eligibility)

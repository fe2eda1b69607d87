"""The headline protocol: subquadratic BA via vote-specific eligibility
(Appendix C.2, Theorem 2 / Theorem 17).

The quadratic warmup compiled per Section C.2:

- every multicast becomes a *conditional* multicast, gated by
  ``Fmine.mine(i, (T, r, b))`` (or a real VRF in ``vrf`` mode) — note the
  topic includes the **bit**, the paper's key insight;
- quorum thresholds shrink from ``f + 1`` to ``λ/2``;
- the leader oracle disappears: a node proposes iff it mines
  ``(Propose, r, b)`` at difficulty ``1/2n``;
- every received message is verified via ``Fmine.verify`` / VRF proofs.

Tolerates ``(1/2 - ε)n`` adaptive corruptions (without after-the-fact
removal), terminates in expected O(1) iterations, and multicasts
``O(λ²)`` messages of ``O(λ(log κ + log n))`` bits — independent of n.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.eligibility.base import EligibilitySource
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMineEligibility
from repro.eligibility.vrf_eligibility import VrfEligibility
from repro.errors import ConfigurationError
from repro.protocols.aba import AbaConfig, AbaNode, rounds_for_iterations
from repro.protocols.base import (
    EligibilityAuthenticator,
    ProposerPolicy,
    ProtocolInstance,
)
from repro.rng import Seed
from repro.types import Bit, NodeId, SecurityParameters

DEFAULT_MAX_ITERATIONS = 40

FMINE_MODE = "fmine"
VRF_MODE = "vrf"


def committee_threshold(params: SecurityParameters) -> int:
    """The ``λ/2`` quorum threshold of Appendix C.2."""
    return max(1, math.ceil(params.lam / 2))


def make_eligibility(n: int, params: SecurityParameters, seed: Seed,
                     mode: str = FMINE_MODE,
                     coin_cache=None) -> EligibilitySource:
    """The eligibility source for the requested world.

    ``fmine`` is the hybrid world of Appendix C (fast, ideal);
    ``vrf`` is the compiled real world of Appendix D (real proofs).
    ``coin_cache`` (a :class:`~repro.eligibility.lottery_cache.\
SharedLotteryCache`) shares the ideal lottery's coins across instances
    built with the same seed and schedule; it is ignored in ``vrf`` mode,
    whose NIZK proofs consume prover randomness in call order and so
    cannot be shared without changing proof bytes.
    """
    schedule = DifficultySchedule.for_parameters(params, n)
    if mode == FMINE_MODE:
        return FMineEligibility(n, schedule, seed, coin_cache=coin_cache)
    if mode == VRF_MODE:
        return VrfEligibility(n, schedule, seed)
    raise ConfigurationError(f"unknown eligibility mode {mode!r}")


def build_subquadratic_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    params: SecurityParameters = SecurityParameters(),
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    mode: str = FMINE_MODE,
    eligibility: EligibilitySource = None,
    coin_cache=None,
) -> ProtocolInstance:
    """Construct a subquadratic-BA execution over ``n`` nodes.

    ``f`` must stay below ``(1/2 - ε) n`` for the Theorem 17 guarantees;
    the builder enforces only the hard bound ``n > 2f`` and leaves
    resilience sweeps free to exercise the boundary.  A pre-built
    ``eligibility`` source may be supplied (the Theorem 3 experiment uses
    this to share one random-oracle-style lottery across executions);
    ``coin_cache`` shares the ideal lottery's coins across instances (see
    :func:`make_eligibility`).
    """
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 2 * f:
        raise ConfigurationError(
            f"subquadratic BA requires honest majority: n={n} > 2f={2 * f}")
    if eligibility is None:
        eligibility = make_eligibility(n, params, seed, mode,
                                       coin_cache=coin_cache)
    authenticator = EligibilityAuthenticator(eligibility)
    config = AbaConfig(
        threshold=committee_threshold(params),
        authenticator=authenticator,
        proposer=ProposerPolicy(authenticator),
        max_iterations=max_iterations,
    )
    nodes = [AbaNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    input_map: Dict[NodeId, Bit] = {i: inputs[i] for i in range(n)}
    return ProtocolInstance(
        name=f"subquadratic-ba[{mode}]",
        nodes=nodes,
        max_rounds=rounds_for_iterations(max_iterations) + 2,
        inputs=input_map,
        signing_capabilities=[],
        mining_capabilities=[eligibility.capability_for(i) for i in range(n)],
        authenticator=authenticator,
        config=config,
    )

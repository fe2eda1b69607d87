"""The warmup quadratic BA (Appendix C.1, after Abraham et al. [1]).

Synchronous BA with ``n = 2f + 1`` (any ``n > 2f`` works), expected O(1)
iterations, and quadratic communication: every node multicasts in every
round, messages are signed, quorums are ``f + 1`` votes, and a random
leader oracle announces the proposer of each iteration.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.crypto.registry import KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.aba import SCHEDULE, AbaConfig, AbaNode
from repro.protocols.base import (
    OracleProposerPolicy,
    ProtocolInstance,
    SignatureAuthenticator,
)
from repro.rng import Seed
from repro.sim.leader import LeaderOracle, RandomLeaderOracle
from repro.types import Bit, NodeId

DEFAULT_MAX_ITERATIONS = 30


def build_quadratic_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    oracle: Optional[LeaderOracle] = None,
) -> ProtocolInstance:
    """Construct a quadratic-BA execution over ``n`` nodes.

    ``inputs[i]`` is node i's input bit.  ``f`` must satisfy ``n > 2f``
    (honest majority).
    """
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 2 * f:
        raise ConfigurationError(
            f"quadratic BA requires honest majority: n={n} > 2f={2 * f}")
    registry = KeyRegistry(n)
    authenticator = SignatureAuthenticator(registry)
    leader_oracle = oracle if oracle is not None else RandomLeaderOracle(n, seed)
    config = AbaConfig(
        threshold=f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(leader_oracle, authenticator),
        max_iterations=max_iterations,
    )
    nodes = [AbaNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    input_map: Dict[NodeId, Bit] = {i: inputs[i] for i in range(n)}
    return ProtocolInstance(
        name="quadratic-ba",
        nodes=nodes,
        max_rounds=SCHEDULE.rounds_for(max_iterations),
        inputs=input_map,
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
        authenticator=authenticator,
        config=config,
    )

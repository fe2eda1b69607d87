"""The warmup quadratic BA (Appendix C.1, after Abraham et al. [1]).

Synchronous BA with ``n = 2f + 1`` (any ``n > 2f`` works), expected O(1)
iterations, and quadratic communication: every node multicasts in every
round, messages are signed, quorums are ``f + 1`` votes, and a random
leader oracle announces the proposer of each iteration.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.registry import KeyRegistry
from repro.protocols.aba import SCHEDULE, AbaNode
from repro.protocols.base import (
    OracleProposerPolicy,
    ProtocolInstance,
    SignatureAuthenticator,
)
from repro.protocols.verification import (
    RoundConfig, admit, build_round_instance)
from repro.rng import Seed
from repro.sim.leader import LeaderOracle, RandomLeaderOracle
from repro.types import Bit

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
    admit("quadratic BA", n, f, inputs, 2)
    registry = KeyRegistry(n)
    authenticator = SignatureAuthenticator(registry)
    leader_oracle = oracle if oracle is not None else RandomLeaderOracle(n, seed)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(leader_oracle, authenticator),
        units=max_iterations,
    )
    return build_round_instance("quadratic-ba", AbaNode, inputs, config,
                                signing=registry)

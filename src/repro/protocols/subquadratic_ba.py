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
from typing import Sequence

from repro.eligibility.base import EligibilitySource
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMineEligibility
from repro.eligibility.vrf_eligibility import VrfEligibility
from repro.errors import ConfigurationError
from repro.protocols.aba import SCHEDULE, AbaNode
from repro.protocols.base import (
    EligibilityAuthenticator,
    ProposerPolicy,
    ProtocolInstance,
)
from repro.protocols.verification import (
    RoundConfig, admit, build_round_instance)
from repro.rng import Seed
from repro.types import Bit, SecurityParameters

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
    admit("subquadratic BA", n, f, inputs, 2)
    if eligibility is None:
        eligibility = make_eligibility(n, params, seed, mode,
                                       coin_cache=coin_cache)
    authenticator = EligibilityAuthenticator(eligibility)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=committee_threshold(params),
        authenticator=authenticator,
        proposer=ProposerPolicy(authenticator),
        units=max_iterations,
    )
    return build_round_instance(f"subquadratic-ba[{mode}]", AbaNode, inputs,
                                config, mining=eligibility)

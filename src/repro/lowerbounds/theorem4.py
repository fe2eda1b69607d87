"""Theorem 1/4 made executable: strongly adaptive isolation.

The theorem says a randomized BB protocol solving broadcast with good
probability must spend ``(εf/2)²`` messages in expectation against a
strongly adaptive adversary.  Contrapositively: a protocol that *doesn't*
spend that much — our subquadratic protocol spends ``O(λ²)`` multicasts —
must be breakable by such an adversary with noticeable probability.

:func:`run_theorem4_attack` runs the
:class:`~repro.adversaries.strongly_adaptive.IsolationAdversary` against a
broadcast protocol and reports the comparison the theorem predicts: the
attack succeeds, with a corruption count of the order of the protocol's
*speaker count* (≪ f for subquadratic protocols, > f for quadratic ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.adversaries.strongly_adaptive import IsolationAdversary
from repro.lowerbounds.dolev_reischuk import run_adversary_a
from repro.protocols.base import ProtocolInstance
from repro.rng import derive_rng
from repro.sim.conditions import NetworkConditions
from repro.sim.engine import run_instance
from repro.types import AdversaryModel, Bit, NodeId

__all__ = [
    "Theorem4Report",
    "Theorem4Census",
    "run_theorem4_attack",
    "run_theorem4_census",
]


@dataclass
class Theorem4Report:
    protocol: str
    n: int
    f: int
    trials: int
    message_bound: float  # (eps*f/2)^2 from the theorem statement
    mean_honest_messages: float  # classical count, Definition 6
    mean_corruptions: float
    budget_exhausted_rate: float
    violation_rate: float

    @property
    def subquadratic(self) -> bool:
        """Did the protocol stay under the theorem's message bound?"""
        return self.mean_honest_messages < self.message_bound


@dataclass
class Theorem4Census:
    """Statistics of the events inside the Theorem 4 proof.

    The proof runs adversary ``A`` (corrupt a set V of f/2 nodes that
    behave honestly but deafly) and argues:

    - ``X``: the number ``z`` of messages honest nodes send into V is
      below ``ε(f/2)²`` — by Markov, whenever ``E[z] < (εf/2)²``;
    - ``Y``: a uniformly random ``p ∈ V`` receives at most ``f/2`` of
      them;
    - hence ``Pr[X ∩ Y] > 1 − 2ε`` and the starved ``p`` exists with
      noticeable probability.

    This census measures all three frequencies on a live randomized
    protocol, validating the proof's counting on real executions.
    """

    protocol: str
    n: int
    f: int
    epsilon: float
    trials: int
    mean_z: float            # E[z], messages into V
    markov_budget: float     # ε(f/2)²
    event_x_rate: float      # z < ε(f/2)²
    event_y_rate: float      # random p got <= f/2 messages
    event_xy_rate: float
    theorem_bound: float     # 1 - 2ε


def run_theorem4_census(
    builder: Callable[..., ProtocolInstance],
    n: int,
    f: int,
    sender_input: Bit,
    seeds: Sequence,
    epsilon: float = 0.25,
    conditions: Optional[NetworkConditions] = None,
    **builder_kwargs,
) -> Theorem4Census:
    """Run adversary ``A`` repeatedly and tally the proof's events.

    ``conditions`` runs the executions under partial synchrony (a
    *study*: the proof's counting argument is stated for lock-step, so
    conditioned frequencies are empirical, not the theorem's).
    """
    half_f = f // 2
    budget = epsilon * half_f * half_f
    zs: List[int] = []
    x_hits = 0
    y_hits = 0
    xy_hits = 0
    protocol_name = ""
    for seed in seeds:
        instance, adversary, _ = run_adversary_a(
            builder, n, f, sender_input, seed, conditions=conditions,
            **builder_kwargs)
        protocol_name = instance.name
        z = sum(adversary.received_by.values())
        zs.append(z)
        x = z < budget
        # The adversary picks p uniformly at random from V (the proof's
        # second coin).
        rng = derive_rng(seed, "theorem4-p")
        p = rng.choice(adversary.corrupt_set)
        y = adversary.received_by[p] <= half_f
        x_hits += x
        y_hits += y
        xy_hits += x and y
    trials = len(zs)
    return Theorem4Census(
        protocol=protocol_name,
        n=n,
        f=f,
        epsilon=epsilon,
        trials=trials,
        mean_z=sum(zs) / trials,
        markov_budget=budget,
        event_x_rate=x_hits / trials,
        event_y_rate=y_hits / trials,
        event_xy_rate=xy_hits / trials,
        theorem_bound=1 - 2 * epsilon,
    )


def run_theorem4_attack(
    builder: Callable[..., ProtocolInstance],
    n: int,
    f: int,
    sender_input: Bit,
    seeds: Sequence,
    epsilon: float = 0.5,
    victim: NodeId = 5,
    conditions: Optional[NetworkConditions] = None,
    **builder_kwargs,
) -> Theorem4Report:
    """Run the isolation attack over several seeds and aggregate.

    ``builder(n=, f=, sender_input=, seed=, **kwargs)`` must produce a
    broadcast instance whose designated sender is node 0 (so the victim
    default of node 5 is never the sender).  ``conditions`` runs the
    executions under partial synchrony — a partition *study* of the
    attack (the staging/suppression contract the strongly adaptive
    adversary relies on is unchanged under conditions).
    """
    violations = 0
    exhausted = 0
    corruptions: List[int] = []
    messages: List[int] = []
    protocol_name = ""
    for seed in seeds:
        instance = builder(n=n, f=f, sender_input=sender_input, seed=seed,
                           **builder_kwargs)
        protocol_name = instance.name
        adversary = IsolationAdversary(victim=victim)
        result = run_instance(instance, f, adversary,
                              model=AdversaryModel.STRONGLY_ADAPTIVE,
                              seed=seed, conditions=conditions)
        broken = not (result.consistent()
                      and result.broadcast_valid(0, sender_input))
        violations += broken
        exhausted += adversary.budget_exhausted
        corruptions.append(result.corruptions_used)
        messages.append(result.metrics.classical_message_count)
    trials = len(list(seeds))
    return Theorem4Report(
        protocol=protocol_name,
        n=n,
        f=f,
        trials=trials,
        message_bound=(epsilon * f / 2) ** 2,
        mean_honest_messages=sum(messages) / trials,
        mean_corruptions=sum(corruptions) / trials,
        budget_exhausted_rate=exhausted / trials,
        violation_rate=violations / trials,
    )

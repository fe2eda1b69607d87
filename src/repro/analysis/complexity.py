"""Closed-form communication predictions (Lemma 15 and baselines).

Turns the paper's big-O communication statements into concrete expected
values the measurements can be checked against:

- subquadratic BA: per iteration, the expected number of honest
  multicasts is one committee per phase (≈ λ each for Status, Vote,
  Commit) plus ~1/2 expected proposer; termination adds one Terminate
  committee (≈ λ).  Lemma 15's ``O(nλ²)`` messages = ``O(λ²)``
  multicasts over the expected O(1) iterations.
- quadratic BA: every honest node multicasts once per round.
- Dolev–Strong: each node relays each extracted bit at most once.
"""

from __future__ import annotations

import math


def expected_subquadratic_multicasts(lam: int, iterations: float,
                                     honest_fraction: float = 1.0) -> float:
    """Expected honest multicasts for the C.2 protocol.

    Iteration 1 has two committee phases (Vote, Commit); every later
    iteration has three (Status, Vote, Commit) plus an expected half
    proposer; termination triggers one Terminate committee.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    committee = honest_fraction * lam
    first = 2 * committee
    later = max(0.0, iterations - 1) * (3 * committee + 0.5)
    terminate = committee
    return first + later + terminate


def expected_quadratic_multicasts(n: int, f: int, rounds: float) -> float:
    """Every so-far-honest node multicasts once per round (C.1)."""
    honest = n - f
    return honest * rounds


def expected_dolev_strong_multicasts(n: int, f: int,
                                     extracted_bits: int = 1) -> float:
    """Each honest node relays each extracted bit once (plus the sender)."""
    honest = n - f
    return honest * extracted_bits


def message_size_bound_bits(lam: int, n: int, kappa: int,
                            entry_overhead_bits: int = 256) -> float:
    """Lemma 15: each message is O(λ (log κ + log n)) bits.

    ``entry_overhead_bits`` models the per-entry constant (a ticket or
    signature); the λ/2 quorum dominates.
    """
    per_entry = entry_overhead_bits + math.log2(max(n, 2)) + kappa
    return (lam / 2) * per_entry

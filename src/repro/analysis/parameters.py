"""Concrete parameter selection and closed-form lemma predictions.

Turns the paper's asymptotic statements into checkable numbers:

- Lemma 11(i): fewer than ``λ/2`` already-corrupt nodes are eligible —
  :func:`corrupt_quorum_probability` gives the *exact* probability of the
  bad event for given ``n``, ``f``, ``λ``.
- Lemma 11(ii): at least ``λ/2`` so-far-honest nodes are eligible —
  :func:`honest_quorum_failure_probability`.
- Lemma 10: Terminate propagation — :func:`terminate_propagation_failure`.
- Lemma 12: a unique so-far-honest proposer appears with probability
  ``> 1/(2e)`` — :func:`good_iteration_probability` computes the exact
  per-iteration probability ``C(2n,1)(1/2n)(1-1/2n)^{2n-1} · 1/2``.
- :func:`choose_lambda` inverts the bounds: the smallest committee size
  meeting a target failure probability for a given corrupt fraction.
"""

from __future__ import annotations

import math

from repro.analysis.chernoff import binomial_tail_ge, binomial_tail_le


def corrupt_quorum_probability(n: int, f: int, lam: int) -> float:
    """Exact P[#eligible corrupt >= λ/2] for one topic.

    Each of the ``f`` corrupt nodes is eligible with probability ``λ/n``
    (a corrupt node may try both bits, but per *topic* it gets one coin).
    """
    threshold = math.ceil(lam / 2)
    return binomial_tail_ge(threshold, f, min(1.0, lam / n))


def honest_quorum_failure_probability(n: int, f: int, lam: int) -> float:
    """Exact P[#eligible honest < λ/2] for one topic."""
    threshold = math.ceil(lam / 2)
    honest = n - f
    return binomial_tail_le(threshold - 1, honest, min(1.0, lam / n))


def terminate_propagation_failure(n: int, lam: int, terminated: int) -> float:
    """Lemma 10: P[no terminated honest node may send Terminate].

    ``(1 - λ/n)^terminated < exp(-ελ/2)`` when ``terminated = εn/2``.
    """
    if terminated <= 0:
        return 1.0
    return (1.0 - min(1.0, lam / n)) ** terminated


def good_iteration_probability(n: int, honest_fraction: float = 0.5) -> float:
    """Lemma 12: exact P[exactly one proposal succeeds] × P[it is honest].

    There are ``2n`` mining attempts per iteration (each node, each bit),
    each succeeding with probability ``1/2n``; the unique success must
    come from a so-far-honest node.
    """
    attempts = 2 * n
    p = 1.0 / (2 * n)
    exactly_one = attempts * p * (1.0 - p) ** (attempts - 1)
    return exactly_one * honest_fraction


def expected_iterations(n: int, honest_fraction: float = 0.5) -> float:
    """Expected iterations to termination: geometric in the good-iteration
    probability (an upper-bound model; real executions can finish sooner
    because non-unique-proposer iterations may still succeed)."""
    return 1.0 / good_iteration_probability(n, honest_fraction)


def protocol_failure_probability(n: int, f: int, lam: int,
                                 iterations: int) -> float:
    """Union bound over the per-topic bad events of one execution.

    Per iteration there are ~8 committee topics (Status/Vote/Commit for
    each bit, Terminate for each bit); each can fail by Lemma 11(i) or
    11(ii).  This mirrors the poly(κ)-many-events union bound of
    Appendix C.3.
    """
    per_topic = (corrupt_quorum_probability(n, f, lam)
                 + honest_quorum_failure_probability(n, f, lam))
    return min(1.0, 8 * iterations * per_topic)


def choose_lambda(n: int, corrupt_fraction: float, target_error: float,
                  iterations: int = 40, max_lambda: int = 4096) -> int:
    """Smallest λ whose union-bound failure stays below ``target_error``.

    This is the concrete counterpart of "λ = ω(log κ)": doubling search
    then binary refinement over :func:`protocol_failure_probability`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= corrupt_fraction < 0.5:
        raise ValueError("corrupt fraction must lie in [0, 1/2)")
    if not 0 < target_error < 1:
        raise ValueError("target error must lie in (0, 1)")
    f = int(corrupt_fraction * n)

    def failure(lam: int) -> float:
        return protocol_failure_probability(n, f, lam, iterations)

    low, high = 1, 1
    while failure(high) > target_error:
        high *= 2
        if high > max_lambda:
            raise ValueError(
                f"no committee size up to {max_lambda} meets the target; "
                f"n={n} is too small for corrupt fraction {corrupt_fraction}")
    while low < high:
        mid = (low + high) // 2
        if failure(mid) <= target_error:
            high = mid
        else:
            low = mid + 1
    return high

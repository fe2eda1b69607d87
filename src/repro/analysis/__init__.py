"""Analytical companions to the protocol lemmas.

- :mod:`repro.analysis.chernoff` — tail bounds and exact binomial tails
  used to predict the Lemma 10/11 failure probabilities.
- :mod:`repro.analysis.parameters` — concrete parameter selection: the
  committee size ``λ`` for a target failure probability, the difficulty
  choices, and closed forms for Lemma 12's good-iteration probability.
- :mod:`repro.analysis.stats` — small summary-statistics helpers.
"""

from repro.analysis.chernoff import (
    binomial_tail_ge,
    binomial_tail_le,
    chernoff_lower_tail,
    chernoff_upper_tail,
)
from repro.analysis.parameters import (
    choose_lambda,
    corrupt_quorum_probability,
    good_iteration_probability,
    honest_quorum_failure_probability,
    terminate_propagation_failure,
)
from repro.analysis.complexity import (
    expected_dolev_strong_multicasts,
    expected_quadratic_multicasts,
    expected_subquadratic_multicasts,
)
from repro.analysis.stats import mean, percentile

__all__ = [
    "binomial_tail_ge",
    "binomial_tail_le",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "choose_lambda",
    "corrupt_quorum_probability",
    "good_iteration_probability",
    "honest_quorum_failure_probability",
    "terminate_propagation_failure",
    "expected_dolev_strong_multicasts",
    "expected_quadratic_multicasts",
    "expected_subquadratic_multicasts",
    "mean",
    "percentile",
]

"""Executable versions of the paper's three lower-bound arguments.

- :mod:`repro.lowerbounds.dolev_reischuk` — the Section 2 warmup: the
  two-adversary (``A`` / ``A'``) experiment breaking any deterministic
  broadcast that sends fewer than ``(f/2)²`` messages.
- :mod:`repro.lowerbounds.theorem4` — Theorem 1/4: the strongly adaptive
  isolation experiment against randomized (subquadratic) protocols.
- :mod:`repro.lowerbounds.no_pki` — Theorem 3: the hypothetical
  ``Q --- 1 --- Q'`` experiment showing that sublinear multicast BA
  without setup assumptions is impossible.
"""

from repro.lowerbounds.dolev_reischuk import (
    DolevReischukReport,
    run_dolev_reischuk_attack,
)
from repro.lowerbounds.theorem4 import (
    Theorem4Report,
    run_theorem4_attack,
    run_theorem4_census,
)
from repro.lowerbounds.no_pki import HypotheticalReport, run_hypothetical_experiment

__all__ = [
    "DolevReischukReport",
    "run_dolev_reischuk_attack",
    "Theorem4Report",
    "run_theorem4_attack",
    "run_theorem4_census",
    "HypotheticalReport",
    "run_hypothetical_experiment",
]

"""repro — reproduction of "Communication Complexity of Byzantine
Agreement, Revisited" (Abraham, Chan, Dolev, Nayak, Pass, Ren, Shi;
PODC 2019).

Public API overview
-------------------
Protocol builders (each returns a
:class:`~repro.protocols.base.ProtocolInstance`):

>>> from repro.protocols import build_subquadratic_ba, build_quadratic_ba

Execution:

>>> from repro.harness import run_instance, run_trials

Adversaries (see :mod:`repro.adversaries`), lower-bound harnesses
(:mod:`repro.lowerbounds`), analysis (:mod:`repro.analysis`), and the
experiment suite E1–E12 (:mod:`repro.harness.experiments`).

See README.md for a tour and docs/ARCHITECTURE.md for the module map.
"""

from repro.types import (
    AdversaryModel,
    BROADCAST_SENDER,
    SecurityParameters,
)
from repro.harness import run_instance, run_trials
from repro.protocols import (
    build_broadcast_from_ba,
    build_dolev_strong,
    build_naive_broadcast,
    build_phase_king,
    build_phase_king_subquadratic,
    build_quadratic_ba,
    build_round_eligibility,
    build_static_committee,
    build_subquadratic_ba,
)

__version__ = "1.0.0"

__all__ = [
    "AdversaryModel",
    "BROADCAST_SENDER",
    "SecurityParameters",
    "run_instance",
    "run_trials",
    "build_broadcast_from_ba",
    "build_dolev_strong",
    "build_naive_broadcast",
    "build_phase_king",
    "build_phase_king_subquadratic",
    "build_quadratic_ba",
    "build_round_eligibility",
    "build_static_committee",
    "build_subquadratic_ba",
    "__version__",
]

"""Exception hierarchy for the repro library.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures without masking
programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A protocol, adversary, or experiment was configured inconsistently."""


class CorruptionBudgetExceeded(ReproError):
    """The adversary attempted to corrupt more than its budget ``f`` allows."""


class CapabilityError(ReproError):
    """The adversary attempted an action its model does not permit.

    The canonical example is attempting after-the-fact removal (erasing a
    message already sent this round) under a merely *adaptive* — not
    strongly adaptive — model (Section 1 / Section 2 of the paper).
    """


class SignatureError(ReproError):
    """A signature failed verification or an illegal signing was attempted."""


class ForgeryAttempt(SignatureError):
    """The adversary asked the ideal signature registry to sign for a node
    it has not corrupted.  In the real world this would be an existential
    forgery; the ideal registry turns it into a loud failure."""


class EligibilityError(ReproError):
    """A mining ticket failed verification or was used inconsistently."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""

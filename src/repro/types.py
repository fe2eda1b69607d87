"""Shared primitive types and small value objects used across the library.

The paper (Appendix A.1) models a protocol execution with ``n`` parties
numbered ``0 .. n-1`` proceeding in synchronous rounds.  These aliases keep
signatures readable without introducing heavyweight wrapper classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

# A node identifier.  Nodes are numbered 0 .. n-1 as in Appendix A.1.
NodeId = int

# A single agreement bit.  The paper studies binary BA; inputs and outputs
# are always 0 or 1.
Bit = int

# A synchronous round index, starting at 0.
Round = int

# ``payload ->`` its readers: a row indexed by node id, true where that
# node can still act on the payload, or None for every node
# (``ProtocolInstance.audience``).
Audience = Callable[[Any], Optional[Sequence[bool]]]

#: Conventional designated sender for Byzantine Broadcast (Appendix A.2.1
#: uses node 0 as the sender).
BROADCAST_SENDER: NodeId = 0


def other_bit(b: Bit) -> Bit:
    """Return ``1 - b``, validating that ``b`` is a bit."""
    if b not in (0, 1):
        raise ValueError(f"not a bit: {b!r}")
    return 1 - b


def validate_bit(b: Bit) -> Bit:
    """Return ``b`` unchanged after checking it is 0 or 1."""
    if b not in (0, 1):
        raise ValueError(f"not a bit: {b!r}")
    return b


class AdversaryModel(enum.Enum):
    """How adaptive the adversary is allowed to be (Section 1 / Section 2).

    The distinction is the paper's central modelling axis:

    - ``STATIC``: the corrupt set is fixed before the execution starts.
    - ``ADAPTIVE``: nodes may be corrupted at any time, *during* a round,
      after observing the messages honest nodes are about to send; but a
      message already sent cannot be erased ("no after-the-fact removal").
    - ``STRONGLY_ADAPTIVE``: like ``ADAPTIVE`` but additionally capable of
      *after-the-fact removal* — erasing, per recipient, messages that a
      just-corrupted node sent in the current round.
    """

    STATIC = "static"
    ADAPTIVE = "adaptive"
    STRONGLY_ADAPTIVE = "strongly_adaptive"

    @property
    def can_remove_after_the_fact(self) -> bool:
        return self is AdversaryModel.STRONGLY_ADAPTIVE

    @property
    def can_corrupt_adaptively(self) -> bool:
        return self is not AdversaryModel.STATIC


@dataclass(frozen=True)
class SecurityParameters:
    """Concrete stand-ins for the paper's asymptotic parameters.

    ``kappa`` is the statistical security parameter; ``lam`` is the expected
    committee size ``λ = ω(log κ)`` used by the subquadratic protocols
    (Section 3.2 / Appendix C.2).  ``epsilon`` is the resilience slack: the
    adversary corrupts at most ``(1/2 - epsilon) * n`` nodes for the
    honest-majority protocols (``(1/3 - epsilon) * n`` for the phase-king
    family).
    """

    kappa: int = 32
    lam: int = 40
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError("kappa must be positive")
        if self.lam < 1:
            raise ValueError("lam must be positive")
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")

    def committee_probability(self, n: int) -> float:
        """Per-node success probability λ/n for committee messages.

        Section C.2 sets the difficulty ``D`` so that each Status / Vote /
        Commit / Terminate multicast is eligible with probability ``λ/n``.
        When ``n <= λ`` the paper prescribes falling back to the quadratic
        protocol; we cap the probability at 1 so small-n smoke tests work.
        """
        if n < 1:
            raise ValueError("n must be positive")
        return min(1.0, self.lam / n)

    def leader_probability(self, n: int) -> float:
        """Per-(node, bit) leader-election probability 1/(2n).

        Section C.2 sets ``D0`` so that each proposal attempt succeeds with
        probability ``1/2n``, i.e. one expected leader every two iterations.
        """
        if n < 1:
            raise ValueError("n must be positive")
        return 1.0 / (2 * n)

"""Message types for the BA protocol family.

Message kinds follow Appendix C: ``Status``, ``Propose``, ``Vote``,
``Commit``, ``Terminate`` for the iterated BA, and ``Propose``/``ACK`` for
the phase-king family (Section 3).  Every message carries an ``auth``
field — a signature in the quadratic world, an eligibility ticket in the
subquadratic world — authenticating the tuple ``(kind, iteration, bit)``
exactly as the paper's conditional-multicast compiler prescribes.

All messages are frozen dataclasses: once multicast, nobody (including the
sender) can mutate them, matching the "messages already sent cannot be
retracted" rule of the execution model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.types import Bit, NodeId


@dataclass(frozen=True)
class SignedVote:
    """One authenticated iteration-``r`` vote for ``bit``.

    ``f + 1`` (resp. ``λ/2``) of these from distinct voters form a
    :class:`~repro.protocols.certificates.Certificate`.
    """

    iteration: int
    bit: Bit
    voter: NodeId
    auth: Any


@dataclass(frozen=True)
class StatusMsg:
    """``(Status, r, b, C)``: the sender's highest certificate so far."""

    iteration: int
    bit: Optional[Bit]
    certificate: Optional["Certificate"]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class ProposeMsg:
    """``(Propose, r, b)`` with the justifying certificate attached."""

    iteration: int
    bit: Bit
    certificate: Optional["Certificate"]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class VoteMsg:
    """``(Vote, r, b)``; for iterations > 1 the leader proposal that
    justifies the vote is attached (footnote 11)."""

    iteration: int
    bit: Bit
    sender: NodeId
    auth: Any
    proposal: Optional[ProposeMsg] = None

    def as_signed_vote(self) -> SignedVote:
        # Imported here: certificates.py imports this module.
        from repro.protocols.certificates import signed_vote
        return signed_vote(self.iteration, self.bit, self.sender, self.auth)


@dataclass(frozen=True)
class CommitMsg:
    """``(Commit, r, b)`` with the vote certificate attached."""

    iteration: int
    bit: Bit
    certificate: "Certificate"
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class TerminateMsg:
    """``(Terminate, b)`` with the λ/2 (or f+1) commits attached."""

    bit: Bit
    iteration: int
    commits: Tuple[CommitMsg, ...]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PhaseKingProposeMsg:
    """``(propose, r, b)`` of the Section 3 phase-king family."""

    epoch: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class AckMsg:
    """``(ACK, r, b)`` of the Section 3 phase-king family."""

    epoch: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PhaseKingDecideMsg:
    """``(Decide, r, b)`` of the GST-aware early-stopping phase-king.

    Carries a *unanimity certificate*: the ``n`` authenticated epoch-``r``
    ACKs for ``b`` the sender observed.  The certificate is transferable
    proof that every honest node ACKed ``b`` in epoch ``r`` — which (for
    ``f < n/3``) pins every honest tally at ``≥ 2n/3`` for ``b``, makes
    ``b`` sticky everywhere, and therefore fixes every honest output —
    so a receiver may adopt ``b`` and halt without waiting out the
    remaining epoch budget.  Only the early-stopping variant sends or
    accepts it; the fixed-budget protocol ignores unknown payloads.
    """

    epoch: int
    bit: Bit
    acks: Tuple[AckMsg, ...]
    sender: NodeId
    auth: Any


# NOTE: "Certificate" stays a string annotation (defined in
# repro.protocols.certificates) to avoid a circular import; dataclasses
# never resolve the annotation at runtime.

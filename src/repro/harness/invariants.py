"""Transcript-level invariants: the lemma statements, checked live.

End-state predicates (consistency, validity) can pass by luck; these
checkers instead scan the *entire transcript* of an execution for the
intermediate facts the Appendix C proofs assert:

- :func:`no_conflicting_certificates_after_decision` — Lemma 13: once any
  honest node outputs ``b`` in iteration ``r``, no certificate for
  ``1 - b`` of rank ``>= r`` may exist anywhere, ever.
- :func:`honest_votes_unique_per_iteration` — so-far-honest nodes cast at
  most one vote per iteration (the counting premise of Lemma 11).
- :func:`commits_carry_valid_certificates` — every commit on the wire
  carries a quorum certificate for exactly its (iteration, bit).
- :func:`quorum_intersection_on_acks` — phase-king "consistency within an
  epoch": no epoch carries ample ACK sets for both bits (with honest
  uniqueness, Section 3.1).

They operate purely on :class:`~repro.sim.result.ExecutionResult`
transcripts, so they can be applied to *any* execution, adversarial or
not, making them ideal property-test oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.protocols.certificates import Certificate
from repro.protocols.messages import (
    AckMsg,
    CommitMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.sim.result import ExecutionResult
from repro.types import Bit, NodeId


def _certificates_in_transcript(transcript) -> List[Certificate]:
    """Every certificate attached to any message on the wire."""
    certificates: List[Certificate] = []
    for envelope in transcript:
        payload = envelope.payload
        certificate = getattr(payload, "certificate", None)
        if isinstance(certificate, Certificate):
            certificates.append(certificate)
        if isinstance(payload, VoteMsg) and payload.proposal is not None:
            certificate = payload.proposal.certificate
            if isinstance(certificate, Certificate):
                certificates.append(certificate)
        if isinstance(payload, TerminateMsg):
            for commit in payload.commits:
                if isinstance(commit.certificate, Certificate):
                    certificates.append(commit.certificate)
    return certificates


def decision_points(result: ExecutionResult,
                    nodes) -> List[Tuple[NodeId, int, Bit]]:
    """(node, iteration, bit) for every honest decision, from node state."""
    points = []
    for node in nodes:
        inner = getattr(node, "inner", node)  # unwrap BroadcastNode
        iteration = getattr(inner, "decision_iteration", None)
        decision = getattr(inner, "decision", None)
        if (iteration is not None and decision is not None
                and node.node_id not in result.corrupt_set):
            points.append((node.node_id, iteration, decision))
    return points


def no_conflicting_certificates_after_decision(
        result: ExecutionResult, nodes) -> Optional[str]:
    """Lemma 13, checked on the wire.  Returns a violation description or
    None if the invariant holds."""
    transcript = result.require_transcript()
    decisions = decision_points(result, nodes)
    if not decisions:
        return None
    certificates = _certificates_in_transcript(transcript)
    for node_id, iteration, bit in decisions:
        for certificate in certificates:
            if (certificate.bit == 1 - bit
                    and certificate.iteration >= iteration
                    and len({v.voter for v in certificate.votes}) > 0):
                return (f"node {node_id} decided {bit} at iteration "
                        f"{iteration} but a rank-{certificate.iteration} "
                        f"certificate for {1 - bit} is on the wire")
    return None


def honest_votes_unique_per_iteration(result: ExecutionResult
                                      ) -> Optional[str]:
    """So-far-honest nodes vote for at most one bit per iteration."""
    seen: Dict[Tuple[NodeId, int], Set[Bit]] = {}
    for envelope in result.require_transcript():
        payload = envelope.payload
        if not isinstance(payload, VoteMsg):
            continue
        if not envelope.honest_sender:
            continue
        bits = seen.setdefault((payload.sender, payload.iteration), set())
        bits.add(payload.bit)
        if len(bits) > 1:
            return (f"honest node {payload.sender} voted both bits in "
                    f"iteration {payload.iteration}")
    return None


def commits_carry_valid_certificates(result: ExecutionResult,
                                     threshold: int) -> Optional[str]:
    """Every honest commit's certificate matches its (iteration, bit) and
    carries a quorum of distinct voters."""
    for envelope in result.require_transcript():
        payload = envelope.payload
        if not isinstance(payload, CommitMsg) or not envelope.honest_sender:
            continue
        certificate = payload.certificate
        if certificate is None:
            return f"honest commit by {payload.sender} without certificate"
        if (certificate.iteration != payload.iteration
                or certificate.bit != payload.bit):
            return (f"commit by {payload.sender} with mismatched "
                    f"certificate ({certificate.iteration},"
                    f"{certificate.bit})")
        voters = {vote.voter for vote in certificate.votes}
        if len(voters) < threshold:
            return (f"commit by {payload.sender} with sub-quorum "
                    f"certificate ({len(voters)} < {threshold})")
    return None


def quorum_intersection_on_acks(result: ExecutionResult,
                                threshold: int) -> Optional[str]:
    """Phase-king §3.1: no epoch has ample ACK sets for both bits."""
    acks: Dict[Tuple[int, Bit], Set[NodeId]] = {}
    for envelope in result.require_transcript():
        payload = envelope.payload
        if isinstance(payload, AckMsg):
            acks.setdefault((payload.epoch, payload.bit), set()).add(
                payload.sender)
    epochs = {epoch for epoch, _bit in acks}
    for epoch in epochs:
        zero = len(acks.get((epoch, 0), set()))
        one = len(acks.get((epoch, 1), set()))
        if zero >= threshold and one >= threshold:
            return (f"epoch {epoch} has ample ACKs for both bits "
                    f"({zero} and {one} >= {threshold})")
    return None


def check_aba_invariants(result: ExecutionResult, nodes,
                         threshold: int) -> List[str]:
    """All iterated-BA invariants; returns the list of violations."""
    violations = []
    for check in (
        lambda: no_conflicting_certificates_after_decision(result, nodes),
        lambda: honest_votes_unique_per_iteration(result),
        lambda: commits_carry_valid_certificates(result, threshold),
    ):
        violation = check()
        if violation is not None:
            violations.append(violation)
    return violations

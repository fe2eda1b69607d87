"""Round-by-round execution narratives.

Turns an :class:`~repro.sim.result.ExecutionResult` transcript into a
human-readable account of the execution — which phase each round was,
who proposed what, how many votes/commits each bit collected, when nodes
decided — the first thing one wants when debugging a consensus run.

    >>> print(narrate(result))            # doctest: +SKIP
    round  2 [iter 2 Status ]  12 multicasts
    round  3 [iter 2 Propose]  proposal: node 17 -> bit 1 (cert rank 1)
    round  4 [iter 2 Vote   ]  votes: bit1=14
    round  5 [iter 2 Commit ]  commits: bit1=13
    ...
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List

from repro.protocols.aba import SCHEDULE
from repro.protocols.certificates import rank
from repro.protocols.messages import (
    AckMsg,
    CommitMsg,
    PhaseKingProposeMsg,
    ProposeMsg,
    StatusMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.sim.result import ExecutionResult


def _round_events(result: ExecutionResult) -> Dict[int, List]:
    events: Dict[int, List] = defaultdict(list)
    for envelope in result.require_transcript():
        events[envelope.round_sent].append(envelope)
    return events


def _describe_round(round_index: int, envelopes, aba: bool) -> str:
    parts: List[str] = []
    proposals = []
    votes = Counter()
    commits = Counter()
    terminates = Counter()
    acks = Counter()
    statuses = 0
    for envelope in envelopes:
        payload = envelope.payload
        if isinstance(payload, ProposeMsg):
            proposals.append(payload)
        elif isinstance(payload, VoteMsg):
            votes[payload.bit] += 1
        elif isinstance(payload, CommitMsg):
            commits[payload.bit] += 1
        elif isinstance(payload, TerminateMsg):
            terminates[payload.bit] += 1
        elif isinstance(payload, StatusMsg):
            statuses += 1
        elif isinstance(payload, (AckMsg, PhaseKingProposeMsg)):
            bit = payload.bit
            acks[bit] += 1
    if statuses:
        parts.append(f"{statuses} status")
    for proposal in proposals:
        parts.append(f"proposal: node {proposal.sender} -> bit "
                     f"{proposal.bit} (cert rank "
                     f"{rank(proposal.certificate)})")
    if votes:
        parts.append("votes: " + " ".join(
            f"bit{bit}={count}" for bit, count in sorted(votes.items())))
    if commits:
        parts.append("commits: " + " ".join(
            f"bit{bit}={count}" for bit, count in sorted(commits.items())))
    if terminates:
        parts.append("terminate: " + " ".join(
            f"bit{bit}={count}" for bit, count in sorted(terminates.items())))
    if acks:
        parts.append("acks/proposes: " + " ".join(
            f"bit{bit}={count}" for bit, count in sorted(acks.items())))
    if not parts:
        parts.append(f"{len(envelopes)} messages")
    if aba:
        iteration, phase = SCHEDULE.schedule(round_index)
        prefix = f"round {round_index:3d} [iter {iteration} {phase:<7s}]  "
    else:
        prefix = f"round {round_index:3d}  "
    return prefix + "; ".join(parts)


def narrate(result: ExecutionResult, aba: bool = True,
            max_rounds: int = 200) -> str:
    """A round-by-round narrative of one execution's transcript.

    ``aba=True`` annotates rounds with the iterated-BA phase schedule;
    pass ``False`` for phase-king / broadcast transcripts.
    """
    events = _round_events(result)
    lines: List[str] = []
    for round_index in sorted(events)[:max_rounds]:
        lines.append(_describe_round(round_index, events[round_index], aba))
    decisions = Counter()
    for node, decided in sorted(result.decided_rounds.items()):
        if decided is not None:
            decisions[decided] += 1
    for round_index, count in sorted(decisions.items()):
        lines.append(f"round {round_index:3d}  {count} nodes decided")
    lines.append(
        f"outcome: consistent={result.consistent()} "
        f"outputs={sorted(set(result.honest_outputs))} "
        f"corruptions={result.corruptions_used}/{result.corruption_budget}")
    return "\n".join(lines)

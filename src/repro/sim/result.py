"""Execution results and the security predicates checked on them.

The paper's security definitions (Appendix A.2) are predicates over a
*view* of the execution; :class:`ExecutionResult` is our view object, and
its methods implement consistency and validity for both problem variants:

- **Consistency** — all forever-honest nodes output the same bit.
- **Agreement validity** — if all forever-honest nodes received the same
  input bit ``b``, they all output ``b``.
- **Broadcast validity** — if the designated sender is forever-honest with
  input ``b``, every forever-honest node outputs ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim.conditions import NetworkStats
from repro.sim.metrics import CommunicationMetrics
from repro.sim.network import Envelope
from repro.types import Bit, NodeId, Round


@dataclass
class ExecutionResult:
    n: int
    corruption_budget: int
    corrupt_set: Set[NodeId]
    rounds_executed: int
    outputs: Dict[NodeId, Bit]
    decided_rounds: Dict[NodeId, Optional[Round]]
    metrics: CommunicationMetrics
    inputs: Dict[NodeId, Bit] = field(default_factory=dict)
    #: Every envelope ever staged, for transcript analyses
    #: (:meth:`honest_speakers`, invariants, replay).
    transcript: List[Envelope] = field(default_factory=list)
    #: False under ``metrics-only`` retention: ``transcript`` is empty
    #: because it was *discarded* (:meth:`require_transcript` refuses).
    transcript_retained: bool = True
    #: Delivery-latency / drop / in-flight accounting when the execution
    #: ran under nontrivial :class:`~repro.sim.conditions.NetworkConditions`
    #: (None under perfect synchrony — the fast path records nothing).
    network_stats: Optional[NetworkStats] = None
    #: The engine's round budget (``max_rounds``, in protocol rounds).
    #: ``rounds_saved`` compares ``rounds_executed`` against it — the
    #: measurable payoff of early-stopping protocol variants.
    rounds_budget: Optional[Round] = None

    @property
    def rounds_saved(self) -> int:
        """Protocol rounds the execution finished under its budget.

        Zero for executions that ran the full budget (fixed-budget
        protocols such as phase-king always do, unless an early-stopping
        variant detects a certified round first) and for results recorded
        before the budget was tracked."""
        if self.rounds_budget is None:
            return 0
        return max(0, self.rounds_budget - self.rounds_executed)

    def require_transcript(self) -> List[Envelope]:
        """The transcript, refusing to hand back a discarded one.

        Transcript-based analyses (invariants, replay, the speaker set)
        must call this rather than read ``transcript`` directly: an
        execution run under ``metrics-only`` retention — every trial of
        a sweep cell — has an *empty* transcript that would make every
        scan vacuously report "nothing was sent"."""
        if not self.transcript_retained:
            raise ValueError(
                "execution kept no transcript (metrics-only retention, "
                "which every sweep cell runs under); a transcript comes "
                "from run_trials(...), run_instance(...) or `repro run`, "
                "whose default retention is full")
        return self.transcript

    @property
    def forever_honest(self) -> List[NodeId]:
        return [node for node in range(self.n) if node not in self.corrupt_set]

    @property
    def honest_outputs(self) -> List[Bit]:
        return [self.outputs[node] for node in self.forever_honest]

    @property
    def corruptions_used(self) -> int:
        return len(self.corrupt_set)

    # -- security predicates -----------------------------------------------
    def consistent(self) -> bool:
        """All forever-honest nodes output the same bit."""
        outputs = self.honest_outputs
        return len(set(outputs)) <= 1

    def honest_speakers(self) -> Set[NodeId]:
        """The nodes that multicast while honest: Theorem 2 makes this
        set sublinear for the compiled protocols, and its size is the
        Theorem 4 adversary's corruption bill."""
        return {envelope.sender for envelope in self.require_transcript()
                if envelope.is_multicast and envelope.honest_sender}

    def agreement_valid(self) -> bool:
        """Agreement validity w.r.t. the recorded inputs."""
        honest_inputs = {self.inputs[node] for node in self.forever_honest
                         if node in self.inputs}
        if len(honest_inputs) != 1:
            return True  # vacuously valid: inputs disagreed
        (expected,) = honest_inputs
        return all(output == expected for output in self.honest_outputs)

    def broadcast_valid(self, sender: NodeId, sender_input: Bit) -> bool:
        """Broadcast validity: only binding if the sender stayed honest."""
        if sender in self.corrupt_set:
            return True  # vacuously valid: sender was corrupted
        return all(output == sender_input for output in self.honest_outputs)

    def all_decided(self) -> bool:
        """Every forever-honest node decided before the round limit."""
        return all(self.decided_rounds.get(node) is not None
                   for node in self.forever_honest)

    def decision_rounds(self) -> List[Round]:
        return [self.decided_rounds[node] for node in self.forever_honest
                if self.decided_rounds.get(node) is not None]

    def summary(self) -> str:
        return (
            f"n={self.n} corrupt={self.corruptions_used}/{self.corruption_budget} "
            f"rounds={self.rounds_executed} "
            f"consistent={self.consistent()} "
            f"multicasts={self.metrics.multicast_complexity_messages} "
            f"({self.metrics.multicast_complexity_bits} bits)"
        )

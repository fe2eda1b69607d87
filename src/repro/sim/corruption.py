"""Corruption bookkeeping: budgets, timing, and revealed state.

Implements the corruption semantics of Appendix A.1:

- at most ``f`` corruptions over the whole execution (``(n, α)``-respecting
  environments, Definition 5);
- a *static* adversary must fix its corrupt set before round 0;
- an *adaptive* adversary corrupts at any point, including mid-round after
  observing staged messages;
- upon corruption the adversary receives the node's revealed state and its
  capabilities (signing, mining) — the simulation analogue of learning all
  its secrets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.errors import CapabilityError, CorruptionBudgetExceeded
from repro.types import AdversaryModel, NodeId, Round


@dataclass
class CorruptionGrant:
    """Everything the adversary obtains by corrupting one node."""

    node_id: NodeId
    round: Round
    node: Any
    revealed_state: Dict[str, Any]
    signing_capability: Optional[Any] = None
    mining_capability: Optional[Any] = None


class CorruptionController:
    """Tracks who is corrupt, when they fell, and enforces the budget."""

    def __init__(self, n: int, budget: int, model: AdversaryModel) -> None:
        if not 0 <= budget < n:
            raise CorruptionBudgetExceeded(
                f"budget f={budget} must satisfy 0 <= f < n={n}")
        self.n = n
        self.budget = budget
        self.model = model
        self.corrupt_set: Set[NodeId] = set()
        self.corruption_round: Dict[NodeId, Round] = {}

    @property
    def corruptions_used(self) -> int:
        return len(self.corrupt_set)

    @property
    def corruptions_remaining(self) -> int:
        return self.budget - len(self.corrupt_set)

    def is_corrupt(self, node_id: NodeId) -> bool:
        return node_id in self.corrupt_set

    def is_so_far_honest(self, node_id: NodeId) -> bool:
        return node_id not in self.corrupt_set

    def honest_nodes(self) -> list[NodeId]:
        return [node for node in range(self.n) if node not in self.corrupt_set]

    def authorize(self, node_id: NodeId, round_index: Round) -> None:
        """Validate a corruption request before the engine executes it."""
        if not 0 <= node_id < self.n:
            raise CapabilityError(f"node {node_id} does not exist")
        if node_id in self.corrupt_set:
            return  # idempotent
        if len(self.corrupt_set) >= self.budget:
            raise CorruptionBudgetExceeded(
                f"corruption budget f={self.budget} exhausted")
        if self.model is AdversaryModel.STATIC and round_index >= 0:
            raise CapabilityError(
                "a static adversary must corrupt before the execution starts")

    def mark_corrupt(self, node_id: NodeId, round_index: Round) -> None:
        if node_id not in self.corrupt_set:
            self.corrupt_set.add(node_id)
            self.corruption_round[node_id] = round_index

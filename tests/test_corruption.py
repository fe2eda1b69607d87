"""Tests for corruption bookkeeping and budgets."""

import pytest

from repro.errors import CapabilityError, CorruptionBudgetExceeded
from repro.sim.corruption import CorruptionController
from repro.types import AdversaryModel


class TestBudget:
    def test_budget_enforced(self):
        controller = CorruptionController(10, 2, AdversaryModel.ADAPTIVE)
        controller.authorize(0, 0)
        controller.mark_corrupt(0, 0)
        controller.authorize(1, 0)
        controller.mark_corrupt(1, 0)
        with pytest.raises(CorruptionBudgetExceeded):
            controller.authorize(2, 0)

    def test_recorruption_is_idempotent(self):
        controller = CorruptionController(10, 1, AdversaryModel.ADAPTIVE)
        controller.mark_corrupt(3, 0)
        controller.authorize(3, 5)  # already corrupt: no budget needed
        controller.mark_corrupt(3, 5)
        assert controller.corruption_round[3] == 0

    def test_remaining_counts_down(self):
        controller = CorruptionController(10, 3, AdversaryModel.ADAPTIVE)
        assert controller.corruptions_remaining == 3
        controller.mark_corrupt(0, 0)
        assert controller.corruptions_remaining == 2

    def test_budget_must_be_below_n(self):
        with pytest.raises(CorruptionBudgetExceeded):
            CorruptionController(5, 5, AdversaryModel.ADAPTIVE)

    def test_nonexistent_node_rejected(self):
        controller = CorruptionController(5, 2, AdversaryModel.ADAPTIVE)
        with pytest.raises(CapabilityError):
            controller.authorize(9, 0)


class TestModels:
    def test_static_cannot_corrupt_mid_execution(self):
        controller = CorruptionController(10, 2, AdversaryModel.STATIC)
        controller.authorize(0, -1)  # setup round is fine
        with pytest.raises(CapabilityError):
            controller.authorize(1, 0)

    def test_adaptive_can_corrupt_any_round(self):
        controller = CorruptionController(10, 2, AdversaryModel.ADAPTIVE)
        controller.authorize(1, 17)


class TestHonestyTracking:
    def test_so_far_honest(self):
        controller = CorruptionController(5, 2, AdversaryModel.ADAPTIVE)
        controller.mark_corrupt(2, 3)
        assert not controller.is_so_far_honest(2)
        assert controller.is_so_far_honest(1)

    def test_honest_nodes_listing(self):
        controller = CorruptionController(4, 2, AdversaryModel.ADAPTIVE)
        controller.mark_corrupt(1, 0)
        assert controller.honest_nodes() == [0, 2, 3]

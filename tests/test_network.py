"""Tests for the synchronous network."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.conditions import ConditionedNetwork, NetworkConditions
from repro.sim.network import Delivery, Envelope, SynchronousNetwork


class TestDelivery:
    def test_multicast_reaches_everyone_but_sender(self):
        network = SynchronousNetwork(4)
        network.stage(1, None, "hello", 0, honest_sender=True)
        inboxes = network.deliver()
        assert [d.payload for d in inboxes[0]] == ["hello"]
        assert [d.payload for d in inboxes[2]] == ["hello"]
        assert inboxes[1] == []

    def test_unicast_reaches_only_recipient(self):
        network = SynchronousNetwork(4)
        network.stage(1, 3, "psst", 0, honest_sender=True)
        inboxes = network.deliver()
        assert [d.payload for d in inboxes[3]] == ["psst"]
        assert all(inboxes[i] == [] for i in (0, 1, 2))

    def test_messages_delivered_exactly_once(self):
        network = SynchronousNetwork(3)
        network.stage(0, None, "m", 0, honest_sender=True)
        first = network.deliver()
        second = network.deliver()
        assert [d.payload for d in first[1]] == ["m"]
        assert second[1] == []

    def test_delivery_order_is_send_order(self):
        network = SynchronousNetwork(3)
        for index in range(5):
            network.stage(0, 1, index, 0, honest_sender=True)
        inbox = network.deliver()[1]
        assert [d.payload for d in inbox] == [0, 1, 2, 3, 4]

    def test_sender_identity_is_channel_authenticated(self):
        network = SynchronousNetwork(3)
        network.stage(2, None, "m", 0, honest_sender=False)
        inbox = network.deliver()[0]
        assert inbox[0].sender == 2

    def test_out_of_range_recipient_rejected(self):
        network = SynchronousNetwork(3)
        with pytest.raises(SimulationError):
            network.stage(0, 7, "m", 0, honest_sender=True)

    def test_needs_at_least_one_node(self):
        with pytest.raises(SimulationError):
            SynchronousNetwork(0)


class TestSuppression:
    def test_suppress_single_recipient(self):
        network = SynchronousNetwork(4)
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.suppress(envelope, recipient=2)
        inboxes = network.deliver()
        assert inboxes[2] == []
        assert [d.payload for d in inboxes[1]] == ["m"]

    def test_suppress_all_recipients(self):
        network = SynchronousNetwork(4)
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.suppress(envelope)
        inboxes = network.deliver()
        assert all(inboxes[i] == [] for i in range(4))

    def test_cannot_suppress_delivered_message(self):
        """History cannot be rewritten: only in-flight messages."""
        network = SynchronousNetwork(4)
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.deliver()
        with pytest.raises(SimulationError):
            network.suppress(envelope, recipient=1)

    def test_suppression_window_resets_each_round(self):
        network = SynchronousNetwork(3)
        first = network.stage(0, 1, "a", 0, honest_sender=True)
        network.suppress(first, recipient=1)
        network.deliver()
        network.stage(0, 1, "b", 1, honest_sender=True)
        inbox = network.deliver()[1]
        assert [d.payload for d in inbox] == ["b"]

    def test_suppression_is_idempotent(self):
        network = SynchronousNetwork(3)
        envelope = network.stage(0, 1, "m", 0, honest_sender=True)
        network.suppress(envelope, recipient=1)
        network.suppress(envelope, recipient=1)
        assert network.deliver()[1] == []

    def test_full_suppression_is_a_single_marker(self):
        """``suppress(envelope)`` stores one ``None`` sentinel — not one
        entry per node, and in particular no entry for the sender, whose
        copy never existed (a sender does not receive its own message)."""
        network = SynchronousNetwork(4)
        envelope = network.stage(1, None, "m", 0, honest_sender=True)
        network.suppress(envelope)
        assert network._suppressed[envelope.envelope_id] is None
        assert all(network.is_suppressed(envelope, node)
                   for node in range(4))

    def test_full_suppression_absorbs_per_recipient_suppression(self):
        network = SynchronousNetwork(4)
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.suppress(envelope)
        network.suppress(envelope, recipient=2)  # already covered
        assert network._suppressed[envelope.envelope_id] is None
        assert all(network.deliver()[node] == [] for node in range(4))

    def test_per_recipient_then_full_suppression(self):
        network = SynchronousNetwork(4)
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.suppress(envelope, recipient=1)
        network.suppress(envelope)
        assert all(network.deliver()[node] == [] for node in range(4))


class TestStagingWindow:
    """An envelope is in flight iff its id lies in the current window:
    ``suppress`` and ``delay`` refuse one from a drained window (or one
    never staged) and accept one from the current window."""

    def test_suppress_refuses_a_drained_window(self):
        network = SynchronousNetwork(4)
        drained = network.stage(0, None, "old", 0, honest_sender=True)
        network.deliver()
        current = network.stage(1, None, "new", 1, honest_sender=True)
        with pytest.raises(SimulationError, match="not in flight"):
            network.suppress(drained)
        with pytest.raises(SimulationError, match="not in flight"):
            network.suppress(current._replace(envelope_id=2))
        network.suppress(current, recipient=2)
        inboxes = network.deliver()
        assert inboxes[2] == []
        assert [d.payload for d in inboxes[0]] == ["new"]

    def test_delay_refuses_a_drained_window(self):
        network = ConditionedNetwork(3, NetworkConditions(delta=3), seed=0)
        drained = network.stage(0, 1, "old", 0, honest_sender=True)
        network.advance_to(0, {node: [] for node in range(3)})
        current = network.stage(0, 1, "new", 0, honest_sender=True)
        with pytest.raises(SimulationError, match="not in flight"):
            network.delay(drained)
        with pytest.raises(SimulationError, match="not in flight"):
            network.delay(current._replace(envelope_id=2))
        network.delay(current, rounds=2)
        assert network._extra_delay == {(current.envelope_id, None): 2}

    def test_records_are_immutable_values(self):
        envelope = Envelope(0, 1, None, "m", 0, True)
        delivery = Delivery(1, "m")
        assert envelope.is_multicast
        assert envelope == Envelope(0, 1, None, "m", 0, True)
        assert delivery == Delivery(sender=1, payload="m")
        assert hash(delivery) == hash(Delivery(1, "m"))
        for record, field in ((envelope, "payload"), (delivery, "sender")):
            with pytest.raises(AttributeError):
                setattr(record, field, "forged")

    def test_in_flight_shows_current_round_only(self):
        network = SynchronousNetwork(3)
        network.stage(0, None, "a", 0, honest_sender=True)
        assert len(network.in_flight()) == 1
        network.deliver()
        assert network.in_flight() == []

    @given(st.lists(st.tuples(st.integers(0, 4), st.one_of(
        st.none(), st.integers(0, 4))), max_size=30))
    @settings(max_examples=25)
    def test_no_loss_no_duplication(self, sends):
        """Every staged copy is delivered exactly once, absent suppression."""
        network = SynchronousNetwork(5)
        for sender, recipient in sends:
            network.stage(sender, recipient, "x", 0, honest_sender=True)
        inboxes = network.deliver()
        delivered = sum(len(inbox) for inbox in inboxes.values())
        expected = sum(
            4 if recipient is None else (0 if recipient == sender else 1)
            for sender, recipient in sends)
        assert delivered == expected

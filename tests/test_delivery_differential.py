"""Differential byte-identity: batched vs. legacy (eager) delivery.

The batched delivery path (``SynchronousNetwork.deliver`` returning lazy
:class:`~repro.sim.network.RoundInboxes`) replaced the historical eager
O(n²) per-recipient expansion.  These tests run whole protocol executions
on both paths — the eager path reconstructed by routing ``deliver()``
through the reference executor's ``legacy_deliver``
(``tests/reference.py``) — and assert the executions are *identical*:
same transcripts, same metrics, same decisions, same decision rounds.
Identity (not mere consistency) is the repo's established bar for
hot-path rewrites.

Sizes follow the scaling-curve satellite: n ∈ {96, 384} for both the
quadratic BA and the phase-king warmup (f chosen small at n = 384 so the
executions stay test-sized; the delivery fan-out being exercised is a
function of n, not f).
"""

import pytest

from repro.harness.runner import run_instance
from repro.protocols.phase_king import build_phase_king
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.sim.network import SynchronousNetwork
from tests.reference import legacy_deliver, observe

CASES = [
    ("quadratic-96", lambda: run_instance(
        build_quadratic_ba(96, 47, [i % 2 for i in range(96)], seed=1),
        47, seed=1)),
    ("quadratic-384", lambda: run_instance(
        build_quadratic_ba(384, 50, [i % 2 for i in range(384)], seed=1),
        50, seed=1)),
    ("phase-king-96", lambda: run_instance(
        build_phase_king(96, 10, [i % 2 for i in range(96)], seed=2),
        10, seed=2)),
    ("phase-king-384", lambda: run_instance(
        build_phase_king(384, 5, [i % 2 for i in range(384)], seed=2,
                         epochs=3),
        5, seed=2)),
]


@pytest.mark.parametrize("name,execute", CASES, ids=[c[0] for c in CASES])
def test_batched_delivery_matches_legacy(monkeypatch, name, execute):
    batched = observe(execute())
    monkeypatch.setattr(SynchronousNetwork, "deliver",
                        lambda self: legacy_deliver(self))
    legacy = observe(execute())
    assert batched == legacy


def test_legacy_helper_expands_eagerly():
    """The helper itself honors the delivery contract: plain dict, one
    list per node, suppression and self-skip applied."""
    network = SynchronousNetwork(4)
    network.stage(1, None, "broadcast", 0, honest_sender=True)
    suppressed = network.stage(0, None, "removed", 0, honest_sender=True)
    network.suppress(suppressed, recipient=3)
    network.stage(2, 2, "self", 0, honest_sender=False)
    inboxes = legacy_deliver(network)
    assert isinstance(inboxes, dict)
    assert [d.payload for d in inboxes[3]] == ["broadcast"]
    assert [d.payload for d in inboxes[2]] == ["broadcast", "removed"]
    assert [d.payload for d in inboxes[1]] == ["removed"]
    # A fresh window: nothing left to deliver.
    assert all(deliveries == [] for deliveries in network.deliver().values())

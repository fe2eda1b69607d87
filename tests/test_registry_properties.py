"""Registry-wide properties: every ``PROTOCOLS`` entry, no hand-kept list.

Parametrized directly over the scenario registry, so ``adaptive-ba``
and any future family get coverage the moment they are registered — and
a drop-out guard asserts one collected case per registry key, so a
silently filtered entry fails loudly: agreement, validity, and
termination-within-budget under a seeded benign configuration and under
a seeded crash adversary (the mildest Byzantine behaviour every
registry entry is expected to survive at its supported resilience).
``tests/test_reference_battery.py`` holds the same entries to the
reference executor.

Build configurations are derived from the builder signature
(:func:`tests.conftest.registry_config`) — not from per-protocol
knowledge — so registering a protocol is all it takes to be covered.
"""

import pytest

from repro.adversaries import CrashAdversary
from repro.harness.runner import run_instance
from repro.harness.scenarios import PROTOCOLS
from tests.conftest import registry_config

#: The broadcast sender every sender-style builder defaults to.
SENDER = 0

REGISTRY_KEYS = tuple(sorted(PROTOCOLS))


def _execute(key, seed, adversary=None):
    instance, f = registry_config(key, 10, seed)
    return run_instance(instance, f, adversary, seed=seed)


class TestRegistryProperties:
    def test_one_case_per_registry_key(self):
        """Drop-out guard: the parametrization source is exactly the
        registry — a filtered or stale case list fails here, not by
        silently skipping a protocol."""
        assert sorted(REGISTRY_KEYS) == sorted(PROTOCOLS)
        assert len(REGISTRY_KEYS) == len(PROTOCOLS)

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_benign_agreement_validity_termination(self, key):
        entry = PROTOCOLS[key]
        result = _execute(key, seed=5)
        assert result.all_decided(), key
        assert result.consistent(), key
        assert result.agreement_valid(), key
        assert result.rounds_executed <= result.rounds_budget, key
        if entry.takes("sender_input"):
            # Honest-sender validity: everyone outputs the broadcast.
            assert result.broadcast_valid(SENDER, 1), key

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_crash_adversary_agreement_validity_termination(self, key):
        result = _execute(key, seed=5, adversary=CrashAdversary())
        assert result.all_decided(), key
        assert result.consistent(), key
        assert result.agreement_valid(), key
        assert result.rounds_executed <= result.rounds_budget, key

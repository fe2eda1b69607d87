"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.crypto.groups import TEST_GROUP
from repro.sim.network import Delivery
from repro.types import SecurityParameters


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDECAF)


@pytest.fixture
def group():
    return TEST_GROUP


@pytest.fixture
def params() -> SecurityParameters:
    return SecurityParameters(lam=30, epsilon=0.1)


def mixed_inputs(n: int) -> list:
    return [i % 2 for i in range(n)]


def receive(node, msg):
    """Run one message through an ``AbaNode``'s per-message fold (validate,
    then absorb); returns the ``(iteration, bit)`` a valid Terminate
    adopts, else ``None``."""
    return node._fold([Delivery(sender=msg.sender, payload=msg)])

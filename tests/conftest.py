"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.crypto.groups import TEST_GROUP
from repro.sim.conditions import LinkTopology, NetworkConditions, Partition
from repro.sim.network import Delivery
from repro.types import SecurityParameters


def pytest_addoption(parser):
    parser.addoption(
        "--committee-seed", type=int, default=0,
        help="the seed the single-omission battery builds and runs the "
             "committee-sampling entries at (tier-1 runs seed 0)")
    parser.addoption(
        "--withholding", default=None, metavar="N:K",
        help="run the omission battery's test_k_withholding_nodes at "
             "n = N with K withholders (CI: 8:2 and 10:3); without it "
             "that test runs no group")


@pytest.fixture
def committee_seed(request) -> int:
    return request.config.getoption("--committee-seed")


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
    adopted, else ``None``."""
    node._fold([Delivery(sender=msg.sender, payload=msg)])
    return node._adopted


def random_conditions(rng: random.Random,
                      delta_bounded: bool = False) -> NetworkConditions:
    """One random network environment over the full conditions surface:
    Δ, GST with pre-GST losses, every latency family, every n-independent
    topology kind, and (sometimes) a healing partition.

    ``delta_bounded=True`` restricts to the regime the synchronizer
    argument guarantees correctness in — ``gst=0``, no losses, no
    partitions — leaving Δ, latency, topology, and adversarial delaying
    as the random axes."""
    delta = rng.randint(1, 6)
    kind = rng.choice(("fixed", "uniform", "geometric"))
    if kind == "fixed":
        latency = ("fixed", rng.randint(1, delta))
    elif kind == "uniform":
        lo = rng.randint(1, delta)
        latency = ("uniform", lo, rng.randint(lo, delta))
    else:
        latency = ("geometric", rng.choice((0.3, 0.5, 0.8)))
    gst = 0 if delta_bounded else rng.choice(
        (0, 0, rng.randint(1, 2 * delta)))
    drop_rate = rng.choice((0.0, 0.1, 0.25)) if gst else 0.0
    duplicate_rate = rng.choice((0.0, 0.1)) if gst else 0.0
    topology = None
    if delta > 1:
        topology = rng.choice((
            None,
            LinkTopology.clustered(clusters=rng.choice((2, 4)),
                                   extra=rng.randint(1, delta)),
            LinkTopology.star(hub=0, extra=rng.randint(1, delta)),
            LinkTopology.ring(extra=1),
        ))
    partitions = ()
    if not delta_bounded and rng.random() < 0.3:
        start = rng.randint(0, 4)
        partitions = (Partition(start=start,
                                end=start + rng.randint(2, 6),
                                split=rng.choice((0.3, 0.5, 0.7))),)
    return NetworkConditions(
        delta=delta, gst=gst, latency=latency, drop_rate=drop_rate,
        duplicate_rate=duplicate_rate, partitions=partitions,
        topology=topology)


def registry_config(key, n, seed, conditions=None):
    """A ``PROTOCOLS[key]`` instance and its ``f``, derived from the
    builder's signature alone: ``n`` nodes and the largest ``f < n / 3``,
    per-node mixed inputs or a sender input of 1, the quadratic BA for a
    required ``ba_builder``, and ``conditions`` where the builder takes
    them.  Committee-sampling entries (they take ``params``) run at
    n = 32, f = 8, λ = 12 whatever ``n`` says: their Chernoff-bounded
    committees need that system to be honest-majority at test seeds.

    λ = 12 is small enough that the Chernoff tail shows: with no
    adversary, unanimous inputs miss validity in 3 (``phase-king-
    subquadratic``) and 5–7 (``round-eligibility``) of seeds 0–39.
    Callers keep the mixed inputs here, or they test the tail, not
    their attack."""
    from repro.harness.runner import named_parameters
    from repro.harness.scenarios import PROTOCOLS

    entry = PROTOCOLS[key]
    kwargs = {}
    if entry.takes("params"):
        n, f = 32, 8
        kwargs["params"] = SecurityParameters(lam=12)
    else:
        f = (n - 1) // 3
    if entry.takes("sender_input"):
        kwargs["sender_input"] = 1
    else:
        kwargs["inputs"] = mixed_inputs(n)
    if named_parameters(entry.builder).get("ba_builder"):  # required
        kwargs["ba_builder"] = PROTOCOLS["quadratic"].builder
    if conditions is not None and entry.takes("conditions"):
        kwargs["conditions"] = conditions
    return entry.builder(n=n, seed=seed, f=f, **kwargs), f

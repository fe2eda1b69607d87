"""The reference battery: every registry entry against the reference executor.

Every fast path of the engine — batched delivery, skipped ticks, the
calendar queue's window draws, sleeping nodes, lazily derived node
streams, shared verification memos — is held here, all at once, to
``tests/reference.py``'s :class:`~tests.reference.ReferenceSimulation`,
which takes none of them.  Each cell builds one instance twice and runs
it on both executors; the two must agree on the
:class:`~repro.sim.result.ExecutionResult` (transcript and payloads,
outputs, decision rounds, metrics, ``NetworkStats``), on every honest
node's end state (tallies and their orders included), on every honest
node's scalar state after each round, and on the end state of the
network's stream and of every node's stream.

**Cells.**  Every ``PROTOCOLS`` entry meets every adversary it admits
(``ConfigurationError`` at construction is a refusal), plus
:class:`DecideReplayAdversary`, on the networks ``perfect``, ``wan``,
``lossy`` and ``split-heal``, at n ∈ {4, 7, 13} with f = ⌊(n − 1)/3⌋
and seeds {1, 2}.  The full cross is ≈ 1 800 cells and about a minute
on one core, so the battery cuts what repeats itself:

- ``delay`` on ``perfect`` is a no-op (nothing to delay under lock-step);
- each (adversary, network) pair runs at one (n, seed), the six
  combinations taken in turn, so an entry still meets every size and
  seed on every network and under every adversary, but no pair runs six
  times over;
- entries taking ``params`` run at their registry config (n = 32,
  f = 8, λ = 12), once per adversary, the networks taken in turn.

That is 285 cells in ≈ 12 s.  ``--reference-cross full`` (a conftest
option; CI runs it) runs the uncut cross instead: every admitted
adversary on every network at every size and seed, the ``params``
entries at their registry config.

**Proof of teeth.**  Each of these one-line mutants, applied to a copy
of ``src/``, fails these cells:

- ``_byte_draw_table`` rejects at ``> width`` instead of ``>= width``:
  every entry;
- ``_clamped_sums`` ignores ``cap``: every entry (its ``delay`` cells);
- the engine skips a sleeping node that has mail: ``leader-chain``
  under ``view-split``, in its end tallies;
- the readers rule (``leader_ba.readers``) returns only the leader's
  row also for a NewView carrying a QC: ``leader-ba`` and
  ``leader-chain`` on ``lossy`` (e.g. ``leader-ba-none-lossy-13-1``);
- the readers rule (``leader_ba.readers``) leaves out a node whose lock
  ranks one below a QC (``rank(node.locked) + 1 < iteration``):
  ``leader-ba`` and ``leader-chain`` on ``lossy`` (e.g.
  ``leader-chain-none-lossy-13-1``), in the per-round trace.  Its
  ``<`` → ``<=`` files more copies than needed, which is sound, and
  survives;
- ``VerificationCache.check_quorum``'s memo ignores ``args``:
  ``adaptive-ba`` under ``decide-replay``.

Run it alone with ``PYTHONPATH=src python -m pytest -q
tests/test_reference_battery.py``.
"""

import dataclasses

import pytest

from repro.adversaries import CrashAdversary
from repro.errors import ConfigurationError
from repro.harness.scenarios import (
    ADVERSARIES,
    PROTOCOLS,
    AdversaryFactorySpec,
)
from repro.protocols.adaptive_ba import AdaptiveDecideMsg
from repro.protocols.leader_ba import LeaderDecideMsg
from repro.protocols.view_machine import ViewConfig
from repro.sim.conditions import NETWORKS
from tests.conftest import registry_config
from tests.reference import EVENT, REFERENCE, execute

NETWORK_NAMES = ("perfect", "wan", "lossy", "split-heal")
SIZES = (4, 7, 13)
SEEDS = (1, 2)
REGISTRY_KEYS = tuple(sorted(PROTOCOLS))


class DecideReplayAdversary(CrashAdversary):
    """Re-sends every honest Decide it sees staged as its first corrupt
    node's Decide for the other bit, carrying the same quorum tuple: a
    well-signed message whose members vouch for the wrong bit, which
    every honest node must refuse — also after it accepted the same
    tuple under the honest Decide.  No registry adversary replays a
    quorum, so none reaches the decide-quorum memo's ``args`` check."""

    def __init__(self, instance):
        super().__init__()
        config = instance.config
        if not isinstance(config, ViewConfig):
            raise ConfigurationError(
                f"decide-replay cannot target {instance.name!r}")
        self.authenticator = config.authenticator

    def react(self, round_index, staged):
        forger = self.victims[0] if self.victims else None
        for envelope in staged:
            payload = envelope.payload
            if forger is None or not envelope.honest_sender:
                continue
            if isinstance(payload, LeaderDecideMsg):
                unit = payload.view
            elif isinstance(payload, AdaptiveDecideMsg):
                unit = payload.epoch
            else:
                continue
            bit = 1 - payload.bit
            auth = self.authenticator.attempt(forger, ("Decide", unit, bit))
            self.api.inject(forger, None, dataclasses.replace(
                payload, bit=bit, sender=forger, auth=auth))


#: Adversary factories by name: the registry's, then the battery's own.
FACTORIES = {**{name: AdversaryFactorySpec(name) for name in ADVERSARIES},
             "decide-replay": DecideReplayAdversary}


def admitted(key):
    """The adversaries whose construction accepts ``key``'s instance."""
    instance, _ = registry_config(key, SIZES[0], SEEDS[0])
    names = []
    for name, factory in FACTORIES.items():
        try:
            factory(instance)
        except ConfigurationError:
            continue
        names.append(name)
    return names


def cells(key, full=False):
    """``(adversary, network, n, seed)`` per cell of ``key``: the module
    docstring's cut of the full cross, or with ``full`` the cross."""
    if full:
        sizes = (32,) if PROTOCOLS[key].takes("params") else SIZES
        return [(name, network, n, seed) for name in admitted(key)
                for network in NETWORK_NAMES for n in sizes
                for seed in SEEDS]
    if PROTOCOLS[key].takes("params"):
        sizes = (32,)  # the registry config, whatever n is asked
        pairs = [(name, NETWORK_NAMES[index % len(NETWORK_NAMES)])
                 for index, name in enumerate(admitted(key))]
        pairs = [(name, "wan" if (name, network) == ("delay", "perfect")
                  else network) for name, network in pairs]
    else:
        sizes = SIZES
        pairs = [(name, network) for name in admitted(key)
                 for network in NETWORK_NAMES
                 if (name, network) != ("delay", "perfect")]
    return [(name, network, sizes[index % len(sizes)],
             SEEDS[index // 3 % 2])
            for index, (name, network) in enumerate(pairs)]


def _execute(key, adversary, network, n, seed, engine):
    conditions = NETWORKS[network]
    instance, f = registry_config(key, n, seed, conditions)
    return execute(instance, f, FACTORIES[adversary](instance),
                   engine=engine, seed=seed, conditions=conditions)


#: One ``(key, adversary, network, n, seed)`` per cell, every entry's.
CELLS = [(key, *cell) for key in REGISTRY_KEYS for cell in cells(key)]


def pytest_generate_tests(metafunc):
    """The reference cells: :data:`CELLS`, or the full cross under
    ``--reference-cross full``."""
    if metafunc.definition.originalname == (
            "test_fast_engine_equals_the_reference"):
        chosen = CELLS
        if metafunc.config.getoption("--reference-cross") == "full":
            chosen = [(key, *cell) for key in REGISTRY_KEYS
                      for cell in cells(key, full=True)]
        metafunc.parametrize(
            "key,adversary,network,n,seed", chosen,
            ids=["-".join(map(str, cell)) for cell in chosen])


def test_one_case_per_registry_key():
    """Drop-out guard: the battery is parametrized by the registry
    itself, and every entry has cells on every network."""
    assert REGISTRY_KEYS == tuple(sorted(PROTOCOLS))
    assert {cell[0] for cell in CELLS} == set(REGISTRY_KEYS)
    for key in REGISTRY_KEYS:
        assert {cell[1] for cell in cells(key)} == set(NETWORK_NAMES), key


_BASE = ("none", "actual-faults", "crash", "delay")

#: What :func:`admitted` finds per entry, pinned: ``adversaries.menu``
#: recognizes a family by the schedule its config declares, so a change
#: in recognition fails here by entry name rather than shrinking (or
#: growing) the battery unseen.  These make the 285 cells.
ADMITTED = {
    "adaptive-ba": (*_BASE, "decide-replay"),
    "broadcast-from-ba": (*_BASE, "equivocate", "speaker", "leader-killer",
                          "view-split"),
    "dolev-strong": _BASE,
    "leader-ba": (*_BASE, "leader-killer", "view-split", "decide-replay"),
    "leader-chain": (*_BASE, "leader-killer", "view-split", "decide-replay"),
    "naive-broadcast": _BASE,
    "phase-king": (*_BASE, "equivocate", "speaker", "leader-killer"),
    "phase-king-early-stop": (*_BASE, "equivocate", "speaker",
                              "leader-killer"),
    "phase-king-subquadratic": (*_BASE, "equivocate", "speaker"),
    "quadratic": (*_BASE, "equivocate", "speaker", "leader-killer",
                  "view-split"),
    "quadratic-early-stop": (*_BASE, "equivocate", "speaker",
                             "leader-killer", "view-split"),
    "round-eligibility": (*_BASE, "equivocate", "ack-equivocate", "speaker"),
    "static-committee": _BASE,
    "subquadratic": (*_BASE, "equivocate", "speaker", "view-split"),
}


@pytest.mark.parametrize("key", REGISTRY_KEYS)
def test_admitted_adversaries_are_pinned(key):
    assert tuple(admitted(key)) == ADMITTED[key]


def test_the_cut_is_285_cells():
    assert set(ADMITTED) == set(REGISTRY_KEYS)
    assert len(CELLS) == 285


def test_fast_engine_equals_the_reference(key, adversary, network, n, seed):
    cell = (adversary, network, n, seed)
    fast = _execute(key, *cell, EVENT)
    naive = _execute(key, *cell, REFERENCE)
    differing = [part for part in fast if fast[part] != naive[part]]
    assert not differing, (key, cell, differing)

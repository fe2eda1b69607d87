"""Every verification memo table must earn its keep, and none may
remember a refusal.

A memo tier that measured traffic never reaches is code, keys and an
eviction rule kept for nothing (``_certs`` built an O(threshold) content
key per miss and served 0 hits once construction interned certificates).
The traffic test wraps every table ``VerificationCache`` declares — read
off ``__slots__``, so a table added later is held to the same bar — with
a counting subclass from the test side and requires a hit on each over a
small fixed set of executions; the issuers' ledgers (the registry's
signatures, round-eligibility auths) and the size memo's tuple entries
are held to the same bar.  The semantics test
pins what removing the per-node certificate memo narrowed: a node's
answer about a certificate is always the predicate's current value.
"""

import pytest

from repro import serialization
from repro.crypto.registry import KeyRegistry
from repro.eligibility.fmine import FMineTicket
from repro.harness.runner import run_instance
from repro.harness.scenarios import ScenarioSpec, SweepSpec, run_sweep
from repro.harness.sweep_library import SWEEPS
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.round_eligibility import RoundEligibilityAuthenticator
from repro.protocols.round_eligibility import build_round_eligibility
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.protocols.verification import VerificationCache
from repro.types import SecurityParameters


class CountingSet(set):
    hits = 0

    def __contains__(self, key):
        found = super().__contains__(key)
        self.hits += found
        return found


class CountingDict(dict):
    hits = 0

    def get(self, key, default=None):
        entry = super().get(key, default)
        self.hits += entry is not None
        return entry


class TupleCountingDict(dict):
    """The size memo, counting only hits on tuple entries."""

    hits = 0

    def get(self, key, default=None):
        entry = super().get(key, default)
        self.hits += entry is not None and entry[0].__class__ is tuple
        return entry


def _workloads():
    """The `smoke` sweep (subquadratic, Fmine), dense quadratic and
    round-eligibility runs on split inputs, a view machine under loss and a view-splitting
    adversary, and a three-height chain in lock-step (its deciders'
    Decides share one interned precommit tuple per height, and lock-step
    delivers them to settled nodes too; on wan no Decide reaches a node
    that could still act on it) — in process, so the wrapped tables see
    the traffic."""
    run_sweep(SWEEPS["smoke"])
    n, f = 24, 11
    run_instance(build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1),
                 f, seed=1)
    # λ = 12: the default λ = 40 asks 27 ACKs of 24 nodes, which the
    # builder refuses.
    run_instance(build_round_eligibility(n, 4, [i % 2 for i in range(n)],
                                         seed=1,
                                         params=SecurityParameters(lam=12)),
                 4, seed=1)
    for name, protocol, adversary, network in (
            ("view-split", "leader-ba", "view-split", "lossy"),
            ("leader-chain", "leader-chain", None, "perfect")):
        run_sweep(SweepSpec(name=name, scenarios=(ScenarioSpec(
            name=name, protocol=protocol, adversary=adversary,
            fixed={"n": 13, "f": 4, "network": network}, inputs="mixed",
            seeds=(1,)),)))


#: The identity memos below the verification cache, held to the same bar.
LEDGER = "KeyRegistry._ledger"
ROUND_AUTHS = "RoundEligibilityAuthenticator._ledger"
TUPLE_SIZES = "serialization._SIZE_BY_ID[tuple]"
TABLES = VerificationCache.__slots__ + (LEDGER, ROUND_AUTHS, TUPLE_SIZES)


@pytest.fixture(scope="module")
def hits():
    """Hits per table of ``TABLES``, summed over every cache and registry
    the workloads construct."""
    totals = dict.fromkeys(TABLES, 0)
    tables = []
    wrappers = {set: CountingSet, dict: CountingDict}
    original_init = VerificationCache.__init__
    original_digest = VerificationCache.round_digest

    def counting_init(self):
        original_init(self)
        for slot in VerificationCache.__slots__:
            wrapper = wrappers.get(type(getattr(self, slot)))
            if wrapper is not None:
                table = wrapper()
                setattr(self, slot, table)
                tables.append((slot, table))

    def counting_digest(self, broadcast, build):
        # The one-slot table: a hit is a digest served without building.
        built = []
        digest = original_digest(
            self, broadcast, lambda shared: built.append(1) or build(shared))
        totals["_round_digest"] += digest is not None and not built
        return digest

    def counting_ledger(cls, name):
        original = cls.__init__

        def counting_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self._ledger = CountingDict()
            tables.append((name, self._ledger))

        return counting_init

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VerificationCache, "__init__", counting_init)
        patch.setattr(VerificationCache, "round_digest", counting_digest)
        patch.setattr(KeyRegistry, "__init__",
                      counting_ledger(KeyRegistry, LEDGER))
        patch.setattr(RoundEligibilityAuthenticator, "__init__",
                      counting_ledger(RoundEligibilityAuthenticator,
                                      ROUND_AUTHS))
        sizes = TupleCountingDict()
        patch.setattr(serialization, "_SIZE_BY_ID", sizes)
        _workloads()
    tables.append((TUPLE_SIZES, sizes))
    for slot, table in tables:
        totals[slot] += table.hits
    return totals


@pytest.mark.parametrize("slot", TABLES)
def test_every_table_serves_hits(hits, slot):
    assert hits[slot] >= 1, (
        f"{slot} served no hit over the smoke sweep, "
        f"quadratic and round-eligibility n=24, leader-ba n=13 lossy/view-split and "
        f"leader-chain n=13 lock-step: a memo tier without traffic should be "
        f"deleted, not kept")


def test_refused_certificate_is_accepted_once_its_tickets_are_mined():
    """A certificate whose ``Fmine`` tickets are forged — circulated
    before their nodes mined the topic — is refused on first sight, and
    the *same* object is accepted by the *same* node once the honest
    tickets exist: no table remembers the ``False``."""
    n, f, seed = 24, 5, 4
    params = SecurityParameters(lam=8)

    def build():
        return build_subquadratic_ba(n, f, [1] * n, seed=seed, params=params)

    topic = ("Vote", 1, 1)
    # Coins are a function of (seed, node, topic): a twin instance tells
    # who will win without mining anything in the instance under test.
    twin = build().authenticator.source
    instance = build()
    node = instance.nodes[0]
    threshold = node.config.threshold
    winners = [candidate for candidate in range(n)
               if twin.capability_for(candidate).try_mine(topic)
               is not None][:threshold]
    assert len(winners) == threshold, "too few lottery winners at this seed"

    forged = certificate_from_votes(
        1, 1, {winner: FMineTicket(node_id=winner, topic=topic)
               for winner in winners}, threshold)
    assert not node._check_certificate(forged)
    assert not node._check_certificate(forged)  # still the current value
    eligibility = instance.authenticator.source
    for winner in winners:
        assert eligibility.capability_for(winner).try_mine(topic) is not None
    assert node._check_certificate(forged)
    # ...and the acceptance, unlike the refusal, is shared.
    assert instance.nodes[1]._check_certificate(forged)

"""Soundness of the verification memoization and simulation fast paths.

The performance subsystem (repro.protocols.verification, the registry's
verify memo, the network delivery fast path, the size-accounting memo, and
the parallel trial runner) must be *observationally invisible*: identical
``ExecutionResult``s for identical seeds, no cache hit across different
message content, and no cache poisoning via partial-key collisions.
"""

import dataclasses

import pytest

from repro.adversaries import CrashAdversary
from repro.harness.runner import TrialStats, run_instance, run_trials
from repro.harness.scenarios import STATS_COLUMNS
from repro.protocols.certificates import Certificate, certificate_from_votes
from repro.protocols.messages import SignedVote
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.errors import SimulationError
from repro.sim.conditions import NETWORKS, NetworkStats
from repro.sim.engine import Simulation
from tests.reference import digest, fold_every_message


def _signed_votes(registry, iteration, bit, voters):
    return {voter: registry.capability_for(voter).sign(("Vote", iteration, bit))
            for voter in voters}


def _run_quadratic(seed, n=13, f=6, cached=True, **kwargs):
    inputs = [i % 2 for i in range(n)]
    instance = build_quadratic_ba(n, f, inputs, seed=seed)
    if not cached:
        fold_every_message(instance.nodes)
    return run_instance(instance, f, seed=seed, **kwargs)


class TestCertificateCacheSoundness:
    def _instance(self, n=7, f=3, seed=0):
        instance = build_quadratic_ba(n, f, [1] * n, seed=seed)
        return instance, instance.authenticator.registry, instance.nodes[0]

    def test_content_equal_certificate_hits_cache(self):
        """A certificate assembled independently (new objects, equal
        content) must not trigger a second cryptographic pass: its votes
        carry the issued auths, which the registry answers from its
        ledger with no digest."""
        instance, registry, node = self._instance()
        votes = _signed_votes(registry, 1, 1, range(4))
        first = certificate_from_votes(1, 1, votes, node.config.threshold)
        assert node._check_certificate(first)

        counted = []
        original = registry._expected_digest

        def counting(node_id, message):
            counted.append((node_id, message))
            return original(node_id, message)

        registry._expected_digest = counting
        # Built by hand: certificate_from_votes itself interns assembly,
        # so it would return ``first``.  The content cache must still
        # cover genuinely distinct content-equal objects (e.g. arriving
        # from an adversary that bypasses the assembly path).
        second = Certificate(
            iteration=1, bit=1,
            votes=tuple(
                SignedVote(iteration=1, bit=1, voter=voter, auth=auth)
                for voter, auth in
                sorted(votes.items())[:node.config.threshold]))
        assert second is not first and second == first
        assert node._check_certificate(second)
        assert counted == []  # no digest recomputed

    def test_cache_shared_across_nodes_of_one_instance(self):
        """Verification is a public predicate: once node 0 verified a
        certificate, node 1's check of an equal copy is free."""
        instance, registry, node0 = self._instance()
        node1 = instance.nodes[1]
        votes = _signed_votes(registry, 1, 1, range(4))
        assert node0._check_certificate(
            certificate_from_votes(1, 1, votes, node0.config.threshold))

        counted = []
        original = node1.config.authenticator.check

        def counting(node_id, topic, auth):
            counted.append(node_id)
            return original(node_id, topic, auth)

        node1.config.authenticator.check = counting
        assert node1._check_certificate(
            certificate_from_votes(1, 1, votes, node1.config.threshold))
        assert counted == []

    def test_tampered_vote_auth_never_verifies(self):
        """One forged vote auth must fail, even when a content-equal
        honest certificate was verified first (no partial-key collision)."""
        instance, registry, node = self._instance()
        votes = _signed_votes(registry, 1, 1, range(4))
        honest = certificate_from_votes(1, 1, votes, node.config.threshold)
        assert node._check_certificate(honest)

        # Voter 0's slot now carries a signature by voter 5 (forged).
        forged_auth = registry.capability_for(5).sign(("Vote", 1, 1))
        tampered_votes = tuple(
            SignedVote(iteration=1, bit=1, voter=v.voter, auth=forged_auth)
            if v.voter == 0 else v
            for v in honest.votes)
        tampered = Certificate(iteration=1, bit=1, votes=tampered_votes)
        assert not node._check_certificate(tampered)
        # And the honest certificate still verifies afterwards.
        assert node._check_certificate(honest)

    def test_tampered_first_does_not_poison_honest(self):
        instance, registry, node = self._instance()
        votes = _signed_votes(registry, 1, 1, range(4))
        honest = certificate_from_votes(1, 1, votes, node.config.threshold)
        wrong_topic_auth = registry.capability_for(0).sign(("Vote", 2, 1))
        tampered = Certificate(iteration=1, bit=1, votes=tuple(
            SignedVote(iteration=1, bit=1, voter=v.voter, auth=wrong_topic_auth)
            if v.voter == 0 else v for v in honest.votes))
        assert not node._check_certificate(tampered)
        assert node._check_certificate(honest)

    def test_cached_true_not_returned_for_bool_aliased_topic(self):
        """True == 1 as a dict key, but signatures are computed over
        canonical bytes that distinguish them: a verdict cached for bit 1
        must not be served for bit True."""
        instance, registry, node = self._instance()
        auth = registry.capability_for(2).sign(("Vote", 1, 1))
        assert node._check_auth(2, ("Vote", 1, 1), auth)   # cached True
        assert not node._check_auth(2, ("Vote", 1, True), auth)
        assert not registry.verify(2, ("Vote", 1, True), auth)
        assert registry.verify(2, ("Vote", 1, 1), auth)

    def test_negative_results_not_shared_across_time(self):
        """A forged eligibility ticket circulated *before* the honest node
        mines must not poison the later honest, content-equal ticket
        (Fmine.verify legitimately flips False -> True on mining)."""
        from repro.eligibility.fmine import FMineTicket

        n, f = 24, 5
        instance = build_subquadratic_ba(n, f, [1] * n, seed=4)
        eligibility = instance.authenticator.source
        node = instance.nodes[0]
        topic = ("Vote", 1, 1)
        winner = None
        for candidate in range(1, n):
            forged = FMineTicket(node_id=candidate, topic=topic)
            # Pre-mining check: must fail, and must not be cached.
            assert not node._check_auth(candidate, topic, forged)
            if eligibility.capability_for(candidate).try_mine(topic) is not None:
                winner = candidate
                break
        assert winner is not None, "no node won the vote lottery"
        genuine = FMineTicket(node_id=winner, topic=topic)
        assert node._check_auth(winner, topic, genuine)

    def test_vote_cache_key_includes_auth(self):
        """Same (voter, iteration, bit) with a different auth is a
        different cache line."""
        instance, registry, node = self._instance()
        good = SignedVote(iteration=1, bit=1, voter=2,
                          auth=registry.capability_for(2).sign(("Vote", 1, 1)))
        bad = SignedVote(iteration=1, bit=1, voter=2,
                         auth=registry.capability_for(2).sign(("Vote", 1, 0)))
        assert node._check_vote_auth(good)
        assert not node._check_vote_auth(bad)
        assert node._check_vote_auth(good)

    def test_vote_identity_front_keeps_only_verified_votes(self):
        """A refused vote object is refused on every sight, a verified one
        is then known by identity, and one whose auth is unhashable (so
        could change) is never kept by identity."""
        from repro.protocols.verification import VerificationCache

        instance, registry, node = self._instance()
        forged = SignedVote(iteration=1, bit=1, voter=2, auth=registry
                            .capability_for(5).sign(("Vote", 1, 1)))
        assert not node._check_vote_auth(forged)
        assert not node._check_vote_auth(forged)
        good = SignedVote(iteration=1, bit=1, voter=2, auth=registry
                          .capability_for(2).sign(("Vote", 1, 1)))
        assert node._check_vote_auth(good)
        assert node._verification._vote_true_by_id == {id(good): good}

        class AcceptsAll:
            def check(self, node_id, topic, auth):
                return True

        cache = VerificationCache()
        mutable = SignedVote(iteration=1, bit=1, voter=2, auth=["sig"])
        assert cache.check_vote(AcceptsAll(), mutable)
        assert cache._vote_true_by_id == {}


class TestDeterminism:
    def test_identical_results_with_and_without_caching(self):
        cached = {seed: digest(_run_quadratic(seed)) for seed in range(3)}
        uncached = {seed: digest(_run_quadratic(seed, cached=False))
                    for seed in range(3)}
        assert cached == uncached

    def test_subquadratic_identical_with_and_without_caching(self):
        def build_and_run(cached):
            n, f = 24, 5
            inputs = [i % 2 for i in range(n)]
            instance = build_subquadratic_ba(n, f, inputs, seed=11)
            if not cached:
                fold_every_message(instance.nodes)
            return digest(run_instance(instance, f, seed=11))

        assert build_and_run(False) == build_and_run(True)

    def test_metrics_only_retention_changes_nothing_but_transcript(self):
        full = _run_quadratic(5)
        lean = _run_quadratic(5, transcript_retention="metrics-only")
        assert lean.transcript == []
        assert full.transcript  # default keeps everything
        assert lean.outputs == full.outputs
        assert lean.decided_rounds == full.decided_rounds
        assert lean.rounds_executed == full.rounds_executed
        assert vars(lean.metrics) == vars(full.metrics)

    def test_unknown_retention_policy_rejected(self):
        instance = build_quadratic_ba(5, 2, [1] * 5, seed=0)
        with pytest.raises(SimulationError):
            Simulation(instance.nodes, 2, transcript_retention="bogus")


class TestParallelTrials:
    def test_workers_do_not_change_aggregates(self):
        n, f = 13, 6
        kwargs = dict(f=f, seeds=range(4), n=n,
                      inputs=[i % 2 for i in range(n)])
        serial = run_trials(build_quadratic_ba, **kwargs)
        parallel = run_trials(build_quadratic_ba, workers=4, **kwargs)
        for stats in (serial, parallel):
            assert stats.trials == 4
        assert serial.consistency_rate == parallel.consistency_rate
        assert serial.validity_rate == parallel.validity_rate
        assert serial.termination_rate == parallel.termination_rate
        assert serial.mean_multicasts == parallel.mean_multicasts
        assert serial.mean_multicast_bits == parallel.mean_multicast_bits
        assert serial.mean_rounds == parallel.mean_rounds
        assert serial.decision_rounds() == parallel.decision_rounds()
        assert ([digest(r) for r in serial.results]
                == [digest(r) for r in parallel.results])


def _recomputed_columns(results):
    """Every ``STATS_COLUMNS`` value, recomputed from ``results``."""
    count = len(results)
    return {
        "trials": count,
        "consistency_rate": sum(r.consistent() for r in results) / count,
        "validity_rate": sum(r.agreement_valid() for r in results) / count,
        "termination_rate": sum(r.all_decided() for r in results) / count,
        "violation_rate": sum(not (r.consistent() and r.agreement_valid())
                              for r in results) / count,
        "mean_rounds": sum(r.rounds_executed for r in results) / count,
        "mean_multicasts": sum(r.metrics.multicast_complexity_messages
                               for r in results) / count,
        "mean_multicast_bits": sum(r.metrics.multicast_complexity_bits
                                   for r in results) / count,
        "mean_corruptions": sum(r.corruptions_used for r in results) / count,
        "max_message_bits": max(r.metrics.max_message_bits for r in results),
    }


class TestTrialStatsCounters:
    @pytest.mark.parametrize("network", [None, "wan"])
    def test_rates_match_recomputation(self, network):
        n, f = 13, 6
        stats = run_trials(build_quadratic_ba, f=f, seeds=range(3),
                           n=n, inputs=[i % 2 for i in range(n)],
                           adversary_factory=lambda _: CrashAdversary(),
                           conditions=NETWORKS.get(network))
        results = stats.results
        assert ({name: getattr(stats, name) for name in STATS_COLUMNS}
                == _recomputed_columns(results))
        conditioned = [r.network_stats for r in results
                       if r.network_stats is not None]
        assert len(conditioned) == (0 if network is None else len(results))
        assert stats.has_network_stats == bool(conditioned)
        for stat in dataclasses.fields(NetworkStats):
            values = [getattr(each, stat.name) for each in conditioned]
            expected = (max(values, default=0) if stat.name == "max_in_flight"
                        else sum(values))
            assert getattr(stats.network, stat.name) == expected, stat.name
        if network is not None:
            assert stats.network.delivered_copies > 0

    def test_holds_only_its_results(self):
        assert vars(TrialStats()) == {"_results": []}

    def test_preloaded_results_are_counted(self):
        source = run_trials(build_quadratic_ba, f=2, seeds=range(2),
                            n=5, inputs=[1] * 5)
        rebuilt = TrialStats(results=list(source.results))
        assert rebuilt.trials == source.trials
        assert rebuilt.consistency_rate == source.consistency_rate
        assert rebuilt.mean_multicasts == source.mean_multicasts

    def test_results_view_is_read_only(self):
        """Counters only stay honest if results enter via add(); direct
        list mutation must fail loudly, not silently skew the rates."""
        stats = TrialStats()
        with pytest.raises(AttributeError):
            stats.results.append("not-a-result")


class TestSizeCacheSoundness:
    def test_size_cache_distinguishes_bool_fields(self):
        """SignedVote(bit=1) == SignedVote(bit=True) under dataclass
        equality, but their canonical sizes differ (64-bit int vs 8-bit
        bool) — the memo must not serve one for the other, in either
        warm-up order."""
        from repro.serialization import encoded_size_bits

        as_int = SignedVote(iteration=1, bit=1, voter=2, auth=b"x")
        as_bool = SignedVote(iteration=1, bit=True, voter=2, auth=b"x")
        assert as_int == as_bool
        int_size = encoded_size_bits(as_int)
        bool_size = encoded_size_bits(as_bool)
        assert int_size == bool_size + 56  # word vs tag byte
        # Warm cache, re-query both: still distinguished.
        assert encoded_size_bits(as_bool) == bool_size
        assert encoded_size_bits(as_int) == int_size


class TestDiscardedTranscriptGuards:
    def test_invariant_checkers_refuse_discarded_transcript(self):
        from repro.harness.invariants import honest_votes_unique_per_iteration

        result = _run_quadratic(3, transcript_retention="metrics-only")
        with pytest.raises(ValueError, match="metrics-only"):
            honest_votes_unique_per_iteration(result)

    def test_replay_refuses_discarded_transcript(self):
        from repro.harness.replay import narrate

        result = _run_quadratic(3, transcript_retention="metrics-only")
        with pytest.raises(ValueError, match="metrics-only"):
            narrate(result)

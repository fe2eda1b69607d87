"""Perf smoke guards: verification and absorption work must stay bounded
as n grows.

Counts calls — ``authenticator.check`` invocations, per-message handler
steps, ``SignedVote`` constructions and ``signed_vote`` calls, sequence
sizings, digests per issued-signature check, topic encodings, keyed sorts,
``random.Random`` seedings, pool submits before the first awaited
result, view-machine steps, tally scans, decide-quorum checks,
content-keyed vote checks, NewView absorb steps, QC-less NewView copies
in honest non-leaders' inboxes, calendar bucket lengths and a
conditioned window's ``getrandbits`` calls — not wall time, so CI
hardware variance cannot flake it.  Before the
content-addressed verification caches, the n = 96 quadratic-BA run
below performed ~921k checks; with them it performs a few hundred.  The
budget is deliberately generous (50 per node) so legitimate protocol
changes don't trip it, while any regression to per-copy re-verification
(which is Θ(n² · threshold)), or a silent fall-back from the shared
round digest to the n² per-message fold, overshoots it by orders of
magnitude.  The budgets say a fast path is taken; the differential
suites beside them (``tests/test_round_digest.py`` and the like) say it
is right.
"""

import functools
import gc

import pytest

from repro.harness.profiling import profile_phase_budget
from repro.harness.runner import run_instance
from repro.harness.scenarios import PROTOCOLS
from repro.protocols import aba
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.sim import engine, metrics
from repro.sim.conditions import NETWORKS, ConditionedNetwork
from repro.sim.network import SynchronousNetwork
from tests.conftest import registry_config


def test_quadratic_ba_n96_check_call_budget():
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_phase_budget(instance, f, seed=1)

    # The run must still be a correct agreement...
    assert profile.result.consistent()
    assert profile.result.all_decided()
    # ...within the call budget (measured: 625 at n=96, seed 1; each
    # honest auth is answered by the registry's ledger).
    budget = 50 * n
    assert profile.check_calls <= budget, (
        f"authenticator.check called {profile.check_calls} times, "
        f"budget {budget}: verification memoization has regressed")


def test_phase_budget_books_each_clock_to_its_seam():
    """The bench's ``sim.deliver_ms`` and ``sim.scheduler_ms`` read these
    buckets: the lock-step clock's turns book to ``deliver`` and never
    to the scheduler; a conditioned clock's to ``scheduler`` and never
    to ``deliver``."""
    n, f = 16, 5

    def budget(**kwargs):
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
        return profile_phase_budget(instance, f, seed=1, **kwargs)

    lockstep = budget()
    assert lockstep.deliver_seconds > 0
    assert lockstep.scheduler_seconds == 0
    wan = budget(conditions=NETWORKS["wan"])
    assert wan.scheduler_seconds > 0
    assert wan.deliver_seconds == 0


def _shared_seams():
    """The class and module attributes the loop's phases run through,
    which every thread of the process shares."""
    return [SynchronousNetwork.deliver, ConditionedNetwork.advance_to,
            engine.Simulation._honest_step, metrics.encoded_size_bits]


@pytest.mark.parametrize("network", [None, "wan"])
def test_phase_budget_rebinds_no_shared_attribute(monkeypatch, network):
    """The profiler times a run from the loop's own phase stamps: every
    verification in a profiled run sees the shared seams as they were."""
    n, f = 16, 5
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    authenticator = instance.authenticator
    check = authenticator.check
    originals = _shared_seams()
    seen = []

    def spy(node_id, topic, auth):
        seen.append([now is then
                     for now, then in zip(_shared_seams(), originals)])
        return check(node_id, topic, auth)

    monkeypatch.setattr(authenticator, "check", spy)
    profile = profile_phase_budget(
        instance, f, seed=1,
        conditions=network and NETWORKS[network])
    assert profile.check_calls == len(seen) > 0
    assert all(all(row) for row in seen)


def test_phase_budget_pauses_and_restores_the_collector(monkeypatch):
    """The collector is off during a profiled run (its pauses would land
    in whichever bucket they hit) and back as the caller left it after
    one, also when the run raises."""
    n, f = 16, 5
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            instance = build_quadratic_ba(n, f, [0] * n, seed=1)
            profile_phase_budget(instance, f, seed=1)
            assert gc.isenabled() is enabled

        gc.enable()
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
        during = []

        def failing(node_id, topic, auth):
            during.append(gc.isenabled())
            raise RuntimeError("check failed")

        monkeypatch.setattr(instance.authenticator, "check", failing)
        with pytest.raises(RuntimeError, match="check failed"):
            profile_phase_budget(instance, f, seed=1)
        assert during == [False]
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


#: ``check_calls`` per registry entry at n = 16, seed 1 (the committee
#: entries at n = 32, f = 8, λ = 12).  Dolev–Strong and the naive relay
#: have no authenticator: they book no check and no verify time.
PROFILED_CHECK_CALLS = {
    "subquadratic": 138, "quadratic": 103, "quadratic-early-stop": 81,
    "leader-ba": 55, "leader-chain": 239, "adaptive-ba": 61,
    "phase-king": 340, "phase-king-early-stop": 51,
    "phase-king-subquadratic": 263, "static-committee": 56,
    "round-eligibility": 260, "dolev-strong": 0, "naive-broadcast": 0,
    "broadcast-from-ba": 38,
}


@pytest.mark.parametrize("key", sorted(PROTOCOLS))
def test_every_registry_entry_profiles(key):
    instance, f = registry_config(key, 16, 1)
    profile = profile_phase_budget(instance, f, seed=1)
    assert profile.result.all_decided() and profile.result.consistent()
    assert profile.check_calls == PROFILED_CHECK_CALLS[key]
    assert (profile.verify_seconds > 0) is (instance.authenticator is not None)


def test_quadratic_ba_n96_handler_call_budget(monkeypatch):
    """A benign run is all plain multicasts, so every round is absorbed
    from one shared digest: one step per *message* (≈ n per round), not
    one per delivery (≈ n² per round).  Measured: 385 steps over 7 rounds
    at n = 96; the per-message fold takes 36 575.

    Every per-message step dispatches through the class table
    ``AbaNode._HANDLERS`` (absorb) or ``aba._TALLIES`` (digest tally);
    the run reads copies of both whose steps count their calls.
    """
    calls = [0]

    def counting(step):
        def counted(target, message):
            calls[0] += 1
            return step(target, message)
        return counted

    monkeypatch.setattr(aba.AbaNode, "_HANDLERS", {
        cls: (valid, counting(absorb))
        for cls, (valid, absorb) in aba.AbaNode._HANDLERS.items()})
    monkeypatch.setattr(aba, "_TALLIES", {
        cls: counting(tally) for cls, tally in aba._TALLIES.items()})
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    result = run_instance(instance, f, seed=1)

    assert result.consistent()
    assert result.all_decided()
    budget = 3 * n * result.rounds_executed
    assert calls[0] <= budget, (
        f"{calls[0]} per-message handler steps, budget "
        f"{budget}: rounds are being folded delivery by delivery instead "
        f"of absorbed from the shared round digest")


def test_phase_king_n96_check_budget(monkeypatch):
    """Phase-king validates through the shared payload front, so a
    benign run checks each ACK and proposal object once, not once per
    recipient: at most a constant times n auth checks per round.
    Measured: 1 940 checks over 41 rounds at n = 96 (≈ 0.5 n per round);
    the per-recipient intake took 184 300 (≈ 47 n per round)."""
    from repro.protocols.phase_king import build_phase_king

    n, f = 96, 31
    instance = build_phase_king(n, f, [i % 2 for i in range(n)], seed=1)
    checks = [0]
    check = instance.authenticator.check

    def counting(node_id, topic, auth):
        checks[0] += 1
        return check(node_id, topic, auth)

    monkeypatch.setattr(instance.authenticator, "check", counting)
    result = run_instance(instance, f, seed=1)

    assert result.consistent() and result.all_decided()
    budget = 2 * n * result.rounds_executed
    assert checks[0] <= budget, (
        f"{checks[0]} auth checks, budget {budget}: phase-king payloads "
        f"are validated once per recipient instead of once per object")


def test_post_gst_window_draws_bits_and_pushes_rounds(monkeypatch):
    """A plain post-GST ``wan`` window takes its latency draws in
    batches: one ``getrandbits`` call per rejection round (each asks for
    the draws still missing) until fewer than 8 are, then single draws —
    not one or more calls per copy: the per-copy loop made ≈ 2 calls a
    copy, as ``wan``'s 3-bit draw rejects half the words.  Rejection
    rounds roughly halve what is missing, so the bound is two calls per
    bit of the copy count plus 16 for the last few draws.  The window
    never climbs ``random.Random.randint``'s wrapper stack,
    and the heap holds *due rounds* — one push per distinct round the
    window's copies come due in, however many copies there are."""
    import heapq
    import random

    from repro.sim import conditions as conditions_module
    from tests.reference import pending_copies

    calls = {"randint": 0, "heappush": 0, "getrandbits": 0}

    class CountingRandom(random.Random):
        def getrandbits(self, bits):
            calls["getrandbits"] += 1
            return super().getrandbits(bits)

    def counting_randint(self, low, high):
        calls["randint"] += 1
        return self.randrange(low, high + 1)

    def counting_heappush(heap, item):
        calls["heappush"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(random.Random, "randint", counting_randint)
    monkeypatch.setattr(conditions_module, "heappush", counting_heappush)

    n = 64
    wan = NETWORKS["wan"]
    network = ConditionedNetwork(n, wan, seed=1)
    counting = CountingRandom()
    counting.setstate(network._rng.getstate())
    network._rng = counting
    network.advance_to(0, {})
    for clock, senders in enumerate((10, 1, n), start=1):
        for sender in range(senders):
            network.stage(sender, None, "vote", clock - 1,
                          honest_sender=True)
        before = dict(calls), network.stats.events_processed
        network.advance_to(clock, {node: [] for node in range(n)})
        copies = network.stats.events_processed - before[1]
        assert copies == senders * (n - 1)
        draws = calls["getrandbits"] - before[0]["getrandbits"]
        assert draws <= 2 * copies.bit_length() + 16, (
            f"{draws} getrandbits calls for {copies} copies: the window "
            "draws per copy instead of per rejection round")
        pushes = calls["heappush"] - before[0]["heappush"]
        assert pushes <= wan.delta
    assert calls["randint"] == 0
    pending = pending_copies(network)
    assert len(pending) + network.stats.delivered_copies == \
        network.stats.events_processed


def _run_n96():
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    result = run_instance(instance, f, seed=1)
    assert result.consistent() and result.all_decided()
    return n


def test_quadratic_ba_n96_wraps_each_vote_once(monkeypatch):
    """Every node assembles certificates over the same ≈ 2n votes; the
    wrap memo constructs each ``SignedVote`` once per execution, not
    once per certificate that includes it (≈ n²/2 at the parent)."""
    from repro.protocols import certificates as certificates_module
    from repro.protocols.messages import SignedVote

    built = []

    def counting(iteration, bit, voter, auth):
        built.append((iteration, bit, voter))
        return SignedVote(iteration=iteration, bit=bit, voter=voter,
                          auth=auth)

    monkeypatch.setattr(certificates_module, "SignedVote", counting)
    _run_n96()
    assert built and len(built) <= len(set(built)) + 2, (
        f"{len(built)} SignedVote constructions for {len(set(built))} "
        f"distinct votes: the wrap memo is being missed")


def test_quadratic_ba_n96_encodes_each_signed_topic_once(monkeypatch):
    """All n signers of ``("Vote", r, b)`` digest one encoding of it:
    topic encodings in the sign path track distinct topics, not
    signatures (one per signer and topic at the parent)."""
    from repro.crypto import registry as registry_module
    from repro.crypto.hashing import hash_objects
    from repro.serialization import canonical_bytes, type_tagged

    encoded = []

    def counting_bytes(obj):
        if obj.__class__ is tuple:
            encoded.append(type_tagged(obj))
        return canonical_bytes(obj)

    def counting_hash(domain, node_id, message):
        encoded.append(type_tagged(message))
        return hash_objects(domain, node_id, message)

    monkeypatch.setattr(registry_module, "canonical_bytes", counting_bytes,
                        raising=False)
    monkeypatch.setattr(registry_module, "hash_objects", counting_hash)
    n = _run_n96()
    assert encoded and len(encoded) <= len(set(encoded)) + n, (
        f"{len(encoded)} topic encodings for {len(set(encoded))} distinct "
        f"signed topics: the registry re-encodes the topic per signer")


def test_quadratic_ba_n96_sizes_each_shared_tuple_once(monkeypatch):
    """Every terminating node attaches the one interned stripped commit
    quorum; the size memo walks it once, not once per Terminate.
    Measured: 4 sequence sizings (192 items); 99 (4 752) at the parent."""
    from repro import serialization

    walks = []
    walk = serialization._size_sequence

    def counting(obj):
        walks.append(len(obj))
        return walk(obj)

    monkeypatch.setattr(serialization, "_size_sequence", counting)
    for cls, sizer in list(serialization._SIZERS.items()):
        if sizer is walk:
            monkeypatch.setitem(serialization._SIZERS, cls, counting)
    _run_n96()
    assert 0 < len(walks) <= 8, (
        f"{len(walks)} sequence sizings ({sum(walks)} items): a shared "
        f"tuple is re-walked for every envelope that carries it")


def test_quadratic_ba_n96_lends_wrapped_votes(monkeypatch):
    """A node whose own vote lies outside the round's quorum prefix
    assembles its certificate from the votes that quorum already wrapped:
    measured 240 ``signed_vote`` calls; 2 496 at the parent."""
    from repro.protocols import certificates as certificates_module

    calls = []
    wrap = certificates_module.signed_vote

    def counting(*args):
        calls.append(1)
        return wrap(*args)

    monkeypatch.setattr(certificates_module, "signed_vote", counting)
    _run_n96()
    assert 0 < len(calls) <= 300, (
        f"{len(calls)} signed_vote calls: certificates re-wrap votes "
        f"their round's quorum certificate already holds")


def test_issued_signature_verifies_without_a_digest(monkeypatch):
    """``KeyRegistry.verify`` recognizes a signature it issued by
    identity: no SHA-256 and two ``type_tagged`` walks (node, message);
    signing a warm topic costs one SHA-256 and no canonical encoding."""
    from repro.crypto import registry as registry_module
    from repro.crypto.registry import KeyRegistry

    registry = KeyRegistry(8)
    registry.capability_for(3).sign(("Vote", 2, 1))
    signature = registry.capability_for(3).sign(("Vote", 2, 1))
    calls = {"sha256": 0, "type_tagged": 0, "canonical_bytes": 0}
    for name in calls:
        original = getattr(registry_module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(registry_module, name, counting)
    assert registry.verify(3, ("Vote", 2, 1), signature)
    assert calls == {"sha256": 0, "type_tagged": 2, "canonical_bytes": 0}
    registry.capability_for(3).sign(("Vote", 2, 1))
    assert calls == {"sha256": 1, "type_tagged": 4, "canonical_bytes": 0}


def test_quadratic_ba_n96_terminate_sorts_sender_keys(monkeypatch):
    """``_terminate`` picks its commit quorum by sorting sender keys in
    C; a keyed sort calls back into Python n times per node."""
    import builtins

    from repro.protocols import aba as aba_module

    sorts = {"plain": 0, "keyed": 0}

    def counting(iterable, *, key=None, reverse=False):
        sorts["plain" if key is None else "keyed"] += 1
        return builtins.sorted(iterable, key=key, reverse=reverse)

    monkeypatch.setattr(aba_module, "sorted", counting, raising=False)
    _run_n96()
    assert sorts["plain"] > 0 and sorts["keyed"] == 0, sorts


def test_subquadratic_n384_silent_node_pays_one_coin(monkeypatch):
    """A node that loses the lottery costs its mining attempts and
    nothing else: no protocol-coin stream is derived (nothing in this
    protocol reads ``ctx.rng``), and the only ``random.Random`` objects
    seeded are the coins'.  At the parent every stepping node seeded its
    stream on top: 12 289 seedings for 9 216 attempts at n = 3072."""
    import random

    from repro.protocols.subquadratic_ba import build_subquadratic_ba

    from tests.test_sparse_step import NodeStreamCounter

    seedings = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            seedings.append(1)
            super().__init__(*args)

    node_streams = NodeStreamCounter(monkeypatch).nodes
    monkeypatch.setattr(random, "Random", CountingRandom)
    n, f = 384, 150
    instance = build_subquadratic_ba(n, f, [1] * n, seed=1)
    result = run_instance(instance, f, seed=1)
    assert result.consistent() and result.all_decided()
    attempts = len(instance.authenticator.source.fmine._coins)
    assert attempts >= n * result.rounds_executed
    assert node_streams == []
    assert len(seedings) <= attempts + 4, (
        f"{len(seedings)} random.Random seedings for {attempts} mining "
        f"attempts: silent nodes are paying for more than their coin")


def _run_chain13(conditions=NETWORKS["wan"]):
    """A three-height leader chain at n = 13 on wan (``None``: lock-step),
    seed 1."""
    from repro.protocols.leader_ba import build_leader_chain

    n, f = 13, 4
    instance = build_leader_chain(n, f, [i % 2 for i in range(n)], seed=1,
                                  conditions=conditions)
    result = run_instance(instance, f, seed=1, conditions=conditions)
    assert result.consistent() and result.all_decided()


def _count_chain13_calls(monkeypatch, cls, name):
    """How often ``cls.name`` runs in :func:`_run_chain13`."""
    calls = []
    method = getattr(cls, name)

    def counting(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counting)
    _run_chain13()
    return len(calls)


def test_leader_chain_files_only_copies_a_node_can_act_on(monkeypatch):
    """A conditioned window files a copy only for a node that can still
    act on it (``ProtocolInstance.audience``): measured 1 008 filed
    copies of 1 752 counted; 1 608 when every Decide also reached the
    nodes that had settled its height and every QC-carrying NewView the
    nodes whose lock the QC did not outrank."""
    filed = []
    steps = ConditionedNetwork.steps

    def counting(self, max_rounds):
        for round_index, inboxes in steps(self, max_rounds):
            filed.append(sum(map(len, inboxes.values())))
            yield round_index, inboxes

    monkeypatch.setattr(ConditionedNetwork, "steps", counting)
    _run_chain13()
    assert sum(filed) == 1008, f"{sum(filed)} copies filed"


def test_a_finished_chain_is_freed_without_the_collector():
    """The readers hook reads the nodes' live state but closes no
    reference cycle through them: with the cyclic collector off, a
    finished chain's nodes go when its instance and result do.  A hook
    the nodes could reach (their shared config) would leave every
    finished run to the collector, and peak RSS would grow."""
    import weakref

    from repro.protocols.leader_ba import build_leader_chain

    wan = NETWORKS["wan"]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        instance = build_leader_chain(7, 2, [i % 2 for i in range(7)],
                                      seed=1, conditions=wan)
        result = run_instance(instance, 2, seed=1, conditions=wan)
        node = weakref.ref(instance.nodes[0])
        del instance, result
        assert node() is None, "a reference cycle keeps the nodes"
    finally:
        if enabled:
            gc.enable()


def test_leader_chain_settled_heights_sleep(monkeypatch):
    """A node holding a settled height sleeps out its window and the
    engine skips it while it has no mail: measured 221 ``on_round``
    calls; 793 when every node was stepped every round."""
    from repro.protocols.view_machine import ViewNode

    calls = _count_chain13_calls(monkeypatch, ViewNode, "on_round")
    assert 0 < calls <= 250, (
        f"{calls} ViewNode.on_round calls: settled nodes are being "
        f"stepped through rounds in which they do nothing")


def test_leader_chain_scans_the_tally_after_a_quorum_forms(monkeypatch):
    """The member tally is rescanned only after a new quorum formed:
    measured 78 ``_settle`` calls; 1 131 when every step rescanned it,
    and 273 when a scan forgets to clear its flag."""
    from repro.protocols.leader_ba import LeaderBaNode

    calls = _count_chain13_calls(monkeypatch, LeaderBaNode, "_settle")
    assert 0 < calls <= 120, (
        f"{calls} LeaderBaNode._settle calls: the tally is rescanned "
        f"in rounds in which no quorum formed")


def test_leader_chain_checks_each_decide_quorum_once(monkeypatch):
    """Every decider multicasts its own Decide, but all carry one
    interned precommit tuple: each member of it is ``check``ed once
    per tuple, not once per Decide (≈ n times at the parent).  Lock-step,
    where every copy is delivered: on wan every node settles before a
    Decide would land, so none is filed or verified."""
    import collections

    from repro.protocols.base import SignatureAuthenticator
    from repro.protocols.view_machine import ViewNode

    checks = collections.Counter()
    verifying = []  # the decide tuple being checked, pinned for its id
    quorum_of, check = ViewNode._quorum_of, SignatureAuthenticator.check

    def counting_quorum_of(self, members, unit_field, unit, bit, topic,
                           size):
        verifying.append(members if topic == self.MEMBER_TOPIC else None)
        try:
            return quorum_of(self, members, unit_field, unit, bit, topic,
                             size)
        finally:
            verifying.pop()

    def counting_check(self, node_id, topic, auth):
        if verifying and verifying[-1] is not None:
            checks[id(verifying[-1]), node_id] += 1
        return check(self, node_id, topic, auth)

    monkeypatch.setattr(ViewNode, "_quorum_of", counting_quorum_of)
    monkeypatch.setattr(SignatureAuthenticator, "check", counting_check)
    _run_chain13(conditions=None)
    assert checks, "no decide quorum was verified"
    assert max(checks.values()) == 1, (
        f"a decide-quorum member was checked "
        f"{max(checks.values())} times for one interned tuple")


def test_leader_chain_checks_each_vote_object_by_content_once(monkeypatch):
    """``signed_vote`` interns each wrapped vote, and a vote verified once
    is known by identity: content-keyed checks (an authenticator
    ``check`` under ``check_vote``) stay within the distinct
    ``SignedVote`` objects checked.  Measured: 26 for 26 votes; 225 at
    the parent, which keyed every check by content."""
    from repro.protocols.base import SignatureAuthenticator
    from repro.protocols.verification import VerificationCache

    votes = {}  # id -> vote, pinned so ids stay distinct
    keyed = []
    inside = []
    check_vote, check = (VerificationCache.check_vote,
                         SignatureAuthenticator.check)

    def counting_check_vote(self, authenticator, vote):
        votes[id(vote)] = vote
        inside.append(vote)
        try:
            return check_vote(self, authenticator, vote)
        finally:
            inside.pop()

    def counting_check(self, node_id, topic, auth):
        if inside:
            keyed.append(1)
        return check(self, node_id, topic, auth)

    monkeypatch.setattr(VerificationCache, "check_vote", counting_check_vote)
    monkeypatch.setattr(SignatureAuthenticator, "check", counting_check)
    _run_chain13()
    assert votes, "no vote was checked"
    assert len(keyed) <= len(votes), (
        f"{len(keyed)} content-keyed vote checks for {len(votes)} distinct "
        f"SignedVote objects: a verified vote is re-keyed on every check")


def test_leader_chain_builds_each_decide_key_once(monkeypatch):
    """Every decider of a ``(view, bit)`` picks the same lowest-id
    precommits, and the decide front answers with the tuple interned for
    them: ``intern_quorum`` builds its content key once per ``(view,
    bit)``, not once per decider.  Measured: 3 keys for 39 deciders; 39
    at the parent."""
    import collections

    from repro.protocols import view_machine

    keys, deciders = collections.Counter(), collections.Counter()
    intern_quorum = view_machine.intern_quorum
    decide = view_machine.ViewNode.quorum_decide_msg

    def counting_intern_quorum(tag, unit, bit, signers, build):
        keys[unit, bit] += 1
        return intern_quorum(tag, unit, bit, signers, build)

    def counting_decide(self, unit, bit):
        deciders[unit, bit] += 1
        return decide(self, unit, bit)

    monkeypatch.setattr(view_machine, "intern_quorum", counting_intern_quorum)
    monkeypatch.setattr(view_machine.ViewNode, "quorum_decide_msg",
                        counting_decide)
    _run_chain13()
    assert set(keys) == set(deciders) and min(deciders.values()) > 1, (
        f"deciders {dict(deciders)}: the run no longer shares a quorum")
    assert max(keys.values()) == 1, (
        f"{sum(keys.values())} decide-quorum keys for "
        f"{sum(deciders.values())} deciders over {len(deciders)} (view, "
        f"bit): each decider rebuilds the shared tuple's key")


def test_leader_killer_n25_files_and_absorbs_per_recipient(monkeypatch):
    """A NewView without a QC can change only its view's leader: the
    conditioned window counts its copies to other honest nodes without
    filing them, so none reaches such a node's inbox, while
    ``delivered_copies`` still counts every copy sent; any recipient
    that does get one (the lock-step network delivers every copy) skips
    its absorb step.  The calendar files copies under their recipient,
    so a due round's bucket holds one group per window that fed it.
    Before the window counted them, ≈ n - 2 copies of each such NewView
    reached honest non-leaders; before the audience skip every copy was
    absorbed; before the calendar a bucket held one entry per copy."""
    from repro.adversaries import LeaderKillerAdversary
    from repro.protocols.leader_ba import (
        LeaderBaNode,
        NewViewMsg,
        build_leader_ba,
    )
    from repro.sim.conditions import NETWORKS, ConditionedNetwork

    n, f = 25, 8
    wan = NETWORKS["wan"]
    absorbed = []
    absorb = LeaderBaNode._absorb_new_view

    def counting_absorb(self, msg):
        absorbed.append(1)
        return absorb(self, msg)

    monkeypatch.setattr(LeaderBaNode, "_absorb_new_view", counting_absorb)
    monkeypatch.setitem(LeaderBaNode._HANDLERS, NewViewMsg,
                        (LeaderBaNode._valid_new_view, counting_absorb))

    windows, oversized = [], []
    schedule = ConditionedNetwork._schedule_window

    def recording_schedule(self, sent_round):
        schedule(self, sent_round)
        windows.append(sent_round)
        for due, bucket in self._buckets.items():
            fed = sum(1 for sent in windows if due - wan.delta <= sent < due)
            if len(bucket) > fed:
                oversized.append((due, len(bucket), fed))

    monkeypatch.setattr(ConditionedNetwork, "_schedule_window",
                        recording_schedule)
    instance = build_leader_ba(n, f, [i % 2 for i in range(n)], seed=1,
                               conditions=wan)
    leader = instance.config.proposer.oracle.leader
    inert = []

    class Watching(LeaderKillerAdversary):
        def observe_deliveries(self, round_index, inboxes):
            inert.extend(
                (round_index, node, delivery.payload.view)
                for node in range(n) if not self.api.is_corrupt(node)
                for delivery in inboxes[node]
                if isinstance(delivery.payload, NewViewMsg)
                and delivery.payload.qc is None
                and leader(delivery.payload.view) != node)
            super().observe_deliveries(round_index, inboxes)

    result = run_instance(instance, f, Watching(instance), seed=1,
                          conditions=wan)
    assert result.consistent() and result.all_decided()
    assert not inert, (
        f"(round, node, view) {inert[:3]}: {len(inert)} QC-less NewView "
        f"copies reached honest nodes other than the view's leader")
    # wan loses nothing and delays at most Δ, so every copy but those of
    # the last round (staged after the final drain) was delivered.
    last = result.rounds_executed - 1
    sent = sum(n - 1 if envelope.recipient is None else 1
               for envelope in result.transcript
               if envelope.round_sent < last)
    assert result.network_stats.delivered_copies == sent
    new_views = [envelope.payload for envelope in result.transcript
                 if isinstance(envelope.payload, NewViewMsg)]
    leader_copies = sum(leader(msg.view) != msg.sender for msg in new_views)
    qc_copies = sum(n - 1 for msg in new_views if msg.qc is not None)
    # Slack: the sender's own absorb and the first validator's call.
    budget = leader_copies + qc_copies + 2 * len(new_views)
    assert 0 < len(absorbed) <= budget, (
        f"{len(absorbed)} NewView absorb calls, budget {budget}: copies "
        f"outside a QC-less NewView's audience are being absorbed")
    assert windows and not oversized, (
        f"(due, bucket length, windows) {oversized[:3]}: the calendar "
        f"holds an entry per copy, not a group per window")


class _InThreadPool:
    """Stands in for ``ProcessPoolExecutor``: logs every ``submit`` and
    every awaited ``result()``, running the task in-thread on demand."""

    log = []

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        self.log.append("submit")
        return _InThreadFuture(self.log, functools.partial(fn, *args, **kwargs))

    def shutdown(self, *args, **kwargs):
        pass


class _InThreadFuture:
    def __init__(self, log, task):
        self.log, self.task = log, task

    def result(self):
        self.log.append("result")
        return self.task()


def test_sweep_dispatch_has_no_per_cell_barrier(monkeypatch):
    """A pooled sweep submits every seed of every ``trials`` cell before
    it awaits the first result — a per-cell barrier (submit a cell,
    await it, submit the next) interleaves the two and leaves a worker
    idle at the end of every cell whose seeds do not divide evenly."""
    import concurrent.futures

    from repro.harness.scenarios import run_sweep
    from repro.harness.sweep_library import SWEEPS

    monkeypatch.setattr(_InThreadPool, "log", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InThreadPool)
    sweep = SWEEPS["smoke"]
    pooled = run_sweep(sweep, workers=2)
    seeds = sum(len(cell.seeds) for cell in sweep.expand()
                if cell.executor == "trials")
    assert seeds == 4
    assert _InThreadPool.log == ["submit"] * seeds + ["result"] * seeds
    monkeypatch.undo()
    assert pooled.rows() == run_sweep(sweep).rows()

"""Perf smoke guards: verification and absorption work must stay bounded
as n grows.

Counts calls — ``authenticator.check`` invocations, per-message handler
steps, ``SignedVote`` constructions and ``signed_vote`` calls, sequence
sizings, digests per issued-signature check, topic encodings, keyed sorts,
``random.Random`` seedings, pool submits before the first awaited
result, view-machine steps, tally scans, decide-quorum checks, NewView
absorb steps and calendar bucket lengths — not wall time, so CI hardware variance cannot flake it.  Before the
content-addressed verification caches, the n = 96 quadratic-BA run
below performed ~921k checks; with them it performs a few hundred.  The
budget is deliberately generous (50 per node) so legitimate protocol
changes don't trip it, while any regression to per-copy re-verification
(which is Θ(n² · threshold)) overshoots it by orders of magnitude.
"""

import functools

from repro.harness.profiling import (
    profile_handler_calls,
    profile_phase_budget,
)
from repro.harness.runner import run_instance
from repro.protocols.quadratic_ba import build_quadratic_ba


def test_quadratic_ba_n96_check_call_budget():
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_phase_budget(instance, f, seed=1)

    # The run must still be a correct agreement...
    assert profile.result.consistent()
    assert profile.result.all_decided()
    # ...within the call budget (measured: 385 at n=96, seed 1).
    budget = 50 * n
    assert profile.check_calls <= budget, (
        f"authenticator.check called {profile.check_calls} times, "
        f"budget {budget}: verification memoization has regressed")


def test_quadratic_ba_n96_handler_call_budget():
    """A benign run is all plain multicasts, so every round is absorbed
    from one shared digest: one step per *message* (≈ n per round), not
    one per delivery (≈ n² per round).  Measured: 385 steps over 7 rounds
    at n = 96; the per-message fold takes 36 575."""
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_handler_calls(instance, f, seed=1)

    assert profile.result.consistent()
    assert profile.result.all_decided()
    budget = 3 * n * profile.result.rounds_executed
    assert profile.handler_calls <= budget, (
        f"{profile.handler_calls} per-message handler steps, budget "
        f"{budget}: rounds are being folded delivery by delivery instead "
        f"of absorbed from the shared round digest")


def test_post_gst_window_draws_bits_and_pushes_rounds(monkeypatch):
    """The conditioned scheduler's per-copy cost on a plain post-GST
    multicast window is a ``getrandbits`` draw and a list append: it
    never climbs ``random.Random.randint``'s wrapper stack, and the heap
    holds *due rounds* — one push per distinct round the window's copies
    come due in, however many copies there are."""
    import heapq
    import random

    from repro.sim import conditions as conditions_module
    from repro.sim.conditions import NETWORKS, ConditionedNetwork

    calls = {"randint": 0, "heappush": 0}

    def counting_randint(self, low, high):
        calls["randint"] += 1
        return self.randrange(low, high + 1)

    def counting_heappush(heap, item):
        calls["heappush"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(random.Random, "randint", counting_randint)
    monkeypatch.setattr(conditions_module, "heappush", counting_heappush)

    n, senders = 64, 10
    network = ConditionedNetwork(n, NETWORKS["wan"], seed=1)
    network.advance_to(0, {})
    for sender in range(senders):
        network.stage(sender, None, "vote", 0, honest_sender=True)
    network.advance_to(1, {node: [] for node in range(n)})

    pending = network.pending_copies()
    due_rounds = {copy.due_round for copy in pending}
    copies = network.stats.events_processed
    assert copies == senders * (n - 1)
    assert len(pending) + network.stats.delivered_copies == copies
    assert calls["randint"] == 0
    assert calls["heappush"] <= len(due_rounds | {1}) <= NETWORKS["wan"].delta


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
    identity: no SHA-256 and two ``type_tagged`` walks (node, message),
    where the parent walked four and looked the digest up."""
    from repro.crypto import registry as registry_module
    from repro.crypto.registry import KeyRegistry

    registry = KeyRegistry(8)
    signature = registry.capability_for(3).sign(("Vote", 2, 1))
    calls = {"hash_bytes": 0, "type_tagged": 0}
    for name in calls:
        original = getattr(registry_module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(registry_module, name, counting)
    assert registry.verify(3, ("Vote", 2, 1), signature)
    assert calls == {"hash_bytes": 0, "type_tagged": 2}, calls


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
    attempts = len(instance.services["eligibility"].fmine._coins)
    assert attempts >= n * result.rounds_executed
    assert node_streams == []
    assert len(seedings) <= attempts + 4, (
        f"{len(seedings)} random.Random seedings for {attempts} mining "
        f"attempts: silent nodes are paying for more than their coin")


def _run_chain13():
    """A three-height leader chain at n = 13 on wan, seed 1."""
    from repro.protocols.leader_ba import build_leader_chain
    from repro.sim.conditions import NETWORKS

    n, f = 13, 4
    wan = NETWORKS["wan"]
    instance = build_leader_chain(n, f, [i % 2 for i in range(n)], seed=1,
                                  conditions=wan)
    result = run_instance(instance, f, seed=1, conditions=wan)
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
    interned precommit tuple: each member of it is ``check_auth``ed once
    per tuple, not once per Decide (≈ n times at the parent)."""
    import collections

    from repro.protocols.verification import VerificationCache
    from repro.protocols.view_machine import ViewNode

    checks = collections.Counter()
    verifying = []  # the decide tuple being checked, pinned for its id
    quorum_of, check_auth = ViewNode._quorum_of, VerificationCache.check_auth

    def counting_quorum_of(self, members, unit_field, unit, bit, topic,
                           size):
        verifying.append(members if topic == self.MEMBER_TOPIC else None)
        try:
            return quorum_of(self, members, unit_field, unit, bit, topic,
                             size)
        finally:
            verifying.pop()

    def counting_check_auth(self, authenticator, node_id, topic, auth):
        if verifying and verifying[-1] is not None:
            checks[id(verifying[-1]), node_id] += 1
        return check_auth(self, authenticator, node_id, topic, auth)

    monkeypatch.setattr(ViewNode, "_quorum_of", counting_quorum_of)
    monkeypatch.setattr(VerificationCache, "check_auth", counting_check_auth)
    _run_chain13()
    assert checks, "no decide quorum was verified"
    assert max(checks.values()) == 1, (
        f"a decide-quorum member was check_auth'ed "
        f"{max(checks.values())} times for one interned tuple")


def test_leader_killer_n25_files_and_absorbs_per_recipient(monkeypatch):
    """A NewView without a QC can change only its view's leader, so the
    other recipients skip its absorb step; and the calendar files copies
    under their recipient, so a due round's bucket holds one group per
    window that fed it.  At the parent every copy of every NewView was
    absorbed (≈ n - 1 per message) and a bucket held one entry per copy."""
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
    leader = instance.services["oracle"].leader
    result = run_instance(instance, f, LeaderKillerAdversary(instance),
                          seed=1, conditions=wan)
    assert result.consistent() and result.all_decided()
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

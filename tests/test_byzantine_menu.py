"""The Byzantine menu: pinned executions and the menu's own property.

(a) A table of full-content execution digests, policy × family × world,
captured at the commit *before* ``repro.adversaries.menu`` existed.  The
equivocator, the view-splitter and the leader-killer were three
hand-written classes then; they are policies over one menu now, and the
table is the contract that the rewrite moved no envelope: corrupt nodes
in corruption order, bit 0 before bit 1, the justification-pool check
before the ``attempt`` (which records Fmine coins and issues
signatures), one ``inject`` per target in ascending id.

(b) Every payload the menu emits with a granted auth passes the
family's validity predicate on an honest node — a menu entry an honest
node would drop is a no-op that still spends coins.
"""

import pytest

from repro.adversaries import (
    LeaderKillerAdversary,
    StaticEquivocationAdversary,
    ViewSplitAdversary,
)
from repro.harness.runner import run_instance
from repro.protocols.aba import AbaNode
from repro.protocols.broadcast import build_broadcast_from_ba
from repro.protocols.leader_ba import (
    LeaderBaNode,
    LeaderProposeMsg,
    NewViewMsg,
    PrevoteMsg,
    build_leader_ba,
    build_leader_chain,
)
from repro.protocols.messages import (
    AckMsg,
    PhaseKingProposeMsg,
    ProposeMsg,
    VoteMsg,
)
from repro.protocols.phase_king import PhaseKingNode, build_phase_king
from repro.protocols.phase_king_subquadratic import (
    build_phase_king_subquadratic,
)
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.conditions import NETWORKS
from repro.sim.leader import RandomLeaderOracle
from repro.sim.network import Delivery
from repro.sim.node import RoundContext
from repro.types import SecurityParameters
from tests.test_perf_caches import _result_digest

PARAMS = SecurityParameters(lam=30, epsilon=0.1)
SEEDS = (1, 2, 3)


def _mixed(n):
    return [i % 2 for i in range(n)]


def _quadratic(seed):
    return build_quadratic_ba(13, 6, _mixed(13), seed=seed), 6, None


def _subquadratic(seed):
    return (build_subquadratic_ba(60, 18, _mixed(60), seed=seed,
                                  params=PARAMS), 18, None)


def _phase_king(seed):
    return (build_phase_king(10, 3, _mixed(10), seed=seed, epochs=6,
                             oracle=RandomLeaderOracle(10, seed)), 3, None)


def _phase_king_subquadratic(seed):
    return (build_phase_king_subquadratic(
        60, 15, _mixed(60), seed=seed, params=PARAMS, epochs=6), 15, None)


def _broadcast_from_ba(seed):
    return (build_broadcast_from_ba(build_quadratic_ba, 13, 6,
                                    sender_input=1, seed=seed), 6, None)


def _leader_ba(seed):
    # A seeded random oracle: corrupt nodes lead some early views, so the
    # split-proposal entry (and its attestation pool) actually fires.
    return (build_leader_ba(10, 3, _mixed(10), seed=seed,
                            oracle=RandomLeaderOracle(10, seed)), 3, None)


def _wan_leader_chain(seed):
    wan = NETWORKS["wan"]
    return (build_leader_chain(7, 2, _mixed(7), seed=seed, heights=2,
                               oracle=RandomLeaderOracle(7, seed),
                               conditions=wan), 2, wan)


WORLDS = {
    "quadratic": _quadratic,
    "subquadratic": _subquadratic,
    "phase-king": _phase_king,
    "phase-king-subquadratic": _phase_king_subquadratic,
    "broadcast-from-ba": _broadcast_from_ba,
    "leader-ba": _leader_ba,
    "wan-leader-chain": _wan_leader_chain,
}

POLICIES = {
    "equivocate": StaticEquivocationAdversary,
    "view-split": ViewSplitAdversary,
    "leader-killer": LeaderKillerAdversary,
}

#: The payload classes each family's menu may emit, one per entry.
FAMILY_VOCABULARY = {
    "aba": {ProposeMsg, VoteMsg},
    "phase-king": {PhaseKingProposeMsg, AckMsg},
    "leader-ba": {NewViewMsg, LeaderProposeMsg, PrevoteMsg},
}

#: (policy, world) -> digest per seed in SEEDS, captured at b4a92c3 (the
#: parent of the menu) with ``python tests/test_byzantine_menu.py``, and
#: again when the metrics' per-round bit totals, which the digest hashes,
#: changed shape: every other hashed part reproduced the b4a92c3 table
#: first, and ``tests/test_trial_boundary.py`` checks the totals against
#: the transcript.
PINNED = {
    ('equivocate', 'quadratic'): (
        'a45e7b945c2d3d78', '9b4bffbd957e73e0',
        '8c1bca8e7e2c5929'),
    ('equivocate', 'subquadratic'): (
        '2954b44f02c34699', '2b736b63dc9c8f56',
        '71d34e42d18e588f'),
    ('equivocate', 'phase-king'): (
        'ba0b3eb92df9e479', '3d2a44bbbfba1ad7',
        '7fdd138d43bbf0ce'),
    ('equivocate', 'phase-king-subquadratic'): (
        'cae88dc223ecaf8a', 'd61b026b3009743b',
        'b8cc1d37cab23805'),
    ('equivocate', 'broadcast-from-ba'): (
        '402073a8070eadd5', 'd8847dbbf6492dfa',
        'add945b944d08626'),
    ('view-split', 'quadratic'): (
        '7b9a214eb1b437f8', '4b3a821c3ed9784a',
        '4572a6ca14e6c06f'),
    ('view-split', 'subquadratic'): (
        'fccb8f2db76890c1', '7011b6b2815a1111',
        '88e1f9134d8ad9aa'),
    ('view-split', 'leader-ba'): (
        'c528aee281bbc300', '97be37ff15831ce2',
        'aeec43ea9df1f809'),
    ('view-split', 'wan-leader-chain'): (
        '8227d111a86a8aa3', '2c1549f185e4affc',
        'f5ce9fb4b56363fb'),
    ('leader-killer', 'quadratic'): (
        '12a34a2313bf044a', '54c3b55e6fabc721',
        'a0631fc052ec9f2a'),
    ('leader-killer', 'phase-king'): (
        'e38e692f59a785a7', 'ebdf652d5e0618ae',
        '57a9cbfdb87ca22f'),
    ('leader-killer', 'leader-ba'): (
        '6b1f374319d09b54', '682676d305925813',
        'b3a01071ef85f7d7'),
}


def _digest(policy, world, seed):
    instance, f, conditions = WORLDS[world](seed)
    adversary = POLICIES[policy](instance)
    result = run_instance(instance, f, adversary, seed=seed,
                          conditions=conditions)
    return _result_digest(result)[:16]


@pytest.mark.parametrize("policy, world", sorted(PINNED))
def test_execution_is_the_one_the_hand_written_class_produced(policy, world):
    assert tuple(_digest(policy, world, seed)
                 for seed in SEEDS) == PINNED[policy, world]



# -- (b) what the menu offers, an honest node accepts --------------------------


def _king_accepts(node, payload):
    """Phase-king validates inline, so the predicate is the effect: a
    fresh node that is delivered the payload tallies it."""
    fresh = PhaseKingNode(node.node_id, node.n, 0, node.config)
    fresh._process_inbox(RoundContext(
        fresh.node_id, 0, [Delivery(payload.sender, payload)], None))
    return bool(fresh.proposals_heard or fresh.acks_seen)


VALID = {
    ProposeMsg: AbaNode._valid_propose,
    VoteMsg: AbaNode._valid_vote,
    PhaseKingProposeMsg: _king_accepts,
    AckMsg: _king_accepts,
    **{cls: valid for cls, (valid, _) in LeaderBaNode._HANDLERS.items()},
}


def _record_offers(adversary):
    emitted, offers = [], adversary.menu.offers

    def recorded(*args):
        for offer in offers(*args):
            emitted.append(offer[2])
            yield offer

    adversary.menu.offers = recorded
    return emitted


@pytest.mark.parametrize("policy, world", sorted(
    key for key in PINNED if key[0] != "leader-killer"))
def test_every_offered_payload_is_valid_on_an_honest_node(policy, world):
    pytest.importorskip("repro.adversaries.menu")  # (a) also runs pre-menu
    kinds = set()
    for seed in SEEDS:
        instance, f, conditions = WORLDS[world](seed)
        adversary = POLICIES[policy](instance)
        emitted = _record_offers(adversary)
        run_instance(instance, f, adversary, seed=seed,
                     conditions=conditions)
        honest = instance.nodes[0]
        honest = getattr(honest, "inner", honest)  # BroadcastNode
        assert 0 not in adversary.corrupted
        for payload in emitted:
            assert type(payload) in FAMILY_VOCABULARY[adversary.family]
            assert VALID[type(payload)](honest, payload), payload
            kinds.add(type(payload))
    # Across the seeds every entry of the family's menu fired.
    assert kinds == FAMILY_VOCABULARY[adversary.family]


def test_the_menu_is_the_registry_of_families():
    families = pytest.importorskip("repro.adversaries.menu").FAMILIES
    assert [family.name for family in families] == [
        "aba", "phase-king", "leader-ba"]
    for family in families:
        assert family.propose_phase in family.entries
        assert len(FAMILY_VOCABULARY[family.name]) == len(family.entries)


if __name__ == "__main__":  # reprint the table
    for policy, world in PINNED:
        digests = tuple(_digest(policy, world, seed) for seed in SEEDS)
        print(f"    ({policy!r}, {world!r}): {digests!r},")

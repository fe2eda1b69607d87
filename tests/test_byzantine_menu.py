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
#: parent of the menu) with ``python tests/test_byzantine_menu.py``.
PINNED = {
    ('equivocate', 'quadratic'): (
        '70d85c16d4afc69a', '787bb435cf76a2ad',
        'd4234d8ffcc092d8'),
    ('equivocate', 'subquadratic'): (
        '233a816ba9da522c', 'ffc2e7fc788bc100',
        '9c6f4da37a73790a'),
    ('equivocate', 'phase-king'): (
        'b24175082ddb3b98', 'f019bb6362d170be',
        '933113794d313c3d'),
    ('equivocate', 'phase-king-subquadratic'): (
        '740f9ffacda3425d', 'cc9ad417f695b00a',
        '592bfb20704e74bf'),
    ('equivocate', 'broadcast-from-ba'): (
        '298134b5fa83f676', 'f854b0570fd40216',
        '45229da22e007985'),
    ('view-split', 'quadratic'): (
        '93a00f7a08ae0357', 'faca043d70543b1a',
        '40a106de2995c5d8'),
    ('view-split', 'subquadratic'): (
        '09d4b056598a383c', '2d8d8e45d89f2390',
        'c4ed9799c5fb2abd'),
    ('view-split', 'leader-ba'): (
        'eaeccb10abc60dbd', 'd583c20af07c6303',
        '06c5bf2795ea3ded'),
    ('view-split', 'wan-leader-chain'): (
        '0bd91b143e22a5b7', 'bc076403933a13e8',
        '09be21cf1f5fc563'),
    ('leader-killer', 'quadratic'): (
        '69f74e4552bbfe90', '4df3304bb918443c',
        'c7369cdc6ea7ae9c'),
    ('leader-killer', 'phase-king'): (
        'a12a6c70a6d8dabf', 'ff0b3f953761f3bd',
        'c599f8b8c3a757bf'),
    ('leader-killer', 'leader-ba'): (
        '0148bbdddf1c18bf', 'f391ff4fd386a4ec',
        '42d969d406914231'),
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


if __name__ == "__main__":  # reprint the table (from a b4a92c3 checkout)
    for policy, world in PINNED:
        digests = tuple(_digest(policy, world, seed) for seed in SEEDS)
        print(f"    ({policy!r}, {world!r}): {digests!r},")

"""Corrupt every announced leader before it proposes.

The oracle-based warmups announce the epoch leader publicly, so an
adaptive adversary can assassinate each leader at the start of its
iteration, stalling progress until the corruption budget runs dry —
expected round complexity degrades from O(1) to Θ(f) while safety is
untouched.  The VRF-compiled protocols are immune: nobody knows who the
proposers are until their proposals are already multicast.  Experiment E4
reports both columns.

Against the view-based leader family (``leader-ba`` / ``leader-chain``)
the same strike is the classic round-robin worst case: each view's
leader is known from the view number alone, so the adversary silences
it at the view's Propose round.  Rotation drains the budget in at most
``f`` consecutive views (round-robin leaders of consecutive views are
distinct), after which every post-GST view has a live honest leader and
the protocol decides — the regression tests pin exactly that.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversaries.menu import family_of
from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.sim.adversary import Adversary
from repro.sim.leader import LeaderOracle
from repro.sim.network import Delivery
from repro.types import NodeId, Round


class LeaderKillerAdversary(Adversary):
    """Corrupts (and silences) each oracle-announced leader."""

    name = "leader-killer"
    #: Every family with a public leader schedule (``menu.FAMILIES``).
    admits = ("aba", "phase-king", "leader-ba")

    def __init__(self, instance: ProtocolInstance) -> None:
        super().__init__()
        proposer = getattr(instance.config, "proposer", None)
        oracle = getattr(proposer, "oracle", None)
        if not isinstance(oracle, LeaderOracle):
            raise ConfigurationError(
                "leader-killer needs an announced leader oracle")
        self.oracle = oracle
        self._family = family_of(instance, self.name, self.admits)
        self.family = self._family.name
        self.killed: List[NodeId] = []

    def observe_deliveries(self, round_index: Round,
                           inboxes: Dict[NodeId, List[Delivery]]) -> None:
        # Strike before the honest step: the leader of the epoch (an
        # iteration for the paper protocols, a view for the leader family
        # — either way the oracle's epoch key) whose proposal round
        # begins now is corrupted before it can speak.
        epoch, phase = self._family.schedule.schedule(round_index)
        if phase != self._family.propose_phase:
            return
        api = self.api
        leader = self.oracle.leader(epoch)
        if api.is_corrupt(leader) or api.corruptions_remaining <= 0:
            return
        api.corrupt(leader)
        self.killed.append(leader)

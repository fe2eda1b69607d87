"""The attack that motivates the paper (Section 1):

*"Such an attacker can simply observe what nodes are on the committee,
then corrupt them, and thereby control the whole committee!"*

Against :mod:`repro.protocols.static_committee` the CRS-elected committee
is public from setup, so an adaptive adversary corrupts it wholesale and
splits the network: half the listeners are told the output is 0, the
other half that it is 1.  Every listener sees a majority of (validly
signed) committee announcements, so consistency is violated with
certainty — with only ``|committee| = O(polylog n)`` corruptions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.protocols.static_committee import (
    CommitteeAuthenticator, CommitteeOutputMsg)
from repro.sim.adversary import Adversary
from repro.sim.corruption import CorruptionGrant
from repro.sim.network import Envelope
from repro.types import NodeId, Round


class CommitteeTakeoverAdversary(Adversary):
    """Corrupts the announced committee and equivocates its output."""

    name = "committee-takeover"

    def __init__(self, instance: ProtocolInstance) -> None:
        super().__init__()
        authenticator = instance.authenticator
        if not isinstance(authenticator, CommitteeAuthenticator):
            raise ConfigurationError(
                "committee takeover needs a public committee")
        self.committee: List[NodeId] = sorted(authenticator.committee)
        self.registry = authenticator.registry
        self.grants: Dict[NodeId, CorruptionGrant] = {}
        self._attacked = False

    def on_setup(self) -> None:
        api = self.api
        if len(self.committee) > api.corruption_budget:
            raise ConfigurationError(
                f"budget {api.corruption_budget} cannot cover committee of "
                f"size {len(self.committee)}")
        for member in self.committee:
            self.grants[member] = api.corrupt(member)

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        if self._attacked:
            return
        self._attacked = True
        committee_set = set(self.committee)
        listeners = [node for node in range(self.api.n)
                     if node not in committee_set]
        half = len(listeners) // 2
        split = {node: 0 for node in listeners[:half]}
        split.update({node: 1 for node in listeners[half:]})
        for member in self.committee:
            capability = self.grants[member].signing_capability
            for listener, bit in split.items():
                signature = capability.sign(("committee-output", bit))
                self.api.inject(member, listener, CommitteeOutputMsg(
                    bit=bit, sender=member, auth=signature))

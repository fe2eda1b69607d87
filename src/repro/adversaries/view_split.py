"""View-splitting attack: conflicting messages to different halves.

The subtlest adversary in the zoo.  Where its parent
:class:`~repro.adversaries.static_byzantine.StaticEquivocationAdversary`
multicasts its equivocations (so every honest node sees the same mess),
this one *unicasts* different proposals and votes to different halves of
the network, driving honest nodes into divergent certificate views:

- even-id honest nodes see corrupt proposals/votes for bit 0,
- odd-id honest nodes see corrupt proposals/votes for bit 1,

so equal-rank certificates for opposite bits can arise in the same
iteration — precisely the situation the Vote rule's tie-break clause
("an equal-rank certificate for the other bit does not block", C.1) must
handle.  Safety must survive arbitrarily long view splits via quorum
intersection; liveness recovers at the next iteration with a unique
honest proposer (Lemma 12).

Against the view-based leader family the same split drives the
view-change machinery instead: per-half conflicting NewView
attestations, per-half conflicting proposals whenever a corrupt node
holds the view's leadership (justified by harvested honest attestations
plus corrupt signatures), and per-half conflicting prevotes.  The n−f
prevote quorums intersect in n−2f > f nodes for every admitted n > 3f,
making equal-rank opposite QCs impossible there, so the attack can only
burn views and split locks, never agreement — the property suite pins
exactly that.
"""

from __future__ import annotations

from typing import List

from repro.adversaries.static_byzantine import StaticEquivocationAdversary
from repro.types import Bit, NodeId


class ViewSplitAdversary(StaticEquivocationAdversary):
    """Static corruption; per-half conflicting proposals and votes."""

    name = "view-split"
    admits = ("aba", "leader-ba")

    def targets(self, bit: Bit) -> List[NodeId]:
        """The half of the (non-corrupt) network that is fed ``bit``."""
        api = self.api
        return [node for node in range(api.n)
                if node % 2 == bit and not api.is_corrupt(node)]

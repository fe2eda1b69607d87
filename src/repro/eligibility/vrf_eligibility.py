"""Compiled real-world eligibility (Appendix D.4).

Replaces ``Fmine`` with the VRF of :mod:`repro.crypto.vrf`:

- ``mine(m)`` → evaluate the node's VRF on the topic, succeed iff the
  256-bit output ``beta`` is below the topic's difficulty threshold
  ``D_p``; the ticket carries the evaluation and its NIZK.
- ``verify`` → check the NIZK against the node's public key (from the
  PKI established at trusted setup) and re-check the threshold.

Evaluations are memoized per topic — a VRF is a deterministic function, so
re-mining the same topic cannot re-roll the lottery (the property the
paper's Footnote 7 adaptive-security discussion is about).  Both memos are
keyed by :func:`~repro.serialization.type_tagged` forms: ``True == 1``
under Python equality, but the VRF encodes the two labels apart.

Every source runs over the library's ``TEST_GROUP``; the primitives of
:mod:`repro.crypto.vrf` take any group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.crypto.groups import TEST_GROUP
from repro.crypto.vrf import VrfKeyPair, VrfOutput, VrfPublicKey, verify_vrf
from repro.eligibility.base import (
    EligibilitySource,
    MiningCapability,
    Ticket,
    Topic,
)
from repro.eligibility.difficulty import DifficultySchedule
from repro.rng import Seed, derive_rng
from repro.serialization import type_tagged
from repro.types import NodeId


@dataclass(frozen=True)
class VrfTicket(Ticket):
    """A verifiable lottery win: the VRF output for the topic."""

    output: VrfOutput


class VrfEligibility(EligibilitySource):
    """Eligibility by real VRF evaluations under a per-node keypair.

    The constructor is the trusted setup of Theorem 2: it generates every
    node's VRF keypair and publishes the list of public keys (the PKI).
    """

    def __init__(self, n: int, schedule: DifficultySchedule,
                 seed: Seed) -> None:
        self.n = n
        self.schedule = schedule
        self.group = TEST_GROUP
        setup_rng = derive_rng(seed, "vrf-setup")
        self._keypairs = [VrfKeyPair.generate(TEST_GROUP, setup_rng)
                          for _ in range(n)]
        #: The PKI: public keys indexed by node id, available to everyone.
        self.public_keys: list[VrfPublicKey] = [kp.public for kp in self._keypairs]
        self._prover_rng = derive_rng(seed, "vrf-prover")
        self._capabilities = [MiningCapability(self, node) for node in range(n)]
        self._memo: Dict[Any, VrfOutput] = {}
        # Verification is pure (same ticket -> same verdict); memoize so
        # certificates re-checked by every recipient cost one proof check.
        self._verified: Dict[Any, bool] = {}

    def capability_for(self, node_id: NodeId) -> MiningCapability:
        return self._capabilities[node_id]

    def evaluate(self, node_id: NodeId, topic: Topic) -> VrfOutput:
        """Memoized VRF evaluation (a VRF is a function of the topic)."""
        key = type_tagged((node_id, topic))
        if key not in self._memo:
            self._memo[key] = self._keypairs[node_id].evaluate(
                topic, self._prover_rng)
        return self._memo[key]

    def _mine(self, capability: MiningCapability,
              topic: Topic) -> Optional[VrfTicket]:
        self.check_capability(capability, self._capabilities[capability.node_id])
        node_id = capability.node_id
        output = self.evaluate(node_id, topic)
        if output.beta < self.schedule.threshold(topic):
            return VrfTicket(node_id=node_id, topic=topic, output=output)
        return None

    def verify(self, ticket: Ticket) -> bool:
        if not isinstance(ticket, VrfTicket):
            return False
        key = type_tagged(ticket)
        if key in self._verified:
            return self._verified[key]
        verdict = self._verify_uncached(ticket)
        self._verified[key] = verdict
        return verdict

    def _verify_uncached(self, ticket: VrfTicket) -> bool:
        if not 0 <= ticket.node_id < self.n:
            return False
        try:
            threshold = self.schedule.threshold(ticket.topic)
        except Exception:
            return False
        if ticket.output.beta >= threshold:
            return False
        return verify_vrf(self.group, self.public_keys[ticket.node_id],
                          ticket.topic, ticket.output)

    def ticket_bits(self) -> int:
        # gamma (one group element) + beta (256 bits) + proof (3 scalars).
        element = self.group.element_bits()
        scalar = 8 * ((self.group.q.bit_length() + 7) // 8)
        return element + 256 + 3 * scalar

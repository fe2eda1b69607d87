"""Crash-style adversary: corrupt a fixed set and silence it forever.

The mildest Byzantine behaviour — useful as a liveness floor: Lemma 11's
"(ii)" clause is exactly about enough honest committee members surviving
when up to ``(1/2 - ε) n`` nodes contribute nothing.  Every static
corrupt set of the package is chosen and recorded here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.adversary import Adversary
from repro.types import NodeId


class CrashAdversary(Adversary):
    """Statically corrupts ``victims`` (default: the last ``f`` nodes) and
    never sends anything on their behalf."""

    name = "crash"

    def __init__(self, victims: Optional[Sequence[NodeId]] = None) -> None:
        super().__init__()
        #: The static corrupt set, in order; chosen at setup if not given.
        self.victims = list(victims) if victims is not None else None

    def choose_victims(self) -> List[NodeId]:
        """The corrupt set when none was given: the last ``f`` nodes."""
        api = self.api
        return list(range(api.n - api.corruption_budget, api.n))

    def on_setup(self) -> None:
        api = self.api
        victims = (self.victims if self.victims is not None
                   else self.choose_victims())
        self.victims = victims[:api.corruption_budget]
        for node_id in self.victims:
            api.corrupt(node_id)

"""Actual-faults knob: corrupt exactly ``k`` of the budgeted ``f`` nodes.

The adaptive-BA question is not "how bad is the worst case" but "how
much does each fault that actually *shows up* cost".  This adversary
makes f* a dial: it statically corrupts exactly ``actual`` nodes
(``0 <= actual <= f``) and silences them — crash-style, the mildest
behaviour, so the measured overhead is purely the protocol's
fault-triggered escalation and not an artifact of Byzantine traffic.

Victims are the *first* ``actual`` nodes: for the adaptive family those
are the collectors of epochs ``1..k`` (and for the leader family the
leaders of views ``1..k``), so each corruption silences exactly one
upcoming coordinator and the escalation count tracks f* — the
worst-case placement for an O((f* + 1) · n) protocol, which is the
honest way to measure it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adversaries.crash import CrashAdversary
from repro.errors import ConfigurationError
from repro.types import NodeId


class ActualFaultsAdversary(CrashAdversary):
    """Statically corrupts the first ``actual`` nodes (default: the whole
    budget ``f``) and never sends anything on their behalf."""

    name = "actual-faults"

    def __init__(self, actual: Optional[int] = None) -> None:
        super().__init__()
        if actual is not None and actual < 0:
            raise ConfigurationError(
                f"actual fault count must be non-negative, got {actual}")
        self.actual = actual

    def choose_victims(self) -> List[NodeId]:
        budget = self.api.corruption_budget
        actual = self.actual if self.actual is not None else budget
        if actual > budget:
            raise ConfigurationError(
                f"actual fault count {actual} exceeds the corruption "
                f"budget f={budget}")
        return list(range(actual))

"""The Section 2 (Dolev–Reischuk) attack on every deterministic BA entry.

Civit–Gilbert–Guerraoui carry the Dolev–Reischuk argument to every
non-trivial agreement problem, so the battery's subject is each
deterministic registry BA run as ``broadcast-from-ba``, not only the
broadcast protocols.  A correct deterministic protocol must send more
than ``(f/2)²`` messages into V: the attack is then infeasible, and the
messages into V are pinned per cell.  ``adaptive-ba`` sends fewer, so
against it the attack is feasible from n = 25 on.
"""

import pytest

from repro.errors import SimulationError
from repro.harness.scenarios import PROTOCOLS
from repro.lowerbounds import dolev_reischuk, run_dolev_reischuk_attack
from repro.protocols import build_broadcast_from_ba

SIZES = (13, 25, 31, 49)

#: Messages into V, per entry, for (n, sender input) in SIZES x (0, 1).
MESSAGES_INTO_V = {
    "quadratic": (68, 112, 256, 424, 395, 655, 992, 1648),
    "quadratic-early-stop": (46, 112, 172, 424, 265, 655, 664, 1648),
    "leader-ba": (90, 90, 340, 340, 525, 525, 1320, 1320),
    "leader-chain": (268, 268, 1020, 1020, 1575, 1575, 3960, 3960),
    "adaptive-ba": (6, 6, 12, 12, 15, 15, 24, 24),
    "phase-king": (474, 474, 1748, 1748, 2680, 2680, 6664, 6664),
    "phase-king-early-stop": (48, 70, 176, 260, 270, 400, 672, 1000),
}

_STRANDED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: adaptive-ba's fast path sends too few messages into "
    "V; Run 2's p hears nothing and outputs 0 while every other honest "
    "node outputs 1"))


def _cells():
    sizes_and_inputs = [(n, bit) for n in SIZES for bit in (0, 1)]
    for name, pins in MESSAGES_INTO_V.items():
        for (n, sender_input), into_v in zip(sizes_and_inputs, pins):
            marks = (_STRANDED,) if (
                name == "adaptive-ba" and n > 13 and sender_input == 1) else ()
            yield pytest.param(name, n, sender_input, into_v, marks=marks,
                               id=f"{name}-n{n}-input{sender_input}")


@pytest.mark.parametrize("name, n, sender_input, into_v", _cells())
def test_attack_on_registry_ba(name, n, sender_input, into_v):
    report = run_dolev_reischuk_attack(
        build_broadcast_from_ba, n=n, f=(n - 1) // 3,
        sender_input=sender_input, seed=0,
        ba_builder=PROTOCOLS[name].builder)
    assert report.messages_into_v == into_v
    assert report.attack_feasible == (name == "adaptive-ba" and n > 13)
    assert not report.consistency_violated


def test_run2_that_breaks_view_identity_is_a_harness_error(monkeypatch):
    """An A' whose S(p) withholds from everyone, not just p, changes what
    the nodes outside S(p) ∪ V output; under lock-step that is refused,
    not reported as a row."""
    def withhold_from_all(self, node_id, payload):
        if node_id in self.received_by:
            return self.received_by.keys()
        return set(range(self.api.n))

    monkeypatch.setattr(dolev_reischuk._IgnoringSetAdversary,
                        "_send_filter", withhold_from_all)
    with pytest.raises(SimulationError, match="not view-identical"):
        run_dolev_reischuk_attack(
            build_broadcast_from_ba, n=25, f=8, sender_input=1, seed=0,
            ba_builder=PROTOCOLS["adaptive-ba"].builder)

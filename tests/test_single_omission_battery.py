"""Single omission on every deterministic registry entry (ROADMAP item 2 (a)).

The cheapest adversary class: one corrupt node ``c`` runs the honest
protocol and withholds every send to one node ``v``.  The battery covers
n ∈ {4, 5, 7} with f = ⌊(n - 1)/3⌋, every (c, v) pair, and inputs all-1,
all-0 and alternating — 222 runs per entry, 1 554 in all, about 3.5 s.
Every forever-honest node must decide, consistently and validly.

One test is one (entry, n, inputs, c) group and runs every victim.
``adaptive-ba`` strands v whenever c is the collector of the epoch that
decides — node 0 under unanimous inputs, node 1 under alternating ones —
which is 39 runs in nine groups, each a strict xfail until item 3 lands.
"""

import pytest

from repro.adversaries.sandbox import SandboxAdversary
from repro.harness.scenarios import PROTOCOLS
from repro.sim.engine import run_instance

ENTRIES = ("quadratic", "quadratic-early-stop", "leader-ba", "leader-chain",
           "adaptive-ba", "phase-king", "phase-king-early-stop")
SIZES = (4, 5, 7)
INPUTS = {
    "ones": lambda n: [1] * n,
    "zeros": lambda n: [0] * n,
    "alternating": lambda n: [node % 2 for node in range(n)],
}

#: The withholder that strands every victim under adaptive-ba, per inputs.
_DECIDING_COLLECTOR = {"ones": 0, "zeros": 0, "alternating": 1}

_STRANDED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: adaptive-ba's deciding collector withholds its "
    "decide from v, and the nodes that adopt it halt without relaying it"))


class WithholdingAdversary(SandboxAdversary):
    """Corrupts ``withholder``, which runs honestly but sends nothing to
    ``victim``."""

    name = "single-omission"

    def __init__(self, withholder, victim):
        super().__init__()
        self.withholder, self.victim = withholder, victim

    def on_setup(self):
        self.sandbox.adopt(self.api.corrupt(self.withholder))

    def observe_deliveries(self, round_index, inboxes):
        self.sandbox.step(inboxes,
                          send_filter=lambda node, payload: {self.victim})


def _groups():
    for name in ENTRIES:
        for n in SIZES:
            for inputs in INPUTS:
                for withholder in range(n):
                    marks = (_STRANDED,) if (
                        name == "adaptive-ba"
                        and withholder == _DECIDING_COLLECTOR[inputs]) else ()
                    yield pytest.param(
                        name, n, inputs, withholder, marks=marks,
                        id=f"{name}-n{n}-{inputs}-c{withholder}")


@pytest.mark.parametrize("name, n, inputs, withholder", _groups())
def test_one_withholding_node(name, n, inputs, withholder):
    f = (n - 1) // 3
    failed = []
    for victim in range(n):
        if victim == withholder:
            continue
        instance = PROTOCOLS[name].builder(n, f, INPUTS[inputs](n), seed=0)
        result = run_instance(instance, f,
                              WithholdingAdversary(withholder, victim),
                              seed=0)
        if not (result.all_decided() and result.consistent()
                and result.agreement_valid()):
            failed.append(victim)
    assert not failed, (
        f"node {withholder} withholding from v in {failed} left an honest "
        f"node undecided, inconsistent or invalid")

"""Single omission on the registry entries (ROADMAP item 2 (a)).

The cheapest adversary class: one corrupt node ``c`` runs the honest
protocol and withholds every send to one node ``v``.  Every
forever-honest node must decide, consistently and validly.

- The deterministic entries run at n ∈ {4, 5, 7} with f = ⌊(n - 1)/3⌋,
  every (c, v) pair, and inputs all-1, all-0 and alternating — 222 runs
  per agreement entry; the broadcast entries have one input, the
  sender's (node 0), so they skip the alternating inputs (148 runs).
- The committee-sampling entries run where ``registry_config`` builds
  them: n = 32, f = 8, λ = 12, alternating inputs, seed 0, each of c =
  0–7 withholding from four victims — 32 runs per entry.  (Unanimous
  inputs are left out: at λ = 12 a benign run already misses validity
  in some seeds, the committees' Chernoff tail, so they would test the
  parameters rather than the omission.)

One test is one (entry, n, inputs, c) group and runs every victim.
``adaptive-ba`` strands v whenever c is the collector of the epoch that
decides — node 0 under unanimous inputs, node 1 under alternating ones —
which is 39 runs in nine groups, each a strict xfail until item 3 lands.
"""

import pytest

from repro.adversaries.sandbox import SandboxAdversary
from repro.harness.scenarios import PROTOCOLS
from repro.sim.engine import run_instance
from repro.types import BROADCAST_SENDER, SecurityParameters

ENTRIES = ("quadratic", "quadratic-early-stop", "leader-ba", "leader-chain",
           "adaptive-ba", "phase-king", "phase-king-early-stop",
           "static-committee", "dolev-strong", "naive-broadcast")
SIZES = (4, 5, 7)
INPUTS = {
    "ones": lambda n: [1] * n,
    "zeros": lambda n: [0] * n,
    "alternating": lambda n: [node % 2 for node in range(n)],
}

#: The committee-sampling entries, their λ, and the four victims of each
#: withholder 0–7 (none of them ever corrupt).
SEEDED = ("subquadratic", "phase-king-subquadratic", "round-eligibility")
SEEDED_PARAMS = SecurityParameters(lam=12)
SEEDED_VICTIMS = (8, 16, 24, 31)

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
        broadcast = PROTOCOLS[name].takes("sender_input")
        for n in SIZES:
            for inputs in INPUTS:
                if broadcast and inputs == "alternating":
                    continue
                for withholder in range(n):
                    marks = (_STRANDED,) if (
                        name == "adaptive-ba"
                        and withholder == _DECIDING_COLLECTOR[inputs]) else ()
                    yield pytest.param(
                        name, n, inputs, withholder, marks=marks,
                        id=f"{name}-n{n}-{inputs}-c{withholder}")


def _failed_victims(name, n, f, bits, withholder, victims, **kwargs):
    """The victims whose omission left an honest node undecided,
    inconsistent or invalid."""
    entry = PROTOCOLS[name]
    if entry.takes("sender_input"):
        kwargs["sender_input"] = bits[BROADCAST_SENDER]
    else:
        kwargs["inputs"] = bits
    failed = []
    for victim in victims:
        instance = entry.builder(n=n, f=f, seed=0, **kwargs)
        result = run_instance(instance, f,
                              WithholdingAdversary(withholder, victim),
                              seed=0)
        if not (result.all_decided() and result.consistent()
                and result.agreement_valid()):
            failed.append(victim)
    return failed


@pytest.mark.parametrize("name, n, inputs, withholder", _groups())
def test_one_withholding_node(name, n, inputs, withholder):
    victims = [victim for victim in range(n) if victim != withholder]
    failed = _failed_victims(name, n, (n - 1) // 3, INPUTS[inputs](n),
                             withholder, victims)
    assert not failed, (
        f"node {withholder} withholding from v in {failed} left an honest "
        f"node undecided, inconsistent or invalid")


@pytest.mark.parametrize("name, withholder", [
    pytest.param(name, withholder, id=f"{name}-n32-c{withholder}")
    for name in SEEDED for withholder in range(8)])
def test_one_withholding_node_seeded(name, withholder):
    n = 32
    failed = _failed_victims(name, n, 8, INPUTS["alternating"](n),
                             withholder, SEEDED_VICTIMS, params=SEEDED_PARAMS)
    assert not failed, (
        f"node {withholder} withholding from v in {failed} left an honest "
        f"node undecided, inconsistent or invalid")

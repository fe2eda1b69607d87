"""Omission on the registry entries (ROADMAP items 2 (a) and 2 (b)).

The cheapest adversary class: corrupt nodes run the honest protocol and
withhold every send to a set of victims.  Every forever-honest node must
decide, consistently and validly.

Single omission (item 2 (a)): one withholder ``c``, one victim ``v``.

- The deterministic entries run at n ∈ {4, 5, 7} with f = ⌊(n - 1)/3⌋,
  every (c, v) pair, and inputs all-1, all-0 and alternating — 222 runs
  per agreement entry; the broadcast entries have one input, the
  sender's (node 0), so they skip the alternating inputs (148 runs).
- The committee-sampling entries run where ``registry_config`` builds
  them: n = 32, f = 8, λ = 12, alternating inputs, seed 0, each of c =
  0–7 withholding from four victims — 32 runs per entry.  (Unanimous
  inputs are left out: at λ = 12 a benign run already misses validity
  in some seeds, the committees' Chernoff tail, so they would test the
  parameters rather than the omission.)  Tier-1 runs them at seed 0;
  ``--committee-seed S`` runs them at seed S.

One test is one (entry, n, inputs, c) group and runs every victim.
``adaptive-ba`` strands v whenever c is the collector of the epoch that
decides — node 0 under unanimous inputs, node 1 under alternating ones —
which is 39 runs in nine groups, each a strict xfail until item 3 lands.

k withholders (item 2 (b)): the seven deterministic agreement entries,
every withholder set, every victim set of one or two honest nodes and
the three inputs.  One test is one (entry, inputs, withholders) group
and runs all its victim sets.  ``adaptive-ba`` strands a victim whenever
the deciding collector is a withholder, or under alternating inputs
when nodes 0 and 2 both withhold; each such group is a strict xfail
until item 3 lands.

- Tier-1 (``test_two_withholding_nodes``): n = 7, k = 2, 945 runs per
  entry; ``adaptive-ba`` strands 275 runs in 19 groups.
- CI (``test_k_withholding_nodes``, selected by ``--withholding N:K``):
  n = 8, k = 2 (1 260 runs per entry; 447 stranded in 22 groups) and
  n = 10, k = 3 (10 080 runs per entry; 3 073 stranded in 115 groups).
  Without the option it collects no group.
"""

import itertools

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

#: The deterministic agreement entries the k-withholder battery runs.
PAIR_ENTRIES = ENTRIES[:7]

#: Withholders that strand adaptive-ba under alternating inputs though
#: they hold no node of ``_DECIDING_COLLECTOR``: nodes 0 and 2 cut node
#: 1, the epoch-2 collector, off from its quorum, so epoch 3 decides,
#: and its collector, node 2, withholds the decide from 1.
_CUTTING_PAIR = {0, 2}

_STRANDED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: adaptive-ba's deciding collector withholds its "
    "decide from v, and the nodes that adopt it halt without relaying it"))


class WithholdingAdversary(SandboxAdversary):
    """Corrupts every node of ``withholders``; each runs honestly but
    sends nothing to any node of ``victims``."""

    name = "omission"

    def __init__(self, withholders, victims):
        super().__init__()
        self.withholders = tuple(withholders)
        self.victims = tuple(sorted(victims))

    def on_setup(self):
        for withholder in self.withholders:
            self.sandbox.adopt(self.api.corrupt(withholder))

    def observe_deliveries(self, round_index, inboxes):
        self.sandbox.step(inboxes,
                          send_filter=lambda node, payload: self.victims)


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


def _withholding_groups(n, k):
    for name in PAIR_ENTRIES:
        for inputs in INPUTS:
            for withholders in itertools.combinations(range(n), k):
                stranded = name == "adaptive-ba" and (
                    _DECIDING_COLLECTOR[inputs] in withholders
                    or (inputs == "alternating"
                        and _CUTTING_PAIR <= set(withholders)))
                yield pytest.param(
                    name, n, inputs, withholders,
                    marks=(_STRANDED,) if stranded else (),
                    id=f"{name}-n{n}-{inputs}-c{''.join(map(str, withholders))}")


def pytest_generate_tests(metafunc):
    """``test_k_withholding_nodes`` runs the ``--withholding N:K`` scope."""
    if metafunc.definition.originalname == "test_k_withholding_nodes":
        scope = metafunc.config.getoption("--withholding")
        groups = [] if scope is None else list(
            _withholding_groups(*map(int, scope.split(":"))))
        metafunc.parametrize("name, n, inputs, withholders", groups)


def _failed_victims(name, n, f, bits, withholders, victim_sets, seed=0,
                    **kwargs):
    """The victim sets whose omission left an honest node undecided,
    inconsistent or invalid."""
    entry = PROTOCOLS[name]
    if entry.takes("sender_input"):
        kwargs["sender_input"] = bits[BROADCAST_SENDER]
    else:
        kwargs["inputs"] = bits
    failed = []
    for victims in victim_sets:
        instance = entry.builder(n=n, f=f, seed=seed, **kwargs)
        result = run_instance(instance, f,
                              WithholdingAdversary(withholders, victims),
                              seed=seed)
        if not (result.all_decided() and result.consistent()
                and result.agreement_valid()):
            failed.append(victims)
    return failed


@pytest.mark.parametrize("name, n, inputs, withholder", _groups())
def test_one_withholding_node(name, n, inputs, withholder):
    victims = [(victim,) for victim in range(n) if victim != withholder]
    failed = _failed_victims(name, n, (n - 1) // 3, INPUTS[inputs](n),
                             (withholder,), victims)
    assert not failed, (
        f"node {withholder} withholding from v in {failed} left an honest "
        f"node undecided, inconsistent or invalid")


@pytest.mark.parametrize("name, withholder", [
    pytest.param(name, withholder, id=f"{name}-n32-c{withholder}")
    for name in SEEDED for withholder in range(8)])
def test_one_withholding_node_seeded(name, withholder, committee_seed):
    n = 32
    failed = _failed_victims(name, n, 8, INPUTS["alternating"](n),
                             (withholder,),
                             [(victim,) for victim in SEEDED_VICTIMS],
                             seed=committee_seed, params=SEEDED_PARAMS)
    assert not failed, (
        f"node {withholder} withholding from v in {failed} at seed "
        f"{committee_seed} left an honest node undecided, inconsistent or "
        f"invalid")


def _assert_withholding(name, n, inputs, withholders):
    honest = [node for node in range(n) if node not in withholders]
    victim_sets = ([(victim,) for victim in honest]
                   + list(itertools.combinations(honest, 2)))
    failed = _failed_victims(name, n, (n - 1) // 3, INPUTS[inputs](n),
                             withholders, victim_sets)
    assert not failed, (
        f"nodes {withholders} withholding from the victim sets {failed} "
        f"left an honest node undecided, inconsistent or invalid")


@pytest.mark.parametrize("name, n, inputs, withholders",
                         _withholding_groups(7, 2))
def test_two_withholding_nodes(name, n, inputs, withholders):
    _assert_withholding(name, n, inputs, withholders)


def test_k_withholding_nodes(name, n, inputs, withholders):
    _assert_withholding(name, n, inputs, withholders)

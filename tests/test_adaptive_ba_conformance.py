"""Adaptive-family conformance: ``adaptive-ba`` decides on the event
engine and on the reference executor alike
(``tests/test_reference_battery.py`` holds the two byte-identical for
every network preset and admitted adversary).
"""

from repro.protocols import build_adaptive_ba
from repro.sim.conditions import NETWORKS
from tests import reference
from tests.reference import both_engines


@both_engines
def test_decides_on_either_engine(engine):
    conditions = NETWORKS["wan"]
    instance = build_adaptive_ba(10, 3, [i % 2 for i in range(10)], seed=7,
                                 conditions=conditions)
    result = reference.run(instance, 3, seed=7, conditions=conditions,
                           engine=engine)
    assert result.all_decided() and result.consistent()

"""Every builder's admission, pinned character for character.

Each registry entry that takes per-node ``inputs`` refuses a short
input list, refuses the first ``f`` past its family's resilience bound
with the message below, and admits the last ``f`` inside it.  The round-
structured builders say this through one ``verification.admit``; a
change to its wording, its bound or its order of checks fails here by
entry name.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import PROTOCOLS
from repro.types import SecurityParameters

N = 9

#: key -> (the first ``f`` past the bound, its refusal); ``None`` for an
#: entry that bounds no ``f``.
BOUNDS = {
    "quadratic": (5, "quadratic BA requires honest majority: n=9 > 2f=10"),
    "quadratic-early-stop": (
        5, "quadratic BA requires honest majority: n=9 > 2f=10"),
    "subquadratic": (
        5, "subquadratic BA requires honest majority: n=9 > 2f=10"),
    "phase-king": (3, "phase-king requires f < n/3: n=9, f=3"),
    "phase-king-early-stop": (3, "phase-king requires f < n/3: n=9, f=3"),
    "phase-king-subquadratic": (3, "phase-king requires f < n/3: n=9, f=3"),
    "round-eligibility": (3, "phase-king requires f < n/3: n=9, f=3"),
    "leader-ba": (3, "leader BA requires f < n/3: n=9, f=3"),
    "leader-chain": (3, "leader BA requires f < n/3: n=9, f=3"),
    "adaptive-ba": (3, "adaptive BA requires f < n/3: n=9, f=3"),
    "static-committee": None,
}

KEYS = tuple(sorted(BOUNDS))


def build(key, f, inputs):
    entry = PROTOCOLS[key]
    # λ = 12 keeps the committee entries' 2λ/3 ACK threshold below n.
    extra = ({"params": SecurityParameters(lam=12)}
             if entry.takes("params") else {})
    return entry.builder(n=N, f=f, inputs=inputs, seed=0, **extra)


def test_every_inputs_entry_is_listed():
    assert set(KEYS) == {key for key, entry in PROTOCOLS.items()
                         if entry.takes("inputs")}


@pytest.mark.parametrize("key", KEYS)
def test_a_short_input_list_is_refused_first(key):
    past = BOUNDS[key][0] if BOUNDS[key] else N - 1
    for f in (past - 1, past):
        with pytest.raises(ConfigurationError) as refusal:
            build(key, f, [0] * (N - 1))
        assert str(refusal.value) == "need exactly one input bit per node"


@pytest.mark.parametrize("key", KEYS)
def test_the_bound_refuses_past_and_admits_inside(key):
    if BOUNDS[key] is None:
        assert build(key, N - 1, [0] * N).nodes  # no bound on f
        return
    past, message = BOUNDS[key]
    with pytest.raises(ConfigurationError) as refusal:
        build(key, past, [0] * N)
    assert str(refusal.value) == message
    assert len(build(key, past - 1, [0] * N).nodes) == N

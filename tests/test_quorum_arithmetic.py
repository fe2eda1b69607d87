"""Quorum arithmetic at every (n, f) a deterministic-quorum builder admits.

Each registry protocol whose quorums are fixed numbers (not the
committee families' sampled ones, whose guarantee is probabilistic) is
built at every ``n <= 64`` and ``0 <= f < n`` its builder accepts, and the
``threshold`` and ``fallback_quorum`` in ``instance.services["config"]``
must satisfy what the protocol's safety argument needs:

- ``f < threshold <= n - f``: the faulty nodes alone never make a quorum,
  and the honest ones alone always can;
- ``2 * threshold - n > f`` for the ``n - f`` and ``ceil(2n/3)``
  families: two quorums share an honest node, so no two conflicting
  certificates form;
- ``fallback_quorum > f``: a fallback attestation set holds an honest
  node.

A threshold written as ``2 * f + 1`` passes at ``n = 3f + 1`` and fails
the intersection bound at ``n = 3f + 2``; this sweep catches it.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import PROTOCOLS

#: Registry name -> (quorum family, the (n, f) its builder admits).
DETERMINISTIC = {
    "quadratic": ("f + 1", lambda n, f: n > 2 * f),
    "quadratic-early-stop": ("f + 1", lambda n, f: n > 2 * f),
    "leader-ba": ("n - f", lambda n, f: n > 3 * f),
    "leader-chain": ("n - f", lambda n, f: n > 3 * f),
    "adaptive-ba": ("n - f", lambda n, f: n > 3 * f),
    "phase-king": ("ceil(2n/3)", lambda n, f: n > 3 * f),
    "phase-king-early-stop": ("ceil(2n/3)", lambda n, f: n > 3 * f),
}

MAX_N = 64


@pytest.mark.parametrize("name", sorted(DETERMINISTIC))
def test_quorums_hold_at_every_admitted_n_and_f(name):
    family, admits = DETERMINISTIC[name]
    builder = PROTOCOLS[name].builder
    admitted = []
    for n in range(1, MAX_N + 1):
        for f in range(n):
            try:
                instance = builder(n, f, [0] * n)
            except ConfigurationError:
                continue
            admitted.append((n, f))
            config = instance.services["config"]
            threshold = config.threshold
            assert f < threshold <= n - f, (n, f, threshold)
            if family != "f + 1":
                assert 2 * threshold - n > f, (n, f, threshold)
            quorum = getattr(config, "fallback_quorum", None)
            assert quorum is None or quorum > f, (n, f, quorum)
    assert admitted == [(n, f) for n in range(1, MAX_N + 1)
                        for f in range(n) if admits(n, f)]

"""Named, ready-to-run sweeps for ``python -m repro sweep``.

Each entry is a :class:`~repro.harness.scenarios.SweepSpec` the paper
motivates directly:

- ``comm-vs-n`` — the headline scaling claim (Theorem 2): honest
  communication versus ``n`` for the subquadratic protocol against the
  quadratic BA and the static-committee baseline.  The subquadratic
  rows stay flat in multicasts as ``n`` quadruples; the quadratic rows
  grow linearly in multicasts (quadratically in classical messages).
- ``adversary-grid`` — adaptive-versus-static robustness (Section 1's
  motivating distinction): the subquadratic BA under no faults, crashes,
  static equivocation, and the adaptive speaker-corrupting adversary,
  across two system sizes.  Cells share ``(n, λ, seed)``, so the shared
  eligibility-lottery cache serves most coins from memory after the
  first adversary's run.
- ``resilience-frontier`` — corruption fractions approaching the
  ``(1/2 - ε) n`` bound (Theorem 17) at two committee sizes λ, showing
  the concrete-parameter failure envelope the Chernoff lemmas predict.
- ``latency-stress`` — the partial-synchrony axis (``docs/NETWORK.md``):
  subquadratic and quadratic BA swept across network conditions from
  lock-step to WAN jitter, plus the Δ-deadline delay scheduler, showing
  how effective round latency and messages-in-flight grow while the
  security rates stay flat (the synchronizer argument, executable).
- ``partition-heal`` — scheduled split-brain windows that heal, with and
  without a lossy asynchronous prelude: deferred cross-partition traffic
  floods in at the heal and the protocols still decide.  Also runs the
  Theorem-4 and Dolev–Reischuk attack harnesses under the same split —
  partition *studies* of the lower-bound attacks.
- ``early-stop-vs-delta`` — the GST-aware early-stopping variants
  (``docs/PROTOCOLS.md``) under a fixed GST and growing Δ: larger Δ puts
  GST at an earlier *protocol* round, so the trusted unanimity detector
  fires sooner and ``rounds_saved`` grows monotonically with the
  Δ-headroom.
- ``leader-vs-delta`` — the view-based leader family (``leader-ba``,
  ``docs/PROTOCOLS.md``) under a fixed GST and growing Δ, under the
  leader-killer and view-split adversaries, and as the multi-height
  chain workload: fewer views burn before GST as Δ grows, and the
  adversaries cost views, never agreement.
- ``leader-vs-quadratic`` — words per decision versus ``n``: the leader
  family's happy path against quadratic BA, with the Dolev–Reischuk
  counting attack run at the same sizes as the Ω(f²) floor line.
- ``words-vs-actual-f`` — the adaptive family (``adaptive-ba``,
  ``docs/PROTOCOLS.md``) dialing the *actual* fault count f* through
  the ``actual-faults`` adversary at fixed ``(n, f)``: total words grow
  O((f* + 1) · n) — linear at f* = 0, one amplification epoch per
  observed fault — while quadratic BA pays Θ(n²) at every f* and the
  Dolev–Reischuk Ω(f²) census marks the worst-case floor.
- ``topology-grid`` — one protocol point swept across the per-link
  latency topologies (uniform / clustered / star / ring): security rates
  stay flat while effective delivery latency tracks the topology's
  slow-link structure.
- ``smoke`` — a seconds-scale miniature of ``adversary-grid`` used by CI
  and the test suite.

Run one with::

    PYTHONPATH=src python -m repro sweep comm-vs-n --workers 4

Add ``--store DIR`` (or ``--resume``) to record cells into a persistent
experiment store — re-runs replay recorded cells byte-identically and
only compute new ones, and ``python -m repro report`` renders every
recorded sweep as one results book (``docs/RESULTS.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.harness.scenarios import (
    ScenarioSpec,
    SweepSpec,
    f_half_minus_one,
    f_third_minus_one,
)
from repro.sim.conditions import NETWORKS, TOPOLOGIES, NetworkConditions


COMM_VS_N = SweepSpec(
    name="comm-vs-n",
    description="Honest communication vs n: subquadratic stays flat, "
                "quadratic grows, static-committee is cheap but "
                "adaptively insecure (Theorem 2 / Section 1).",
    scenarios=(
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={"n": (64, 128, 256, 512)},
            fixed={"f_fraction": 0.3, "lam": 24, "epsilon": 0.15},
            inputs="ones",
            adversary="crash",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            grid={"n": (16, 32, 64, 96)},
            fixed={"f": f_half_minus_one},
            inputs="ones",
            adversary="crash",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="static-committee",
            protocol="static-committee",
            grid={"n": (64, 128, 256, 512)},
            fixed={"f_fraction": 0.25},
            inputs="ones",
            seeds=range(3),
        ),
    ),
)

ADVERSARY_GRID = SweepSpec(
    name="adversary-grid",
    description="Subquadratic BA under static vs adaptive adversaries "
                "(crash, equivocation, speaker-corruption) across sizes; "
                "cells share one eligibility lottery per (n, λ, seed).",
    scenarios=(
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={
                "adversary": ("none", "crash", "equivocate", "speaker"),
                "n": (100, 200),
            },
            fixed={"f_fraction": 0.25, "lam": 30, "epsilon": 0.1},
            inputs="mixed",
            seeds=range(3),
        ),
    ),
)

RESILIENCE_FRONTIER = SweepSpec(
    name="resilience-frontier",
    description="Security rates as f/n approaches 1/2 under static "
                "equivocation, at two committee sizes (Theorem 17).",
    scenarios=(
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={
                "lam": (24, 40),
                "f_fraction": (0.1, 0.25, 0.4, 0.45),
            },
            fixed={"n": 160, "epsilon": 0.05},
            inputs="ones",
            adversary="equivocate",
            seeds=range(4),
        ),
    ),
)

LATENCY_STRESS = SweepSpec(
    name="latency-stress",
    description="Protocols under partial synchrony: perfect vs LAN vs WAN "
                "latency, plus the Δ-deadline delay scheduler "
                "(docs/NETWORK.md).",
    scenarios=(
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={"network": ("perfect", "lan", "wan")},
            fixed={"n": 48, "f_fraction": 0.25, "lam": 16, "epsilon": 0.1},
            inputs="mixed",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            grid={"network": ("perfect", "lan", "wan")},
            fixed={"n": 24, "f": f_half_minus_one},
            inputs="ones",
            adversary="crash",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="delay-scheduler",
            protocol="quadratic",
            grid={"network": ("lan", "wan")},
            fixed={"n": 24, "f": 5},
            inputs="mixed",
            adversary="delay",
            seeds=range(3),
        ),
    ),
)

PARTITION_HEAL = SweepSpec(
    name="partition-heal",
    description="Scheduled split-brain that heals (and a lossy prelude): "
                "deferred traffic floods in at the heal, decisions still "
                "land; plus partition studies of the Theorem-4 and "
                "Dolev-Reischuk attacks (docs/NETWORK.md).",
    scenarios=(
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            grid={"network": ("perfect", "split-heal", "lossy")},
            fixed={"n": 24, "f": 5},
            inputs="mixed",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="phase-king",
            protocol="phase-king",
            grid={"network": ("perfect", "split-heal")},
            fixed={"n": 21, "f": 4},
            inputs="mixed",
            seeds=range(3),
        ),
        # Partition studies on the lower-bound attack harnesses: does
        # strongly adaptive isolation still starve its victim when the
        # network itself splits and heals mid-attack?
        # total_rounds=8 protocol rounds × Δ=2 comfortably clears the
        # split-heal partition's heal at network round 10, so the study
        # observes the post-heal flood rather than an unhealed cutoff.
        ScenarioSpec(
            name="theorem4-under-partition",
            protocol="naive-broadcast",
            executor="theorem4",
            grid={"network": ("perfect", "split-heal")},
            fixed={"n": 24, "f": 8, "sender_input": 0, "total_rounds": 8},
            seeds=range(2),
        ),
        ScenarioSpec(
            name="dolev-reischuk-under-partition",
            protocol="naive-broadcast",
            executor="dolev-reischuk",
            grid={"network": ("perfect", "split-heal")},
            fixed={"n": 24, "f": 8, "sender_input": 0, "total_rounds": 8},
            seeds=(0,),
        ),
    ),
)

#: Fixed GST at network round 12 with a lossy prelude; the Δ axis grows
#: the dilation, so stabilization lands at protocol round ``ceil(12/Δ)``
#: — the early-stop detectors' trusted round — earlier and earlier.
#: Phase-king keeps a mild 10% prelude (its 2n/3 tallies are fragile to
#: heavy loss); quadratic BA needs 30% to keep its f+1 quorums from
#: deciding before GST at all.
def _early_stop_conditions(drop_rate):
    return tuple(
        NetworkConditions(delta=delta, gst=12,
                          latency=("uniform", 1, delta),
                          drop_rate=drop_rate)
        for delta in (2, 3, 4, 6))

EARLY_STOP_VS_DELTA = SweepSpec(
    name="early-stop-vs-delta",
    description="GST-aware early stopping vs Δ-headroom: fixed GST, "
                "growing Δ — the trusted unanimity round arrives at an "
                "earlier protocol round, so rounds_saved grows "
                "monotonically (docs/PROTOCOLS.md).",
    scenarios=(
        ScenarioSpec(
            name="phase-king-early-stop",
            protocol="phase-king-early-stop",
            grid={"network": _early_stop_conditions(0.1)},
            fixed={"n": 21, "f": 4},
            inputs="ones",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="quadratic-early-stop",
            protocol="quadratic-early-stop",
            grid={"network": _early_stop_conditions(0.3)},
            fixed={"n": 15, "f": 7},
            inputs="mixed",
            seeds=range(3),
        ),
    ),
)

TOPOLOGY_GRID = SweepSpec(
    name="topology-grid",
    description="Per-link latency topologies (uniform/clustered/star/"
                "ring) under WAN conditions: security rates stay flat "
                "while delivery latency tracks the slow links "
                "(docs/NETWORK.md).",
    scenarios=(
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            grid={"topology": ("uniform", "clustered", "star", "ring")},
            fixed={"n": 24, "f": 5, "network": "wan"},
            inputs="mixed",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={"topology": ("uniform", "clustered")},
            fixed={"n": 48, "f_fraction": 0.25, "lam": 16, "epsilon": 0.1,
                   "network": "wan"},
            inputs="mixed",
            seeds=range(3),
        ),
    ),
)

LEADER_VS_DELTA = SweepSpec(
    name="leader-vs-delta",
    description="The view-based leader family under partial synchrony: "
                "fixed GST, growing Δ — GST lands at an earlier protocol "
                "round, so fewer views burn before an honest leader "
                "decides; plus the leader-killer and view-split "
                "adversaries and the multi-height chain workload "
                "(docs/PROTOCOLS.md).",
    scenarios=(
        ScenarioSpec(
            name="leader-ba",
            protocol="leader-ba",
            grid={"network": _early_stop_conditions(0.1)},
            fixed={"n": 13, "f": 4},
            inputs="mixed",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="leader-ba-adversarial",
            protocol="leader-ba",
            grid={"adversary": ("leader-killer", "view-split")},
            fixed={"n": 13, "f": 4,
                   "network": _early_stop_conditions(0.1)[1]},
            inputs="mixed",
            seeds=range(3),
        ),
        # The heavy-traffic axis: three chained heights through one view
        # schedule, locks carried across height boundaries.
        ScenarioSpec(
            name="leader-chain",
            protocol="leader-chain",
            grid={"network": (_early_stop_conditions(0.1)[0],
                              _early_stop_conditions(0.1)[2])},
            fixed={"n": 13, "f": 4, "heights": 3},
            inputs="mixed",
            seeds=range(2),
        ),
    ),
)

LEADER_VS_QUADRATIC = SweepSpec(
    name="leader-vs-quadratic",
    description="Words per decision vs n: the leader family's linear "
                "happy path against quadratic BA's all-to-all rounds, "
                "with the Dolev-Reischuk Ω(f²) message bound as the "
                "floor both must respect (Momose-Ren frames the "
                "comparison; docs/PROTOCOLS.md).",
    scenarios=(
        ScenarioSpec(
            name="leader-ba",
            protocol="leader-ba",
            grid={"n": (16, 28, 40, 52)},
            fixed={"f": f_third_minus_one},
            inputs="mixed",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            grid={"n": (16, 28, 40, 52)},
            fixed={"f": f_half_minus_one},
            inputs="mixed",
            seeds=range(3),
        ),
        # The lower-bound line: the Dolev-Reischuk counting attack at
        # the same sizes, whose reported message census is the Ω(f²)
        # floor the words-vs-n comparison is plotted against.
        ScenarioSpec(
            name="dolev-reischuk-bound",
            protocol="naive-broadcast",
            executor="dolev-reischuk",
            grid={"n": (16, 28, 40, 52)},
            fixed={"f": f_third_minus_one, "sender_input": 0,
                   "total_rounds": 8},
            seeds=(0,),
        ),
    ),
)

WORDS_VS_ACTUAL_F = SweepSpec(
    name="words-vs-actual-f",
    description="Adaptive BA's total words vs the actual fault count "
                "f*: the silent-when-honest fast path costs <= 4n words "
                "at f* = 0 and each observed fault buys at most one "
                "linear-cost amplification epoch (O((f*+1)n) words), "
                "against quadratic BA and the leader family at the same "
                "(n, f) and the Dolev-Reischuk Ω(f²) floor "
                "(Cohen-Keidar-Spiegelman; docs/PROTOCOLS.md).",
    scenarios=(
        ScenarioSpec(
            name="adaptive-ba",
            protocol="adaptive-ba",
            adversary="actual-faults",
            # f* as a grid axis: corrupt exactly k of the budgeted f=8
            # nodes (the upcoming collectors — worst-case placement).
            grid={"adversary_actual": (0, 2, 4, 6, 8)},
            fixed={"n": 25, "f": 8},
            inputs="ones",
            seeds=range(3),
        ),
        # The worst-case baselines at the same sizes and fault dials:
        # quadratic BA's words do not adapt to f*.
        ScenarioSpec(
            name="quadratic",
            protocol="quadratic",
            adversary="actual-faults",
            grid={"adversary_actual": (0, 2, 4, 6, 8)},
            fixed={"n": 25, "f": 8},
            inputs="ones",
            seeds=range(3),
        ),
        ScenarioSpec(
            name="leader-ba",
            protocol="leader-ba",
            adversary="actual-faults",
            grid={"adversary_actual": (0, 2, 4, 6, 8)},
            fixed={"n": 25, "f": 8},
            inputs="ones",
            seeds=range(3),
        ),
        # The lower-bound line: the Dolev-Reischuk counting attack at
        # the same (n, f), whose reported message census is the Ω(f²)
        # floor the adaptive curve dips under at small f*.
        ScenarioSpec(
            name="dolev-reischuk-bound",
            protocol="naive-broadcast",
            executor="dolev-reischuk",
            grid={},
            fixed={"n": 25, "f": 8, "sender_input": 0,
                   "total_rounds": 8},
            seeds=(0,),
        ),
    ),
)

SMOKE = SweepSpec(
    name="smoke",
    description="Seconds-scale adversary grid for CI and tests.",
    scenarios=(
        ScenarioSpec(
            name="subquadratic",
            protocol="subquadratic",
            grid={"adversary": ("none", "crash")},
            fixed={"n": 32, "f_fraction": 0.25, "lam": 12},
            inputs="mixed",
            seeds=range(2),
        ),
    ),
)

#: In registration order, which is the results book's section order.
SWEEPS: Dict[str, SweepSpec] = {
    sweep.name: sweep
    for sweep in (COMM_VS_N, ADVERSARY_GRID, RESILIENCE_FRONTIER,
                  LATENCY_STRESS, PARTITION_HEAL, EARLY_STOP_VS_DELTA,
                  LEADER_VS_DELTA, LEADER_VS_QUADRATIC,
                  WORDS_VS_ACTUAL_F, TOPOLOGY_GRID, SMOKE)
}


def resolve_sweep(name: str, network: Optional[str] = None,
                  topology: Optional[str] = None) -> SweepSpec:
    """Look up a library sweep and force optional network/topology
    bindings onto every scenario.

    The shared override semantics of ``python -m repro sweep
    --network/--topology`` and the service's submit API: a forced
    binding lands in every scenario's ``fixed`` mapping, and any grid
    axis of the same name is dropped — fixed bindings lose to same-name
    axes, so keeping the axis would silently swallow the override.
    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    sweep or binding value, so callers surface one error type.
    """
    if name not in SWEEPS:
        raise ConfigurationError(
            f"unknown sweep {name!r} (have: {', '.join(sorted(SWEEPS))})")
    sweep = SWEEPS[name]
    forced: Dict[str, str] = {}
    if network is not None:
        if network not in NETWORKS:
            raise ConfigurationError(
                f"unknown network conditions {network!r} "
                f"(have {sorted(NETWORKS)})")
        forced["network"] = network
    if topology is not None:
        if topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {topology!r} "
                f"(have {sorted(TOPOLOGIES)})")
        forced["topology"] = topology
    if not forced:
        return sweep
    return dataclasses.replace(sweep, scenarios=tuple(
        dataclasses.replace(
            scenario,
            grid={axis: values for axis, values in scenario.grid.items()
                  if axis not in forced},
            fixed={**scenario.fixed, **forced})
        for scenario in sweep.scenarios))

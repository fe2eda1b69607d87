"""Shared instrumentation for one execution's work and wall clock.

The bench's per-layer spans (``bench/proxies.profiled_run``), the call
budgets of tests/test_perf_smoke.py and tests/test_scale_smoke.py, and
the pinned counts of tests/test_golden_counts.py must measure the *same*
quantity, or a change to how verification work is counted would let them
drift apart silently — so the harness lives here, once:
:func:`profile_phase_budget` counts ``authenticator.check`` calls (every
verification path — node handlers, proposer policies, the memoization
layer — funnels through it) while it attributes the wall clock.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.harness.runner import run_instance
from repro.protocols.base import ProtocolInstance
from repro.sim.conditions import NetworkConditions
from repro.sim.result import ExecutionResult


@dataclass
class PhaseBudget:
    """Wall time of one execution attributed to the round loop's phases.

    The buckets decompose the wall clock:
    ``wall = deliver + scheduler + protocol + verify + sizing + other``.
    Each but *verify* is the time between two of the loop's phase stamps
    (``repro.sim.engine``), less the verify time inside it.

    - **deliver** — the lock-step clock's whole turn: the staging-window
      turnover (delivery is lazy: a node's inbox materializes when the
      protocol step first reads it, in *protocol*) and the loop's
      halting check.  Zero for conditioned executions.
    - **scheduler** — the conditioned clock's whole turn, jumps
      included: staging-window drain into the calendar queue,
      latency/drop coin draws, due-bucket delivery into the step
      buffers.  Zero for unconditioned executions.
    - **verify** — ``authenticator.check`` (the cryptographic predicate,
      wherever invoked: node handlers, sandboxed corrupt nodes, the
      memoization layer on a miss).
    - **sizing** — the loop's pass recording the round's honest
      envelopes in the metrics; sizing an adversarial injection lands
      in *other*.
    - **protocol** — the honest round step.
    - **other** — everything else: setup, the adversary's steps, result
      assembly.
    """

    result: ExecutionResult
    wall_seconds: float
    deliver_seconds: float
    scheduler_seconds: float
    protocol_seconds: float
    verify_seconds: float
    sizing_seconds: float
    other_seconds: float
    check_calls: int


def profile_phase_budget(instance: ProtocolInstance, f: int, seed=0,
                         conditions: Optional[NetworkConditions] = None,
                         ) -> PhaseBudget:
    """Run ``instance`` (under ``conditions``, if given) attributing wall
    time to the :class:`PhaseBudget` buckets.

    The run's observer books each phase stamp; the one wrap is the
    instance's ``authenticator.check``, removed on exit.  An entry with
    no authenticator (``dolev-strong``, ``naive-broadcast``) books
    verify as 0 and ``check_calls`` as 0.  The cyclic collector runs
    before the execution and is off during it, so no pause lands in a
    bucket; the caller's collector state is restored (the collector is
    process-wide: threads profiling at once share it).
    """
    seconds = {"network": 0.0, "step": 0.0, "sizing": 0.0, "other": 0.0}
    verify_seconds = unbooked = 0.0
    check_calls = 0
    authenticator = instance.authenticator

    def timed_check(node_id, topic, auth):
        nonlocal unbooked, check_calls
        start = perf_counter()
        out = check(node_id, topic, auth)
        unbooked += perf_counter() - start
        check_calls += 1
        return out

    def stamp(phase):
        nonlocal last, unbooked, verify_seconds
        now = perf_counter()
        seconds[phase] += now - last - unbooked
        verify_seconds += unbooked
        unbooked = 0.0
        last = now

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    if authenticator is not None:
        check = authenticator.check
        authenticator.check = timed_check
    try:
        start = last = perf_counter()
        result = run_instance(instance, f, seed=seed, conditions=conditions,
                              observer=stamp)
        stamp("other")
    finally:
        if authenticator is not None:
            del authenticator.check
        if collecting:
            gc.enable()

    conditioned = conditions is not None and not conditions.is_perfect
    return PhaseBudget(
        result=result,
        wall_seconds=last - start,
        deliver_seconds=0.0 if conditioned else seconds["network"],
        scheduler_seconds=seconds["network"] if conditioned else 0.0,
        protocol_seconds=seconds["step"],
        verify_seconds=verify_seconds,
        sizing_seconds=seconds["sizing"],
        other_seconds=seconds["other"],
        check_calls=check_calls,
    )

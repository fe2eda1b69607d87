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

import time
from dataclasses import dataclass

import repro.protocols.aba as _aba_mod
import repro.sim.engine as _engine_mod
import repro.sim.metrics as _metrics_mod
from repro.harness.runner import run_instance
from repro.protocols.base import ProtocolInstance
from repro.sim.conditions import ConditionedNetwork, NetworkConditions
from repro.sim.network import SynchronousNetwork
from repro.sim.result import ExecutionResult
from typing import Optional


@dataclass
class HandlerCallProfile:
    """One instrumented execution: its result and how many per-message
    steps (a node absorbing one message, or the round digest tallying
    one) the iterated-BA nodes ran."""

    result: ExecutionResult
    handler_calls: int


def profile_handler_calls(instance: ProtocolInstance, f: int,
                          seed=0) -> HandlerCallProfile:
    """Run ``instance`` counting ``AbaNode`` per-message steps.

    Every step dispatches through ``aba._HANDLERS``, whose entries are
    wrapped for the run: the per-message fold costs one step per
    delivery (Θ(n²) a round when everyone multicasts), the shared round
    digest one per *message* — so the count tells, independently of the
    hardware, which of the two an execution took.
    """
    calls = [0]

    def counting(step):
        def counted(target, message):
            calls[0] += 1
            return step(target, message)
        return counted

    table = _aba_mod._HANDLERS
    saved = dict(table)
    for cls, handler in saved.items():
        if handler is not None:  # memoized "foreign payload" entries
            valid, absorb, tally = handler
            table[cls] = (valid, counting(absorb), counting(tally))
    try:
        result = run_instance(instance, f, seed=seed)
    finally:
        table.clear()
        table.update(saved)
    return HandlerCallProfile(result=result, handler_calls=calls[0])


@dataclass
class PhaseBudget:
    """Wall time of one execution attributed to its hot-path phases.

    The buckets decompose the wall clock:
    ``wall ≈ deliver + scheduler + protocol + verify + sizing + other``.

    - **deliver** — ``SynchronousNetwork.deliver`` proper.  Delivery is
      lazy, so this is the staging-window turnover; the per-node inbox
      materialization runs when the protocol step first reads an inbox
      and lands in *protocol*.
    - **scheduler** — the conditioned network's event-queue machinery
      (``ConditionedNetwork.advance_to``: staging-window drain into the
      calendar queue, latency/drop coin draws, due-bucket delivery into
      the step buffers).  Zero for unconditioned executions.
    - **verify** — ``authenticator.check`` (the cryptographic predicate,
      wherever invoked: node handlers, sandboxed corrupt nodes, the
      memoization layer on a miss).
    - **sizing** — ``encoded_size_bits`` as called by metrics recording.
    - **protocol** — the honest round step *exclusive* of verify and
      sizing time accrued inside it.
    - **other** — everything else: engine loop, adversary rushing step,
      RNG derivation, result assembly.
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
    """Run ``instance`` attributing wall time to deliver / scheduler /
    protocol-step / verify / sizing.

    ``conditions`` runs the execution under network conditions.

    Instrumentation wraps the five seams the phases flow through:
    ``SynchronousNetwork.deliver`` (class-level — the network is built
    inside the engine), ``ConditionedNetwork.advance_to`` (class-level —
    the event-queue turnover of the conditioned loop),
    ``Simulation._honest_step`` (class-level), the metrics module's
    ``encoded_size_bits`` binding, and the instance's
    ``authenticator.check``.  All wrappers are restored on exit; the
    function is not reentrant (profile one execution at a time).
    Verify/sizing time inside the honest step is subtracted from the
    *protocol* bucket so the buckets stay disjoint; ``ConditionedNetwork``
    overrides ``deliver``, so conditioned turnover never lands in the
    *deliver* bucket.
    """
    state = {"deliver": 0.0, "scheduler": 0.0, "step": 0.0, "verify": 0.0,
             "sizing": 0.0, "nested": 0.0, "in_step": False, "checks": 0}
    perf_counter = time.perf_counter

    orig_deliver = SynchronousNetwork.deliver
    orig_advance = ConditionedNetwork.advance_to
    orig_step = _engine_mod.Simulation._honest_step
    orig_size = _metrics_mod.encoded_size_bits
    authenticator = instance.services["authenticator"]
    orig_check = authenticator.check

    def timed_deliver(self):
        start = perf_counter()
        out = orig_deliver(self)
        state["deliver"] += perf_counter() - start
        return out

    def timed_advance(self, *args):
        start = perf_counter()
        out = orig_advance(self, *args)
        state["scheduler"] += perf_counter() - start
        return out

    def timed_step(self, round_index, inboxes):
        start = perf_counter()
        state["in_step"] = True
        try:
            return orig_step(self, round_index, inboxes)
        finally:
            state["in_step"] = False
            state["step"] += perf_counter() - start

    def timed_check(node_id, topic, auth):
        start = perf_counter()
        out = orig_check(node_id, topic, auth)
        elapsed = perf_counter() - start
        state["verify"] += elapsed
        state["checks"] += 1
        if state["in_step"]:
            state["nested"] += elapsed
        return out

    def timed_size(obj):
        start = perf_counter()
        out = orig_size(obj)
        elapsed = perf_counter() - start
        state["sizing"] += elapsed
        if state["in_step"]:
            state["nested"] += elapsed
        return out

    SynchronousNetwork.deliver = timed_deliver
    ConditionedNetwork.advance_to = timed_advance
    _engine_mod.Simulation._honest_step = timed_step
    _metrics_mod.encoded_size_bits = timed_size
    authenticator.check = timed_check
    try:
        start = perf_counter()
        result = run_instance(instance, f, seed=seed,
                              conditions=conditions)
        wall = perf_counter() - start
    finally:
        SynchronousNetwork.deliver = orig_deliver
        ConditionedNetwork.advance_to = orig_advance
        _engine_mod.Simulation._honest_step = orig_step
        _metrics_mod.encoded_size_bits = orig_size
        del authenticator.check

    protocol = max(0.0, state["step"] - state["nested"])
    other = max(0.0, wall - state["deliver"] - state["scheduler"] - protocol
                - state["verify"] - state["sizing"])
    return PhaseBudget(
        result=result,
        wall_seconds=wall,
        deliver_seconds=state["deliver"],
        scheduler_seconds=state["scheduler"],
        protocol_seconds=protocol,
        verify_seconds=state["verify"],
        sizing_seconds=state["sizing"],
        other_seconds=other,
        check_calls=state["checks"],
    )

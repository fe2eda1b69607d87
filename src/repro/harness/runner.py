"""Convenience runners used by tests, examples, and benchmarks.

``run_instance`` wires a :class:`~repro.protocols.base.ProtocolInstance`
into a :class:`~repro.sim.engine.Simulation` against an (optionally
instance-aware) adversary; ``run_trials`` repeats a builder across seeds —
optionally fanning the seeds across worker processes — and aggregates the
security predicates into a :class:`TrialStats`.  What a builder accepts
is read off its signature (:func:`named_parameters`), never declared a
second time: a builder that names ``conditions`` is handed the
conditions its execution runs under.  Trials take one path for any
worker count: :func:`submit_trials` to a :func:`trial_submitter`, then
:func:`gather_trials`.
"""

from __future__ import annotations

import gc
import inspect
from contextlib import contextmanager
from functools import lru_cache, partial
from types import MappingProxyType, SimpleNamespace
from typing import (
    Any, Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple)

from repro.protocols.base import ProtocolInstance
from repro.sim.adversary import Adversary
from repro.sim.conditions import NetworkConditions, NetworkStats
from repro.sim.engine import TRANSCRIPT_FULL, Simulation
from repro.sim.result import ExecutionResult
from repro.types import AdversaryModel

#: Builds an adversary for a freshly constructed protocol instance.
AdversaryFactory = Callable[[ProtocolInstance], Adversary]


def run_instance(
    instance: ProtocolInstance,
    f: int,
    adversary: Optional[Adversary] = None,
    model: AdversaryModel = AdversaryModel.ADAPTIVE,
    seed=0,
    max_rounds: Optional[int] = None,
    transcript_retention: str = TRANSCRIPT_FULL,
    conditions: Optional[NetworkConditions] = None,
) -> ExecutionResult:
    """Execute one protocol instance against one adversary."""
    simulation = Simulation(
        nodes=instance.nodes,
        corruption_budget=f,
        model=model,
        adversary=adversary,
        max_rounds=max_rounds if max_rounds is not None else instance.max_rounds,
        seed=seed,
        inputs=instance.inputs,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        transcript_retention=transcript_retention,
        conditions=conditions,
    )
    return simulation.run()


class TrialStats:
    """Aggregated security predicates over repeated executions.

    Each predicate is evaluated exactly once, when the result is added;
    the rate properties read O(1) counters instead of re-scanning every
    stored result on each access.  Results enter exclusively through
    :meth:`add` (``results`` is a read-only view), so the counters can
    never drift from the stored sample.
    """

    def __init__(self, results: Optional[List[ExecutionResult]] = None) -> None:
        self._results: List[ExecutionResult] = []
        self._consistent = 0
        self._valid = 0
        self._violations = 0
        self._decided = 0
        self._multicasts = 0
        self._multicast_bits = 0
        self._rounds = 0
        self._corruptions = 0
        self._rounds_saved = 0
        self._max_message_bits = 0
        self._network_trials = 0
        self._network = NetworkStats()
        for result in results or []:
            self.add(result)

    @property
    def results(self) -> Tuple[ExecutionResult, ...]:
        """The stored results, as an immutable view (use :meth:`add`)."""
        return tuple(self._results)

    def add(self, result: ExecutionResult) -> None:
        self._results.append(result)
        consistent = result.consistent()
        valid = result.agreement_valid()
        self._consistent += consistent
        self._valid += valid
        self._violations += not (consistent and valid)
        self._decided += result.all_decided()
        self._multicasts += result.metrics.multicast_complexity_messages
        self._multicast_bits += result.metrics.multicast_complexity_bits
        self._rounds += result.rounds_executed
        self._corruptions += result.corruptions_used
        self._rounds_saved += result.rounds_saved
        self._max_message_bits = max(self._max_message_bits,
                                     result.metrics.max_message_bits)
        network = result.network_stats
        if network is not None:
            self._network_trials += 1
            self._network.accumulate(network)

    @property
    def trials(self) -> int:
        return len(self._results)

    @property
    def consistency_rate(self) -> float:
        return self._consistent / self.trials if self._results else 1.0

    @property
    def validity_rate(self) -> float:
        return self._valid / self.trials if self._results else 1.0

    @property
    def violation_rate(self) -> float:
        return self._violations / self.trials if self._results else 0.0

    @property
    def termination_rate(self) -> float:
        return self._decided / self.trials if self._results else 1.0

    @property
    def mean_multicasts(self) -> float:
        return self._multicasts / self.trials if self._results else 0.0

    @property
    def mean_multicast_bits(self) -> float:
        return self._multicast_bits / self.trials if self._results else 0.0

    @property
    def mean_rounds(self) -> float:
        return self._rounds / self.trials if self._results else 0.0

    @property
    def mean_corruptions(self) -> float:
        return self._corruptions / self.trials if self._results else 0.0

    @property
    def mean_rounds_saved(self) -> float:
        """Mean protocol rounds finished under the round budget — the
        payoff axis of the early-stopping variants (0.0 for protocols
        that always run their full budget)."""
        return self._rounds_saved / self.trials if self._results else 0.0

    @property
    def max_message_bits(self) -> int:
        """Largest single message seen across all trials."""
        return self._max_message_bits

    # -- network-conditions aggregates (conditioned executions only) --------
    @property
    def has_network_stats(self) -> bool:
        """Whether any trial ran under nontrivial network conditions."""
        return self._network_trials > 0

    @property
    def network(self) -> NetworkStats:
        """All conditioned trials folded into one :class:`NetworkStats`
        (sums; peak for ``max_in_flight``)."""
        return self._network

    @property
    def mean_delivery_latency(self) -> float:
        """Effective round latency: mean copy delay in network rounds,
        across every delivered copy of every conditioned trial."""
        return self._network.mean_delivery_latency

    @property
    def max_in_flight(self) -> int:
        """Peak scheduled-but-undelivered copies across conditioned trials."""
        return self._network.max_in_flight

    @property
    def dropped_copies(self) -> int:
        """Total pre-GST copy drops across conditioned trials."""
        return self._network.dropped_copies

    @property
    def skipped_ticks(self) -> int:
        """Total idle network ticks across conditioned trials — the
        rounds the event engine skips outright (and the lock-step
        synchronizer executes as no-ops; the count is engine-invariant).
        Their share of ``network.network_rounds`` is the empty-round
        density the event engine's wall-clock win tracks."""
        return self._network.skipped_ticks

    @property
    def events_processed(self) -> int:
        """Total delivery-queue events across conditioned trials
        (schedules, pre-GST duplicates, partition re-queues)."""
        return self._network.events_processed

    def decision_rounds(self) -> List[int]:
        rounds: List[int] = []
        for result in self._results:
            rounds.extend(result.decision_rounds())
        return rounds


@lru_cache(maxsize=256)
def named_parameters(builder: Callable[..., Any]) -> Mapping[str, bool]:
    """The parameters ``builder`` names in its signature, each mapped to
    whether it is required (has no default), in signature order; resolved
    once per callable per process (bounded: the cache pins the callables
    it has seen).  A ``**kwargs`` catch-all names nothing: only a
    parameter a callable spells out is one it is known to use."""
    return MappingProxyType({
        name: parameter.default is parameter.empty
        for name, parameter in inspect.signature(builder).parameters.items()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                              parameter.KEYWORD_ONLY)})


def _run_one_trial(
    builder: Callable[..., ProtocolInstance],
    f: int,
    seed,
    adversary_factory: Optional[AdversaryFactory] = None,
    model: AdversaryModel = AdversaryModel.ADAPTIVE,
    transcript_retention: str = TRANSCRIPT_FULL,
    conditions: Optional[NetworkConditions] = None,
    **builder_kwargs,
) -> ExecutionResult:
    """One seed's build-and-run; module-level so worker processes can
    receive it by pickle.  Where the collector is off the unit's garbage
    is collected here, between units: 0.21 ms at the median (4.4 ms at
    most, the library's 268 trials) in an owned pool's frozen worker; a
    caller that disabled its own collector pays a full 6.5 ms per trial."""
    if "conditions" in named_parameters(builder):
        builder_kwargs["conditions"] = conditions
    instance = builder(f=f, seed=seed, **builder_kwargs)
    adversary = (adversary_factory(instance)
                 if adversary_factory is not None else None)
    result = run_instance(instance, f, adversary, model, seed=seed,
                          transcript_retention=transcript_retention,
                          conditions=conditions)
    if not gc.isenabled():
        del instance, adversary
        gc.collect()
    return result


class InlineSubmitter:
    """A process pool's ``submit`` for a single process: the call is made
    when the future's ``result()`` is read — at gather, not at submit —
    so a one-process sweep still finishes (and records) one cell before
    it computes the next."""

    @staticmethod
    def submit(fn: Callable[..., Any], *args, **kwargs) -> Any:
        return SimpleNamespace(result=partial(fn, *args, **kwargs))


def _own_worker_collector() -> None:
    """Initializer of an owned pool's worker, the one site of the
    collector policy: freeze the heap the worker starts with (its
    collections stop walking, and copy-on-write-faulting, the parent's)
    and turn the cyclic collector off; :func:`_run_one_trial` collects
    between units and says what that costs.  Under ``spawn`` too:
    unpickling this function imports the library before it runs."""
    gc.freeze()
    gc.disable()


@contextmanager
def trial_submitter(workers: int = 1, pool=None) -> Iterator[Any]:
    """Where a block's trials are submitted: the ``pool`` a caller lends
    (and keeps: it is not shut down here), else a ``ProcessPoolExecutor``
    of ``workers`` owned by the block, else an :class:`InlineSubmitter`.

    An owned pool's workers persist across the block's cells, so their
    lottery caches (rebound from the pickled token) accumulate coins
    cell over cell, and the harness owns their collector
    (:func:`_own_worker_collector`); a lent pool's workers and the
    calling process keep theirs.  Trials nobody gathered — the block
    raised — are dropped, not awaited.
    """
    if pool is not None:
        yield pool
    elif workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        owned = ProcessPoolExecutor(max_workers=workers,
                                    initializer=_own_worker_collector)
        try:
            yield owned
        finally:
            owned.shutdown(cancel_futures=True)
    else:
        yield InlineSubmitter()


def submit_trials(submitter, builder: Callable[..., ProtocolInstance], f: int,
                  seeds: Sequence, **trial) -> List[Any]:
    """Submit one trial per seed to ``submitter`` (``trial``: the
    remaining keyword arguments of :func:`run_trials`); the futures come
    back in seed order, for :func:`gather_trials`."""
    return [submitter.submit(_run_one_trial, builder, f, seed, **trial)
            for seed in seeds]


def gather_trials(futures: Iterable[Any]) -> TrialStats:
    """Fold trial futures into a :class:`TrialStats` in the order given
    (seed order), whichever worker finished first."""
    return TrialStats([future.result() for future in futures])


def run_trials(
    builder: Callable[..., ProtocolInstance],
    f: int,
    seeds: Sequence,
    adversary_factory: Optional[AdversaryFactory] = None,
    model: AdversaryModel = AdversaryModel.ADAPTIVE,
    workers: int = 1,
    transcript_retention: str = TRANSCRIPT_FULL,
    conditions: Optional[NetworkConditions] = None,
    pool=None,
    **builder_kwargs,
) -> TrialStats:
    """Build and run the protocol once per seed; aggregate the outcomes.

    The builder receives ``seed=<seed>`` plus ``builder_kwargs``; the
    adversary factory (if any) is invoked on each fresh instance, so
    attacks can read the instance's services.  A builder that names a
    ``conditions`` parameter receives ``conditions`` as well — the
    GST-aware early-stopping builders and the view families derive their
    trusted-round gate and view timers from the same conditions the
    engine runs under.

    ``workers > 1`` fans the seeds across a ``ProcessPoolExecutor``.
    Results are aggregated in seed order regardless of which worker
    finishes first, so ``TrialStats`` is identical for any worker count
    (each trial is already independently seeded).  The builder, the
    adversary factory, and the execution results must be picklable —
    true for all module-level builders in this repo.

    ``pool`` lends an already-running ``ProcessPoolExecutor`` instead
    (:func:`trial_submitter`); even a single seed routes through it
    rather than bypass its workers' state in the parent.  Either way
    this is ``gather_trials(submit_trials(…))``;
    :func:`~repro.harness.scenarios.run_sweep` calls the two halves
    itself, to have every cell in flight before it awaits the first.
    """
    seeds = list(seeds)
    with trial_submitter(min(workers, len(seeds)), pool) as submitter:
        return gather_trials(submit_trials(
            submitter, builder, f, seeds, adversary_factory=adversary_factory,
            model=model, transcript_retention=transcript_retention,
            conditions=conditions, **builder_kwargs))

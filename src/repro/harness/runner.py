"""Convenience runners used by tests, examples, and benchmarks.

``run_instance`` (:mod:`repro.sim.engine`'s, exported here) runs one
protocol instance against an (optionally instance-aware) adversary;
``run_trials`` repeats a builder across seeds —
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
from operator import attrgetter, methodcaller
from types import MappingProxyType, SimpleNamespace
from typing import (
    Any, Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple)

from repro.protocols.base import ProtocolInstance
from repro.sim.adversary import Adversary
from repro.sim.conditions import NetworkConditions, NetworkStats
from repro.sim.engine import TRANSCRIPT_FULL, run_instance
from repro.sim.result import ExecutionResult

#: Builds an adversary for a freshly constructed protocol instance.
AdversaryFactory = Callable[[ProtocolInstance], Adversary]


def _mean_of(value: Callable[[ExecutionResult], int],
             empty: float) -> property:
    """A :class:`TrialStats` property: ``value`` summed over the trials,
    divided by their count (``empty`` when there are none)."""
    def read(stats: "TrialStats") -> float:
        results = stats._results
        return sum(map(value, results)) / len(results) if results else empty
    return property(read)


class TrialStats:
    """Aggregated security predicates over repeated executions.

    Holds its results and nothing else: each rate and mean is the
    integer sum of a per-trial value divided by :attr:`trials`, folded
    when read, so no tally can drift from the stored sample.  Results
    enter through :meth:`add` (``results`` is a read-only view).
    """

    def __init__(self, results: Optional[List[ExecutionResult]] = None) -> None:
        self._results: List[ExecutionResult] = list(results or [])

    @property
    def results(self) -> Tuple[ExecutionResult, ...]:
        """The stored results, as an immutable view (use :meth:`add`)."""
        return tuple(self._results)

    def add(self, result: ExecutionResult) -> None:
        self._results.append(result)

    @property
    def trials(self) -> int:
        return len(self._results)

    consistency_rate = _mean_of(methodcaller("consistent"), 1.0)
    validity_rate = _mean_of(methodcaller("agreement_valid"), 1.0)
    violation_rate = _mean_of(lambda result: not (
        result.consistent() and result.agreement_valid()), 0.0)
    termination_rate = _mean_of(methodcaller("all_decided"), 1.0)
    mean_multicasts = _mean_of(
        attrgetter("metrics.multicast_complexity_messages"), 0.0)
    mean_multicast_bits = _mean_of(
        attrgetter("metrics.multicast_complexity_bits"), 0.0)
    mean_rounds = _mean_of(attrgetter("rounds_executed"), 0.0)
    mean_corruptions = _mean_of(attrgetter("corruptions_used"), 0.0)

    @property
    def max_message_bits(self) -> int:
        """Largest single message seen across all trials."""
        return max((result.metrics.max_message_bits
                    for result in self._results), default=0)

    # -- network-conditions aggregates (conditioned executions only) --------
    @property
    def has_network_stats(self) -> bool:
        """Whether any trial ran under nontrivial network conditions."""
        return any(result.network_stats is not None
                   for result in self._results)

    @property
    def network(self) -> NetworkStats:
        """All conditioned trials folded into one :class:`NetworkStats`
        (sums; peak for ``max_in_flight``)."""
        total = NetworkStats()
        for result in self._results:
            if result.network_stats is not None:
                total.accumulate(result.network_stats)
        return total

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
    result = run_instance(instance, f, adversary, seed=seed,
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
    remaining keyword arguments of :func:`_run_one_trial`); the futures come
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
    workers: int = 1,
    conditions: Optional[NetworkConditions] = None,
    **builder_kwargs,
) -> TrialStats:
    """Build and run the protocol once per seed; aggregate the outcomes.

    The builder receives ``seed=<seed>`` plus ``builder_kwargs``; the
    adversary factory (if any) is invoked on each fresh instance, so
    attacks can read the instance's authenticator and config.  A
    builder that names a ``conditions`` parameter receives
    ``conditions`` as well — the GST-aware early-stopping builders and
    the view families derive their trusted-round gate and view timers
    from the same conditions the engine runs under.

    ``workers > 1`` fans the seeds across a ``ProcessPoolExecutor``.
    Results are aggregated in seed order regardless of which worker
    finishes first, so ``TrialStats`` is identical for any worker count
    (each trial is already independently seeded).  The builder, the
    adversary factory, and the execution results must be picklable —
    true for all module-level builders in this repo.

    This is ``gather_trials(submit_trials(…))``;
    :func:`~repro.harness.scenarios.run_sweep` calls the two halves
    itself, to have every cell in flight before it awaits the first, and
    :func:`~repro.harness.scenarios.execute_or_replay` takes a lent pool.
    """
    seeds = list(seeds)
    with trial_submitter(min(workers, len(seeds))) as submitter:
        return gather_trials(submit_trials(
            submitter, builder, f, seeds, adversary_factory=adversary_factory,
            conditions=conditions, **builder_kwargs))

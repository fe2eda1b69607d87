"""Declarative scenario-matrix layer: specs in, sweeps out.

Every workload in this repo is some cross-product of *protocol ×
adversary × input distribution × parameters (n, f, λ, seeds)*.  Before
this module each such grid was an imperative loop inside an experiment
function; here the grid is **data**:

- :class:`ScenarioSpec` names a protocol builder, an adversary factory,
  an input distribution, a parameter ``grid`` (cross-product axes) and
  ``fixed`` bindings, plus the seeds to repeat each cell over;
- :class:`SweepSpec` groups scenarios under one name;
- :func:`run_sweep` expands the cross-product into :class:`Cell`\\ s and
  settles each through its *executor*, the function :data:`EXECUTORS`
  names (seeded trials, a lower-bound attack harness, a census), into a
  :class:`SweepResult` that renders as a :class:`Table` and exports
  CSV/JSON artifacts.

Reserved binding names (resolved by the layer, everything else passes
through to the builder):

``n``            number of nodes (required by protocol executors)
``f``            corruption budget — an int, or a callable ``n -> f``
``f_fraction``   derive ``f = int(fraction * n)``
``lam``          build ``SecurityParameters(lam=...)`` for protocols
``epsilon``      resilience slack for the same ``SecurityParameters``
``adversary``    per-cell adversary key (usable as a grid axis)
``inputs``       per-cell input-distribution key (usable as a grid axis)
``network``      per-cell network conditions (usable as a grid axis): a
                 :data:`~repro.sim.conditions.NETWORKS` preset name or a
                 :class:`~repro.sim.conditions.NetworkConditions` value
``topology``     per-link latency topology layered onto the cell's
                 network conditions: a
                 :data:`~repro.sim.conditions.TOPOLOGIES` preset name or
                 a :class:`~repro.sim.conditions.LinkTopology` value
                 (nontrivial topologies require a ``network`` binding
                 with ``delta > 1``)

Determinism: cells expand in scenario order then row-major grid order,
trials aggregate in seed order for any worker count, and the shared
eligibility-lottery cache (:mod:`repro.eligibility.lottery_cache`)
memoizes coins that are already a pure function of ``(seed, node,
topic)`` — so a ``SweepResult``'s rows are identical with and without
``workers`` and with and without the cache.

Persistence: ``run_sweep(store=...)`` consults a content-addressed
:class:`~repro.harness.store.ExperimentStore` before executing each
cell, replaying recorded cells byte-identically and recording fresh
ones — which enables ``--resume`` after interruption, ``--shard K/M``
fan-out across invocations, and incremental grid growth (see
``docs/RESULTS.md``).
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import io
import itertools
import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.adversaries import (
    AckEquivocationAdversary,
    ActualFaultsAdversary,
    AdaptiveSpeakerAdversary,
    CrashAdversary,
    DelayAdversary,
    LeaderKillerAdversary,
    StaticEquivocationAdversary,
    ViewSplitAdversary,
)
from repro.analysis.stats import mean
from repro.eligibility import DifficultySchedule, FMineEligibility
from repro.eligibility.lottery_cache import SharedLotteryCache, release_cache
from repro.errors import ConfigurationError
from repro.harness.backends import indented_json
from repro.harness.runner import (
    InlineSubmitter, TrialStats, gather_trials, named_parameters,
    submit_trials, trial_submitter)
from repro.harness.tables import Table, rows_to_table, union_columns
from repro.lowerbounds import (
    run_dolev_reischuk_attack, run_hypothetical_experiment,
    run_theorem4_attack, run_theorem4_census)
from repro.sim.conditions import (
    NETWORKS,
    TOPOLOGIES,
    LinkTopology,
    NetworkConditions,
)
from repro.sim.adversary import PassiveAdversary
from repro.sim.engine import TRANSCRIPT_METRICS_ONLY
from repro.protocols import (
    build_adaptive_ba,
    build_broadcast_from_ba,
    build_dolev_strong,
    build_leader_ba,
    build_leader_chain,
    build_naive_broadcast,
    build_phase_king,
    build_phase_king_early_stop,
    build_phase_king_subquadratic,
    build_quadratic_ba,
    build_quadratic_ba_early_stop,
    build_round_eligibility,
    build_static_committee,
    build_subquadratic_ba,
)
from repro.protocols.adaptive_ba import adaptive_columns
from repro.protocols.leader_ba import view_columns
from repro.protocols.view_machine import mean_columns
from repro.types import SecurityParameters

# ---------------------------------------------------------------------------
# Registries: protocols, adversaries, input distributions.
# ---------------------------------------------------------------------------


def rounds_saved_columns(results: Sequence[Any]) -> Dict[str, float]:
    """The early-stopping variants' artifact column over a cell's trials."""
    return mean_columns(results,
                        {"mean_rounds_saved": attrgetter("rounds_saved")})


@dataclass(frozen=True)
class ProtocolEntry:
    """One registry protocol: its builder, and the extractors of the
    extra columns its artifact rows report.

    Everything else the binding layer, the CLI and the runner ask —
    per-node ``inputs`` or a ``sender_input``, ``params`` (``lam`` and
    ``epsilon`` axes fold into one), ``mode``, ``coin_cache`` (the shared
    lottery), ``conditions`` — is the builder's signature: :meth:`takes`.
    """

    builder: Callable[..., Any]
    #: ``results -> {column: value}`` over a cell's trials, appended to
    #: the common columns in order.  Changing what a protocol reports
    #: here changes recorded rows: bump ``STORE_SALT`` in store.py
    #: (``tests/test_store.py`` pins the schema beside the salt).
    columns: Tuple[Callable[[Sequence[Any]], Dict[str, Any]], ...] = ()

    def takes(self, name: str) -> bool:
        """Whether the builder names a parameter ``name`` (``**kwargs``
        names none); its signature is resolved once per builder."""
        return name in named_parameters(self.builder)


PROTOCOLS: Dict[str, ProtocolEntry] = {
    "subquadratic": ProtocolEntry(build_subquadratic_ba),
    "quadratic": ProtocolEntry(build_quadratic_ba),
    "quadratic-early-stop": ProtocolEntry(
        build_quadratic_ba_early_stop, columns=(rounds_saved_columns,)),
    "leader-ba": ProtocolEntry(build_leader_ba, columns=(view_columns,)),
    "leader-chain": ProtocolEntry(build_leader_chain, columns=(view_columns,)),
    # ``mean_words`` is the classical word count (Definition 6) — the
    # adaptive fast path is built from unicasts the multicast columns
    # do not see.
    "adaptive-ba": ProtocolEntry(
        build_adaptive_ba, columns=(adaptive_columns,)),
    "phase-king": ProtocolEntry(build_phase_king),
    "phase-king-early-stop": ProtocolEntry(
        build_phase_king_early_stop, columns=(rounds_saved_columns,)),
    "phase-king-subquadratic": ProtocolEntry(build_phase_king_subquadratic),
    "static-committee": ProtocolEntry(build_static_committee),
    "round-eligibility": ProtocolEntry(build_round_eligibility),
    "dolev-strong": ProtocolEntry(build_dolev_strong),
    "naive-broadcast": ProtocolEntry(build_naive_broadcast),
    "broadcast-from-ba": ProtocolEntry(build_broadcast_from_ba),
}


#: Adversary classes by name.  One whose signature names ``instance`` is
#: built over the cell's fresh protocol instance; workers look them up
#: by name (:class:`AdversaryFactorySpec`), so they are never pickled.
ADVERSARIES: Dict[str, type] = {
    "none": PassiveAdversary,
    "actual-faults": ActualFaultsAdversary,
    "crash": CrashAdversary,
    "delay": DelayAdversary,
    "equivocate": StaticEquivocationAdversary,
    "ack-equivocate": AckEquivocationAdversary,
    "speaker": AdaptiveSpeakerAdversary,
    "leader-killer": LeaderKillerAdversary,
    "view-split": ViewSplitAdversary,
}


def inputs_zeros(n: int) -> List[int]:
    return [0] * n


def inputs_ones(n: int) -> List[int]:
    return [1] * n


def inputs_mixed(n: int) -> List[int]:
    return [i % 2 for i in range(n)]


INPUTS: Dict[str, Callable[[int], List[int]]] = {
    "zeros": inputs_zeros,
    "ones": inputs_ones,
    "mixed": inputs_mixed,
}


def f_half_minus_one(n: int) -> int:
    """The maximal honest-majority budget ``f = (n - 1) // 2``, for use
    as a callable ``f`` binding."""
    return (n - 1) // 2


def f_third_minus_one(n: int) -> int:
    """The maximal partial-synchrony budget ``f = (n - 1) // 3`` (so
    ``n > 3f``), for use as a callable ``f`` binding with the
    leader-based family."""
    return (n - 1) // 3


@dataclass(frozen=True)
class AdversaryFactorySpec:
    """A picklable adversary factory: registry key + keyword arguments.

    ``run_trials(workers=N)`` pickles the factory to worker processes, so
    it must be a module-level object rather than a closure.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self, instance):
        adversary = ADVERSARIES[self.name]
        if "instance" in named_parameters(adversary):
            return adversary(instance, **dict(self.kwargs))
        return adversary(**dict(self.kwargs))


# ---------------------------------------------------------------------------
# Specs and cells.
# ---------------------------------------------------------------------------

#: Bindings resolved by the layer rather than passed to the builder.
RESERVED_BINDINGS = frozenset(
    {"n", "f", "f_fraction", "lam", "epsilon", "adversary", "inputs",
     "network", "topology"})


@dataclass(frozen=True)
class ScenarioSpec:
    """One protocol × adversary × inputs family over a parameter grid.

    ``grid`` axes cross-multiply in insertion order (first axis is the
    outermost loop); ``fixed`` bindings apply to every cell and are
    overridden by grid axes of the same name.  Bindings not in
    :data:`RESERVED_BINDINGS` pass through to the protocol builder
    verbatim (``epochs``, ``mode``, ``max_iterations``, ``sender_input``,
    a pre-built ``params`` object, ...); :meth:`cells` refuses one the
    receiving signature does not name.  A ``ba_builder`` binding given
    as a string resolves through :data:`PROTOCOLS` (for the
    broadcast-from-BA reduction).
    """

    name: str
    protocol: Optional[str] = None
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    adversary: Optional[str] = None
    adversary_kwargs: Mapping[str, Any] = field(default_factory=dict)
    inputs: Optional[str] = None
    seeds: Sequence[Any] = (0, 1, 2)
    executor: str = "trials"

    def cells(self) -> List["Cell"]:
        """Expand the grid cross-product into bound cells."""
        _known(EXECUTORS, self.executor, "executor")
        axes = list(self.grid.items())
        for axis, values in axes:
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a sequence of values")
        cells = []
        for point in itertools.product(*(values for _, values in axes)):
            bindings = dict(self.fixed)
            bindings.update(zip((axis for axis, _ in axes), point))
            cells.append(_bind_cell(self, bindings))
        return cells


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of scenarios executed as one sweep."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""

    def expand(self) -> List["Cell"]:
        return [cell for scenario in self.scenarios
                for cell in scenario.cells()]


@dataclass(frozen=True)
class Cell:
    """One fully-bound grid point, ready to execute."""

    scenario: str
    executor: str
    protocol: Optional[str]
    adversary: Optional[str]
    adversary_kwargs: Tuple[Tuple[str, Any], ...]
    inputs: Optional[str]
    #: Resolved network conditions (None = perfect synchrony).
    network: Optional[NetworkConditions]
    n: Optional[int]
    f: Optional[int]
    seeds: Tuple[Any, ...]
    #: Keyword arguments handed to the builder / attack runner (without
    #: ``f`` and ``seed``/``seeds``, which the executor supplies).
    kwargs: Tuple[Tuple[str, Any], ...]
    #: The resolved reserved bindings, kept for labels and artifact rows.
    bindings: Tuple[Tuple[str, Any], ...]

    def label(self) -> str:
        parts = [self.scenario]
        parts.extend(f"{key}={value}" for key, value in self.bindings
                     if key not in ("adversary", "inputs"))
        if self.adversary:
            parts.append(f"adversary={self.adversary}")
        return " ".join(parts)

    def builder_kwargs(self) -> Dict[str, Any]:
        return dict(self.kwargs)


def _known(registry: Mapping[str, Any], key: str, noun: str) -> Any:
    """``registry[key]``, or a configuration error naming the known keys."""
    if key not in registry:
        raise ConfigurationError(
            f"unknown {noun} {key!r} (have {sorted(registry)})")
    return registry[key]


def _resolve_f(raw: Mapping[str, Any], n: Optional[int]) -> Optional[int]:
    f = raw.get("f")
    if callable(f):
        if n is None:
            raise ConfigurationError("callable f requires an n binding")
        return int(f(n))
    if f is not None:
        return int(f)
    fraction = raw.get("f_fraction")
    if fraction is not None:
        if n is None:
            raise ConfigurationError("f_fraction requires an n binding")
        return int(fraction * n)
    return None


def _preset_or_value(binding: Any, key: str, presets: Mapping[str, Any],
                     registry: str, kind: type, noun: str,
                     ) -> Tuple[Any, Optional[str]]:
    """A reserved binding given as a preset name or as a ``kind`` value:
    the resolved value and its artifact-row label (both None unbound)."""
    if binding is None:
        return None, None
    if isinstance(binding, str):
        return _known(presets, binding, noun), binding
    if isinstance(binding, kind):
        return binding, binding.describe()
    raise ConfigurationError(
        f"{key} binding must be a {registry} name or a "
        f"{kind.__name__}, got {binding!r}")


@lru_cache(maxsize=256)
def _takes_any(call: Callable[..., Any]) -> bool:
    """Whether ``call`` has a ``**kwargs`` catch-all, which names
    nothing (:func:`named_parameters`) and takes anything."""
    return any(parameter.kind is parameter.VAR_KEYWORD
               for parameter in inspect.signature(call).parameters.values())


def _refuse_unnamed(spec: ScenarioSpec, receiver: Callable[..., Any],
                    label: str, bindings: Mapping[str, str]) -> None:
    """Refuse each parameter of ``bindings`` (mapped to the binding that
    supplies it) that ``receiver``'s signature does not name."""
    for name, binding in bindings.items():
        if not (name in named_parameters(receiver) or _takes_any(receiver)):
            raise ConfigurationError(
                f"scenario {spec.name!r}: {label} names no {name!r} "
                f"parameter for the {binding} binding")


def _bind_cell(spec: ScenarioSpec, raw: Dict[str, Any]) -> Cell:
    """Resolve one grid point's reserved bindings into a :class:`Cell`.

    What the executor requires and what it can use is its signature: a
    parameter without a default must be bindable, ``seed`` (not
    ``seeds``) runs exactly one, ``conditions`` honors a network binding,
    and a binding nothing would receive is refused, not dropped."""
    executor = EXECUTORS[spec.executor]
    names = named_parameters(executor)
    entry: Optional[ProtocolEntry] = None
    if spec.protocol is not None:
        entry = _known(PROTOCOLS, spec.protocol, "protocol")

    adversary = raw.pop("adversary", spec.adversary)
    if adversary is not None:
        _known(ADVERSARIES, adversary, "adversary")
    # ``adversary_<kw>``-prefixed bindings are grid-able adversary
    # keyword arguments: ``adversary_actual`` on a grid axis becomes
    # ``actual=...`` to the cell's adversary factory (over any value in
    # ``spec.adversary_kwargs``), and the prefixed name stays in the
    # artifact row so the axis is visible — e.g. the adaptive family's
    # words-vs-actual-f sweep dials f* through ``adversary_actual``.
    adversary_kwargs = dict(spec.adversary_kwargs)
    adversary_axes: List[Tuple[str, Any]] = []
    for key in [key for key in raw if key.startswith("adversary_")]:
        value = raw.pop(key)
        adversary_kwargs[key[len("adversary_"):]] = value
        adversary_axes.append((key, value))
    if adversary_axes and adversary is None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: adversary_-prefixed bindings "
            f"({sorted(key for key, _ in adversary_axes)}) require an "
            "adversary binding to apply to")
    inputs_key = raw.pop("inputs", spec.inputs)
    if inputs_key is not None:
        _known(INPUTS, inputs_key, "input distribution")
    takes_inputs = entry is not None and entry.takes("inputs")
    for binding, value, usable in (
            ("protocol", spec.protocol, "builder" in names),
            ("adversary", adversary, "adversary_factory" in names),
            ("inputs", inputs_key, takes_inputs)):
        if value is not None and not usable:
            raise ConfigurationError(
                f"scenario {spec.name!r}: executor {spec.executor!r} cannot "
                f"use the {binding} binding {value!r}; it would be ignored")
    network, network_label = _preset_or_value(
        raw.pop("network", None), "network", NETWORKS, "NETWORKS",
        NetworkConditions, "network conditions")
    topology, topology_label = _preset_or_value(
        raw.pop("topology", None), "topology", TOPOLOGIES, "TOPOLOGIES",
        LinkTopology, "topology")
    if topology is not None:
        # The binding wins over any topology baked into an inline
        # NetworkConditions value — a 'uniform' axis point *strips* a
        # baked-in topology — so one conditions object can back a whole
        # topology axis with an honest uniform baseline.
        if network is None:
            if not topology.is_trivial:
                raise ConfigurationError(
                    f"scenario {spec.name!r}: a nontrivial topology "
                    "shapes latency within the Δ bound, so it needs a "
                    "network binding with delta > 1 (e.g. 'lan' or "
                    "'wan')")
        elif topology.is_trivial:
            if network.topology is not None:
                network = dataclasses.replace(network, topology=None)
        elif network.delta > 1:
            network = dataclasses.replace(network, topology=topology)
        # else delta == 1: every surcharge would clamp away, so the
        # cell stays lock-step — the Δ-clamp semantics, and the same
        # exemption --network perfect enjoys, so a forced --topology
        # can span grids that include perfect cells.
    if network is not None and network.is_perfect:
        network = None  # the engine's fast path; keep the label for rows
    # The attack harnesses run their adversaries through run_instance,
    # which takes conditions — so partition/latency *studies* of the
    # lower-bound attacks are a network binding away (the proofs'
    # view-identity arguments assume lock-step; under conditions the
    # reports are empirical, see docs/NETWORK.md).  Executors that never
    # run a protocol name no ``conditions`` and reject one.
    if network is not None and "conditions" not in names:
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} does not "
            "support network conditions")
    if "seed" in names and len(spec.seeds) != 1:
        # Rejected rather than silently truncated to ``seeds[0]``.
        raise ConfigurationError(
            f"scenario {spec.name!r}: executor {spec.executor!r} runs "
            f"exactly one seed, got {len(spec.seeds)}")

    n = raw.get("n")
    f = _resolve_f(raw, n)
    # An executor that names ``epsilon`` means its own (the attack
    # harnesses' message-budget factor, not the resilience slack): it
    # passes through verbatim.
    reserved = RESERVED_BINDINGS - ({"epsilon"} & names.keys())
    kwargs = {key: value for key, value in raw.items()
              if key not in reserved}
    if isinstance(kwargs.get("ba_builder"), str):
        kwargs["ba_builder"] = _known(
            PROTOCOLS, kwargs["ba_builder"], "ba_builder").builder
    if n is not None:
        kwargs["n"] = n
    # lam/epsilon axes fold into a SecurityParameters, which the check
    # below refuses where nothing names ``params``.  Refuse the other
    # combinations that would silently drop a binding the artifact rows
    # would still report (a pre-built ``params`` with lam/epsilon
    # alongside, epsilon with nothing to fold it into).
    lam = raw.get("lam")
    epsilon = raw.get("epsilon") if "epsilon" in reserved else None
    if "params" in kwargs and (lam is not None or epsilon is not None):
        raise ConfigurationError(
            f"scenario {spec.name!r}: both a pre-built params binding "
            "and lam/epsilon given — the latter would be ignored")
    if lam is None and epsilon is not None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: epsilon requires a lam binding "
            "to fold into SecurityParameters")
    if lam is not None:
        params_kwargs: Dict[str, Any] = {"lam": lam}
        if epsilon is not None:
            params_kwargs["epsilon"] = epsilon
        kwargs["params"] = SecurityParameters(**params_kwargs)
    if takes_inputs and "inputs" not in kwargs:
        kwargs["inputs"] = INPUTS[inputs_key or "mixed"](n)
    bound = dict(kwargs, builder=entry, f=f)
    for name, required in names.items():
        if required and bound.get(name, _OFFERS.get(name)) is None:
            binding = {"builder": "protocol",
                       "f": "f or f_fraction"}.get(name, name)
            raise ConfigurationError(
                f"scenario {spec.name!r}: executor {spec.executor!r} "
                f"is missing its {binding} binding")
    # A pass-through binding lands in the executor's signature or, behind
    # a ``**kwargs`` executor, in the builder's; an adversary keyword in
    # the adversary's.  One its receiver does not name would be dropped
    # or raise mid-trial, so it is refused here.
    receiver, label = executor, f"executor {spec.executor!r}"
    if entry is not None and _takes_any(executor):
        receiver, label = entry.builder, f"protocol {spec.protocol!r}"
    _refuse_unnamed(spec, receiver, label, {
        key: "lam" if key == "params" and lam is not None else key
        for key in kwargs if key not in names})
    if adversary is not None:
        _refuse_unnamed(spec, ADVERSARIES[adversary],
                        f"adversary {adversary!r}",
                        {key: f"adversary_{key}" for key in adversary_kwargs})

    bindings: Dict[str, Any] = {}
    _record = bindings.setdefault  # the first binding of a name wins
    for key in ("n", "f", "f_fraction", "lam", "epsilon"):
        if key == "f":
            if f is not None:
                _record("f", f)
        elif key in raw and not callable(raw[key]):
            _record(key, raw[key])
    for key, value in raw.items():
        if key in RESERVED_BINDINGS or key in ("params", "ba_builder"):
            continue
        _record(key, value)
    if adversary is not None:
        _record("adversary", adversary)
    for key, value in adversary_axes:
        _record(key, value)
    for key, value in (("inputs", inputs_key), ("network", network_label),
                       ("topology", topology_label)):
        if value is not None:
            _record(key, value)

    return Cell(
        scenario=spec.name,
        executor=spec.executor,
        protocol=spec.protocol,
        adversary=adversary,
        adversary_kwargs=tuple(sorted(adversary_kwargs.items())),
        inputs=inputs_key,
        network=network,
        n=n,
        f=f,
        seeds=tuple(spec.seeds),
        kwargs=tuple(kwargs.items()),
        bindings=tuple(bindings.items()),
    )


# ---------------------------------------------------------------------------
# Executors.
# ---------------------------------------------------------------------------


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


#: A ``trials`` row's common columns, read off its :class:`TrialStats`.
STATS_COLUMNS = (
    "trials", "consistency_rate", "validity_rate", "termination_rate",
    "violation_rate", "mean_rounds", "mean_multicasts",
    "mean_multicast_bits", "mean_corruptions", "max_message_bits")

#: A conditioned row's network columns, read off ``stats.network``.  The
#: scheduler's two (``skipped_ticks``, ``events_processed``) are
#: engine-invariant: tests/test_event_engine_differential.py compares
#: whole sweep artifacts across the event engine and its reference.
NETWORK_COLUMNS = (
    "mean_delivery_latency", "max_in_flight", "dropped_copies",
    "skipped_ticks", "events_processed")


def _stats_metrics(stats: TrialStats, entry: ProtocolEntry) -> Dict[str, Any]:
    metrics = {name: getattr(stats, name) for name in STATS_COLUMNS}
    # Network-axis columns only for conditioned cells, so sweeps that
    # never leave perfect synchrony keep byte-identical artifacts.
    if stats.has_network_stats:
        network = stats.network
        metrics.update((name, getattr(network, name))
                       for name in NETWORK_COLUMNS)
    # Likewise each protocol's own columns: only in its own rows.
    for columns in entry.columns:
        metrics.update(columns(stats.results))
    return metrics


def _cell_trials(builder, n, f, seeds, conditions, adversary_factory,
                 coin_cache, submitter, **builder_kwargs):
    """The default executor: one trial per seed, submitted before this
    returns; the gather it returns folds them, in seed order, into a
    :class:`TrialStats`.  No trial keeps a transcript (a row reads
    scalars), and the builder decides if the shared lottery applies."""
    if coin_cache is not None and "coin_cache" in named_parameters(builder):
        builder_kwargs["coin_cache"] = coin_cache
    return partial(gather_trials, submit_trials(
        submitter, builder, f, seeds, n=n, adversary_factory=adversary_factory,
        conditions=conditions, transcript_retention=TRANSCRIPT_METRICS_ONLY,
        **builder_kwargs))


def _cell_per_seed(builder, n, f, seeds, conditions, adversary_factory,
                   coin_cache, **builder_kwargs):
    """Sequential per-seed runner that keeps the adversary objects.

    Used when the table needs adversary-side statistics (forged ACK
    counts, corruption schedules) that :class:`TrialStats` does not
    carry; always sequential so the adversary objects stay in-process.
    """
    adversaries: List[Any] = []

    def recording_factory(instance):
        adversaries.append(adversary_factory(instance)
                           if adversary_factory is not None else None)
        return adversaries[-1]

    stats = _cell_trials(builder, n, f, seeds, conditions, recording_factory,
                         coin_cache, InlineSubmitter(), **builder_kwargs)()
    return list(zip(stats.results, adversaries)), stats


def _cell_committee_census(n, f, seeds, params, topic=("Vote", 1, 1),
                           threshold=None):
    """Monte-Carlo committee statistics (Lemmas 10–11).

    Samples the eligibility lottery itself — no protocol execution — one
    fresh :class:`FMineEligibility` per seed, recording the committee
    size and its corrupt membership for ``topic``.
    """
    topic = tuple(topic)
    schedule = DifficultySchedule.for_parameters(params, n)
    if threshold is None:
        threshold = (params.lam + 1) // 2
    # One (committee size, corrupt members) per seed.
    samples: List[Tuple[int, int]] = []
    for seed in seeds:
        # Deliberately no coin_cache: every census sample has a unique
        # seed, so the sweep-wide cache could never hit — it would only
        # accumulate n × samples dead entries.  Within one sample the
        # per-instance FMine memo already deduplicates.
        source = FMineEligibility(n, schedule, seed=seed)
        eligible = [node for node in range(n)
                    if source.capability_for(node).try_mine(topic) is not None]
        corrupt = sum(1 for node in eligible if node < f)
        samples.append((len(eligible), corrupt))

    def sample_mean(values: List[int]) -> float:
        return mean(values) if values else 0.0

    return samples, {
        "samples": len(samples),
        "mean_committee_size": sample_mean([size for size, _ in samples]),
        "corrupt_quorum_rate": sample_mean(
            [corrupt >= threshold for _, corrupt in samples]),
        "honest_miss_rate": sample_mean(
            [size - corrupt < threshold for size, corrupt in samples]),
        "threshold": threshold,
    }


#: How a cell runs: a function, called with the arguments its signature
#: names — the cell's own bindings plus :data:`_OFFERS` — which is all
#: its contract (:func:`_bind_cell`).  It returns its payload, a
#: :class:`TrialStats` or a report dataclass, or a ``(payload,
#: measured)`` pair when the row's metrics come from something else; one
#: that names ``submitter`` returns the gather that does.
EXECUTORS: Dict[str, Callable[..., Any]] = {
    "trials": _cell_trials,
    "per-seed": _cell_per_seed,
    "theorem4": run_theorem4_attack,
    "theorem4-census": run_theorem4_census,
    "dolev-reischuk": run_dolev_reischuk_attack,
    "hypothetical": run_hypothetical_experiment,
    "committee-census": _cell_committee_census,
}

#: What a cell offers its executor beyond its own bindings, under the
#: name the executor's signature asks for it by.
_OFFERS: Dict[str, Callable[[Cell, Any, Any], Any]] = {
    "builder": lambda cell, *_: PROTOCOLS[cell.protocol].builder,
    "f": lambda cell, *_: cell.f,
    "seed": lambda cell, *_: cell.seeds[0],
    "seeds": lambda cell, *_: cell.seeds,
    "conditions": lambda cell, *_: cell.network,
    "adversary_factory": lambda cell, *_: cell.adversary and (
        AdversaryFactorySpec(cell.adversary, cell.adversary_kwargs)),
    "coin_cache": lambda cell, coin_cache, _: coin_cache,
    "submitter": lambda cell, _, submitter: submitter,
}


def _start(cell: Cell, coin_cache: Optional[SharedLotteryCache],
           submitter) -> Callable[[], Any]:
    """Begin ``cell``: the zero-argument call that finishes it.  An
    executor that names ``submitter`` is called now (its trials are in
    flight) and hands back its gather; any other runs in that call."""
    call = EXECUTORS[cell.executor]
    names = named_parameters(call)
    arguments = dict(cell.kwargs)
    arguments.update((name, offer(cell, coin_cache, submitter))
                     for name, offer in _OFFERS.items() if name in names)
    run = partial(call, **arguments)
    return run() if "submitter" in names else run


# ---------------------------------------------------------------------------
# Results and artifacts.
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """One executed cell: the raw payload plus its flat metrics row.

    ``payload`` keeps the executor's native result (a
    :class:`TrialStats`, an attack report, per-seed records) so table
    code can reach per-trial data; ``metrics`` holds only scalars and is
    what artifacts serialize.  A cell replayed from an experiment store
    has no payload (``cached=True``) and refuses payload access: store
    records keep metrics only, so it fails loudly — as a computed
    cell's trials, which keep no transcript, refuse replay and invariant
    checks — instead of handing back fabricated data.
    """

    cell: Cell
    payload: Any
    metrics: Dict[str, Any]
    #: Store fingerprint of the cell, when a store was consulted.
    fingerprint: Optional[str] = None
    #: Whether the metrics were replayed from a store rather than
    #: computed by this invocation.
    cached: bool = False

    @property
    def stats(self) -> TrialStats:
        if self.cached:
            raise TypeError(
                f"cell {self.cell.label()!r} was replayed from the "
                f"experiment store (fingerprint "
                f"{self.fingerprint[:12]}); stored records keep "
                "metrics only — re-run without the store, or bump the "
                "store salt, for TrialStats; no sweep cell keeps "
                "transcripts: run_trials(...), run_instance(...) and "
                "`repro run` do, by default")
        if not isinstance(self.payload, TrialStats):
            raise TypeError(
                f"cell {self.cell.label()!r} ran executor "
                f"{self.cell.executor!r}, which has no TrialStats payload")
        return self.payload

    def row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "scenario": self.cell.scenario,
            "protocol": self.cell.protocol,
            "executor": self.cell.executor,
        }
        for key, value in self.cell.bindings:
            if _is_scalar(value):
                row[key] = value
        row["seeds"] = len(self.cell.seeds)
        for key, value in self.metrics.items():
            if _is_scalar(value):
                row[key] = value
        return row


def sweep_json_text(name: str, rows: List[Dict[str, Any]],
                    lottery: Optional[Dict[str, Any]] = None) -> str:
    """The canonical JSON artifact text for one sweep's rows.

    Single-sourced so every producer — :meth:`SweepResult.to_json` after
    a live run, and the experiment service serving the same sweep out of
    a store — emits byte-identical artifacts for the same rows.
    """
    payload = {"sweep": name, "rows": rows, "lottery": lottery}
    return indented_json(payload, sort_keys=True) + "\n"


def sweep_csv_text(rows: List[Dict[str, Any]]) -> str:
    """The canonical CSV artifact text for one sweep's rows (column
    order via :func:`union_columns`, shared with the table renderers)."""
    columns = union_columns(rows)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass
class SweepResult:
    """All cells of one sweep, with table rendering and artifact export."""

    name: str
    cells: List[CellResult]
    lottery: Optional[Dict[str, Any]] = None
    #: Replay/compute accounting when a store or shard was in play:
    #: ``{"replayed": R, "computed": C, "skipped": S, "salt": ...,
    #: "shard": "K/M" | None}``.  Not serialized into artifacts (a warm
    #: replay must emit byte-identical CSV/JSON).
    store_stats: Optional[Dict[str, Any]] = None

    def rows(self) -> List[Dict[str, Any]]:
        """Flat, JSON-safe rows — one per cell, deterministic order."""
        return [cell.row() for cell in self.cells]

    def scenario(self, name: str) -> List[CellResult]:
        """The executed cells of one scenario, in grid order."""
        return [cell for cell in self.cells if cell.cell.scenario == name]

    def to_table(self, title: Optional[str] = None) -> Table:
        """Render the rows as an aligned table (union of row columns)."""
        return rows_to_table(title or f"sweep {self.name}", self.rows())

    def to_json(self, path) -> Path:
        path = Path(path)
        path.write_text(sweep_json_text(self.name, self.rows(),
                                        self.lottery))
        return path

    def to_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="") as handle:
            handle.write(sweep_csv_text(self.rows()))
        return path

    @staticmethod
    def load_rows(path) -> List[Dict[str, Any]]:
        """Rows back out of a :meth:`to_json` artifact (round-trip)."""
        payload = json.loads(Path(path).read_text())
        return payload["rows"]


_SWEEP_IDS = itertools.count()


def _replay(cell: Cell, store, share_lottery: bool = True,
            ) -> Tuple[Optional[str], Optional[CellResult]]:
    """The cell's one store lookup: its fingerprint (None without a
    store) and its replayed result (None when not recorded)."""
    if store is None:
        return None, None
    fingerprint = store.fingerprint(cell, share_lottery=share_lottery)
    record = store.load_record(fingerprint)
    # Replay: the stored metrics dict round-trips JSON exactly (scalars
    # only, insertion order kept), so rows/tables/artifacts are
    # byte-identical to the recorded fresh execution.  The row is
    # recomposed from the *live* cell, so display metadata (scenario
    # names, binding labels — outside the fingerprint) always tracks
    # the current spec.
    return fingerprint, None if record is None else CellResult(
        cell=cell, payload=None, metrics=dict(record["metrics"]),
        fingerprint=fingerprint, cached=True)


def _settle(cell: Cell, fingerprint: Optional[str],
            finish: Callable[[], Any], store, sweep_name: str,
            share_lottery: bool) -> CellResult:
    """The cell's result from what its started executor's ``finish``
    returns (a trial aggregate, a report dataclass, a ready dict),
    recorded in ``store`` (when given) before it is returned."""
    returned = finish()
    payload, metrics = (returned if isinstance(returned, tuple)
                        else (returned, returned))
    if isinstance(metrics, TrialStats):
        metrics = _stats_metrics(metrics, PROTOCOLS[cell.protocol])
    elif dataclasses.is_dataclass(metrics):
        metrics = {field.name: getattr(metrics, field.name)
                   for field in dataclasses.fields(metrics)
                   if _is_scalar(getattr(metrics, field.name))}
    result = CellResult(cell, payload, metrics, fingerprint=fingerprint)
    if store is not None:
        store.save_result(fingerprint, sweep_name, result, share_lottery)
    return result


def settle_cells(cells: Sequence[Cell], submitter, store=None,
                 sweep_name: str = "", share_lottery: bool = True,
                 coin_cache: Optional[SharedLotteryCache] = None,
                 shard: Tuple[int, int] = (1, 1)) -> Iterator[tuple]:
    """The one path from a bound cell to its record, for
    :func:`run_sweep`, :func:`execute_or_replay` and a service job.

    Before the first yield: one store lookup per cell (*plan*), then
    each miss in ``shard`` (see :func:`run_sweep`) started on
    ``submitter`` once per fingerprint (*submit*) — scenario names are
    outside it, so a twin replays its first copy's record.  Then, in
    expansion order (*gather*), ``(index, cell, fingerprint, computes,
    settle)``: ``settle()`` computes and records the cell
    (``computes``), returns its replayed result, looks a twin up again,
    or returns None for a miss outside the shard.  What a raising
    ``settle`` means is the caller's policy."""
    def replay_twin(cell: Cell) -> Optional[CellResult]:
        return _replay(cell, store, share_lottery)[1]

    shard_index, shard_count = shard
    plan = [_replay(cell, store, share_lottery) for cell in cells]
    started: Dict[int, Callable[[], Any]] = {}
    claimed = set()
    for index, (cell, (fingerprint, replayed)) in enumerate(
            zip(cells, plan)):
        if (replayed is None and fingerprint not in claimed
                and index % shard_count == shard_index - 1):
            if store is not None:
                claimed.add(fingerprint)
            started[index] = _start(cell, coin_cache, submitter)
    for index, (cell, (fingerprint, replayed)) in enumerate(
            zip(cells, plan)):
        finish = started.pop(index, None)
        if finish is not None:
            settle = partial(_settle, cell, fingerprint, finish, store,
                             sweep_name, share_lottery)
        elif replayed is None and fingerprint in claimed:
            settle = partial(replay_twin, cell)
        else:
            settle = partial(_given, replayed)
        yield index, cell, fingerprint, finish is not None, settle


def _given(result: Optional[CellResult]) -> Optional[CellResult]:
    return result


def cell_event(index: int, cell: Cell, fingerprint: Optional[str],
               result: Optional[CellResult], missing: str,
               **position: int) -> Dict[str, Any]:
    """A settled cell as ``run_sweep``'s ``on_cell`` event (``total=``)
    or a job's log entry (``seq=``); one without a result is ``missing``."""
    status = (missing if result is None
              else "replayed" if result.cached else "computed")
    return dict(position, index=index, status=status,
                scenario=cell.scenario, label=cell.label(),
                fingerprint=fingerprint)


def execute_or_replay(cell: Cell, store=None, sweep_name: str = "",
                      share_lottery: bool = True, workers: int = 1,
                      coin_cache: Optional[SharedLotteryCache] = None,
                      pool=None) -> CellResult:
    """:func:`settle_cells` over one cell, its trials on ``pool`` (or
    ``workers`` processes): the benchmark's one-cell entry point."""
    with trial_submitter(min(workers, len(cell.seeds)), pool) as submitter:
        [(*_, settle)] = settle_cells([cell], submitter, store, sweep_name,
                                      share_lottery, coin_cache)
        return settle()


def run_sweep(sweep: SweepSpec, workers: int = 1,
              share_lottery: bool = True,
              store=None,
              shard: Optional[Tuple[int, int]] = None,
              on_cell: Optional[Callable[[Dict[str, Any]], None]] = None,
              ) -> SweepResult:
    """Expand and execute every cell of ``sweep`` through
    :func:`settle_cells`, settling each as it comes; the first exception
    propagates.  Every missing ``trials`` cell's seeds go to the sweep's
    one submitter (a process pool when ``workers > 1``) before any is
    awaited, and cells settle in expansion order, so rows, records and
    ``on_cell`` events are the same, in the same order, for any worker
    count.  ``share_lottery`` installs a per-sweep
    :class:`SharedLotteryCache`: ideal-world coins are drawn once per
    ``(seed, node, topic)`` across the cells that share them.

    ``store`` (an :class:`~repro.harness.store.ExperimentStore`) makes
    the sweep incremental: recorded cells replay byte-identically (as
    ``cached`` cells without a payload), fresh ones are recorded, and no
    lottery counters are reported (a warm replay draws no coins, and
    its artifacts must equal the cold run's).  ``shard=(k, m)``
    (1-based) computes only cells whose expansion index ``i`` has
    ``i % m == k - 1``; the others replay when recorded and are skipped
    (``store_stats["skipped"]``) when not, so M shards against one store
    union into the full sweep.  ``on_cell`` gets each settled cell's
    :func:`cell_event` (``total``, ``index``, ``status`` — computed,
    replayed or skipped —, ``scenario``, ``label``, ``fingerprint``);
    one that raises aborts the sweep.
    """
    shard_index, shard_count = shard or (1, 1)
    if shard_count < 1 or not 1 <= shard_index <= shard_count:
        raise ConfigurationError(
            f"shard (k, m) needs 1 <= k <= m, got {shard!r}")
    cache: Optional[SharedLotteryCache] = None
    with ExitStack() as stack:
        if share_lottery:
            cache = SharedLotteryCache(
                token=f"sweep-{sweep.name}-{next(_SWEEP_IDS)}")
            stack.callback(release_cache, cache.token)
        # On an exception the later cells' trials are dropped with the
        # submitter, not waited for.
        submitter = stack.enter_context(trial_submitter(workers))
        cells = sweep.expand()
        fingerprints, settled = [], []
        counts = {"replayed": 0, "computed": 0, "skipped": 0}
        for index, cell, fingerprint, _, settle in settle_cells(
                cells, submitter, store, sweep.name, share_lottery, cache,
                (shard_index, shard_count)):
            result = settle()
            # An out-of-shard miss is skipped, never computed here.
            event = cell_event(index, cell, fingerprint, result, "skipped",
                               total=len(cells))
            counts[event["status"]] += 1
            fingerprints.append(fingerprint)
            settled.append(result)
            if on_cell is not None:
                on_cell(event)
        lottery = None
        if cache is not None and store is None:
            # Counters are process-local: with a worker pool the coins
            # are drawn inside the workers, so say so in the artifact
            # rather than persisting misleading zeros.  Store-backed
            # runs omit the counters entirely: a warm replay draws no
            # coins, and its artifacts must be byte-identical to the
            # cold run's.
            lottery = dict(cache.stats())
            lottery["scope"] = ("main-process counters only; coins were "
                                "drawn in worker processes"
                                if workers > 1 else "main process")
        store_stats = None
        if store is not None or shard is not None:
            store_stats = dict(
                counts, salt=store.salt if store is not None else None,
                shard=shard and f"{shard_index}/{shard_count}")
        if store is not None:
            # The record lists the *full* expansion (including any
            # shard-skipped cells, as row-less holes) so concurrent
            # shards write equivalent records and the book sections the
            # whole sweep once the cell records exist.
            store.record_sweep(
                sweep.name, sweep.description, fingerprints,
                complete=(counts["skipped"] == 0),
                rows=[result and result.row() for result in settled])
        return SweepResult(
            name=sweep.name, cells=[result for result in settled if result],
            lottery=lottery, store_stats=store_stats)

"""Partial-synchrony network conditions: delays, drops, partitions, GST.

The paper's protocols are stated for lock-step synchrony (every message
staged in round ``r`` arrives at the beginning of round ``r + 1``).  Their
practical interest, though, is how communication and round counts behave
when delivery is delayed, lossy, or partitioned — the partial-synchrony
regime of Dwork–Lynch–Stockmeyer that follow-up work (Momose–Ren's
"Optimal Communication Complexity of Byzantine Agreement, Revisited",
Cohen–Keidar–Spiegelman's "Make Every Word Count") targets directly.

This module makes that regime a declarative, picklable value:

- :class:`NetworkConditions` describes one network environment: the
  bounded-delay parameter ``Δ``, a global stabilization time (GST),
  a per-copy latency distribution, pre-GST drop/duplication rates,
  scheduled :class:`Partition` windows, and an optional per-link
  :class:`LinkTopology` (clustered / star / ring / explicit matrix)
  consulted per ``(sender, receiver)`` pair.
- :class:`ConditionedNetwork` realises those conditions on top of the
  :class:`~repro.sim.network.SynchronousNetwork` staging/suppression
  contract, scheduling each message *copy* for a future delivery round
  with coins drawn deterministically from the trial seed.
- :class:`NetworkStats` accounts the new axis: effective per-copy
  delivery latency, peak messages-in-flight, drops, duplicates,
  partition deferrals, and adversarial delays.

Semantics (see ``docs/NETWORK.md`` for the full model):

- Time is measured in *network rounds*.  Under conditions with ``Δ > 1``
  the engine runs a synchronizer: honest nodes take one protocol step
  every ``Δ`` network rounds, so every copy delayed at most ``Δ`` rounds
  arrives before the step that needs it — the classical clock-dilation
  argument for running a lock-step protocol under bounded delay.
- A copy sent at network round ``s ≥ gst`` is delivered at some round in
  ``(s, s + Δ]``: the latency draw (and any adversarial delay) is clamped
  to ``Δ``.  Copies sent before GST may be delayed up to ``pre_gst_cap``
  rounds, dropped, or duplicated.
- A :class:`Partition` defers copies that would cross it (in either
  direction) to its heal round; partitions model outages, so a crossing
  copy may exceed the ``Δ`` bound.  Conditions used by the Δ-bounded
  property tests therefore schedule no partitions.
- The default conditions, :meth:`NetworkConditions.perfect`, are exactly
  the lock-step model; the engine detects them and keeps using the plain
  :class:`SynchronousNetwork` fast path, byte-identical to before.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress
from operator import add, lt
from typing import (
    AbstractSet, Any, Dict, Iterator, List, Mapping, NoReturn, Optional,
    Sequence, Tuple)

from repro.errors import ConfigurationError, SimulationError
from repro.rng import Seed, derive_rng
from repro.sim.network import Delivery, Envelope, SynchronousNetwork
from repro.types import Audience, NodeId, Round

#: Supported latency-distribution spec heads (first element of the
#: ``latency`` tuple).  Specs are plain tuples so conditions stay
#: hashable and picklable (worker processes receive them by pickle).
LATENCY_SPECS = ("fixed", "uniform", "geometric")

#: Supported :class:`LinkTopology` kinds.
TOPOLOGY_KINDS = ("uniform", "clustered", "star", "ring", "matrix")


@dataclass(frozen=True)
class LinkTopology:
    """Per-link latency shaping: a deterministic extra delay per
    ``(sender, receiver)`` pair (hashable, picklable).

    The per-copy base latency draw models *jitter*; the topology models
    *where the slow links are*.  :class:`ConditionedNetwork` consults the
    topology once per pair — the same pair always pays the same surcharge
    — before the Δ clamp, so a topology shapes latency **within** the
    Δ bound rather than extending it.

    Kinds (use the classmethod constructors):

    ``uniform``
        No shaping; every link is identical (the implicit default).
    ``clustered``
        Nodes split into ``clusters`` contiguous blocks (datacenter
        pods); cross-cluster copies pay ``extra`` rounds.
    ``star``
        Links touching the ``hub`` node are fast; spoke-to-spoke copies
        pay ``extra`` rounds (hub-and-spoke routing).
    ``ring``
        Copies pay ``extra`` rounds per ring hop beyond the first, for
        the shorter direction around the ring.
    ``matrix``
        An explicit ``n × n`` surcharge matrix (rows = senders); the
        only n-dependent kind, validated against the network size.
    """

    kind: str
    clusters: int = 2
    extra: int = 1
    hub: NodeId = 0
    matrix: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r} "
                f"(have {TOPOLOGY_KINDS})")
        if self.kind == "clustered" and self.clusters < 2:
            raise ConfigurationError(
                f"clustered topology needs >= 2 clusters, "
                f"got {self.clusters}")
        if self.kind != "matrix" and self.extra < 0:
            raise ConfigurationError(
                f"topology extra delay must be >= 0, got {self.extra}")
        if self.kind == "matrix":
            if not self.matrix:
                raise ConfigurationError("matrix topology needs a matrix")
            for row in self.matrix:
                if len(row) != len(self.matrix):
                    raise ConfigurationError(
                        "topology matrix must be square")
                if any(not isinstance(cell, int) or cell < 0 for cell in row):
                    raise ConfigurationError(
                        "topology matrix entries must be ints >= 0")

    # -- constructors --------------------------------------------------------
    @classmethod
    def uniform(cls) -> "LinkTopology":
        return cls(kind="uniform", extra=0)

    @classmethod
    def clustered(cls, clusters: int = 4, extra: int = 2) -> "LinkTopology":
        return cls(kind="clustered", clusters=clusters, extra=extra)

    @classmethod
    def star(cls, hub: NodeId = 0, extra: int = 2) -> "LinkTopology":
        return cls(kind="star", hub=hub, extra=extra)

    @classmethod
    def ring(cls, extra: int = 1) -> "LinkTopology":
        return cls(kind="ring", extra=extra)

    @classmethod
    def from_matrix(cls, rows) -> "LinkTopology":
        return cls(kind="matrix",
                   matrix=tuple(tuple(row) for row in rows))

    # -- predicates ----------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        """True iff no link ever pays a surcharge (so conditions carrying
        this topology can still normalize to the lock-step fast path)."""
        if self.kind == "matrix":
            return all(cell == 0 for row in self.matrix for cell in row)
        return self.kind == "uniform" or self.extra == 0

    def check_n(self, n: int) -> None:
        """Validate the topology against a concrete network size."""
        if self.kind == "matrix" and len(self.matrix) != n:
            raise ConfigurationError(
                f"matrix topology is {len(self.matrix)}x"
                f"{len(self.matrix)} but the network has {n} nodes")
        if self.kind == "star" and not 0 <= self.hub < n:
            raise ConfigurationError(
                f"star hub {self.hub} out of range for n={n}")

    def link_extra(self, sender: NodeId, receiver: NodeId, n: int) -> int:
        """The deterministic surcharge for one directed link."""
        if self.kind == "uniform":
            return 0
        if self.kind == "clustered":
            if sender * self.clusters // n == receiver * self.clusters // n:
                return 0
            return self.extra
        if self.kind == "star":
            if sender == self.hub or receiver == self.hub:
                return 0
            return self.extra
        if self.kind == "ring":
            distance = min((sender - receiver) % n, (receiver - sender) % n)
            return self.extra * max(0, distance - 1)
        return self.matrix[sender][receiver]

    def describe(self) -> str:
        """A short scalar label for tables and artifact rows."""
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "clustered":
            return f"clustered({self.clusters},+{self.extra})"
        if self.kind == "star":
            return f"star(hub={self.hub},+{self.extra})"
        if self.kind == "ring":
            return f"ring(+{self.extra}/hop)"
        return f"matrix({len(self.matrix)}x{len(self.matrix)})"


#: Named, n-independent topology presets usable as ``topology`` bindings
#: in scenario sweeps and as ``--topology`` CLI values (the ``matrix``
#: kind is inline-only: it pins n).
TOPOLOGIES: Dict[str, LinkTopology] = {
    "uniform": LinkTopology.uniform(),
    # Four datacenter pods; crossing a pod boundary costs two rounds.
    "clustered": LinkTopology.clustered(clusters=4, extra=2),
    # Hub-and-spoke: node 0 is the well-connected relay.
    "star": LinkTopology.star(hub=0, extra=2),
    # A ring where each extra hop around the shorter arc costs a round.
    "ring": LinkTopology.ring(extra=1),
}


@dataclass(frozen=True)
class Partition:
    """A scheduled network split over ``[start, end)`` network rounds.

    Either ``split`` (a fraction: nodes ``< split * n`` form one side,
    the rest the other — size-independent, usable across a sweep's
    ``n`` axis) or explicit ``groups`` (blocks of node ids; unlisted
    nodes form one implicit extra block) must be given, not both.
    Copies crossing the partition while it is active are deferred to
    the heal round ``end`` rather than dropped.
    """

    start: Round
    end: Round
    split: Optional[float] = None
    groups: Tuple[Tuple[NodeId, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"partition must heal after it starts "
                f"(start={self.start}, end={self.end})")
        if (self.split is None) == (not self.groups):
            raise ConfigurationError(
                "partition needs exactly one of split= or groups=")
        if self.split is not None and not 0.0 < self.split < 1.0:
            raise ConfigurationError(
                f"partition split must be in (0, 1), got {self.split}")

    def active_at(self, round_index: Round) -> bool:
        return self.start <= round_index < self.end

    def _block_of(self, node: NodeId, n: int) -> int:
        if self.split is not None:
            return 0 if node < self.split * n else 1
        for index, block in enumerate(self.groups):
            if node in block:
                return index
        return len(self.groups)

    def separates(self, sender: NodeId, recipient: NodeId, n: int) -> bool:
        return self._block_of(sender, n) != self._block_of(recipient, n)


@dataclass(frozen=True)
class NetworkConditions:
    """One declarative network environment (hashable, picklable).

    ``delta``
        The bounded-delay parameter Δ (in network rounds).  Post-GST
        every copy is delivered within Δ rounds of sending, and the
        engine dilates protocol rounds by Δ so lock-step protocols stay
        correct under any Δ-bounded schedule.
    ``gst``
        Global stabilization time (network round).  ``0`` means the
        network is Δ-bounded from the start; before GST copies may be
        dropped (``drop_rate``), duplicated (``duplicate_rate``), or
        delayed up to ``pre_gst_cap`` rounds.
    ``latency``
        Per-copy base delay distribution, as a spec tuple:
        ``("fixed", k)``, ``("uniform", lo, hi)``, or
        ``("geometric", p)`` (support ``{1, 2, ...}``, mean ``1/p``).
        Draws are clamped to ``[1, Δ]`` post-GST.
    ``partitions``
        Scheduled :class:`Partition` windows; crossing copies defer to
        the heal round (outages trump the Δ bound — see module docs).
    """

    delta: int = 1
    gst: Round = 0
    latency: Tuple[Any, ...] = ("fixed", 1)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    partitions: Tuple[Partition, ...] = ()
    #: Hard cap on any pre-GST delay (default ``3 * delta``): keeps
    #: asynchronous periods finite so executions always make progress.
    pre_gst_cap: Optional[int] = None
    #: Per-link latency shaping (None = every link identical); the
    #: surcharge is applied before the Δ clamp, so a topology shapes
    #: latency within the bound rather than extending it.
    topology: Optional[LinkTopology] = None

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {self.delta}")
        if self.gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {self.gst}")
        for rate, label in ((self.drop_rate, "drop_rate"),
                            (self.duplicate_rate, "duplicate_rate")):
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"{label} must be in [0, 1), got {rate}")
            if rate and self.gst == 0:
                # Drops/duplication only exist before GST; accepting the
                # combination would silently measure a lossless network.
                raise ConfigurationError(
                    f"{label}={rate} has no effect with gst=0 (losses "
                    "are pre-GST only); set gst > 0 for a lossy prelude")
        self._validate_latency()
        if not isinstance(self.partitions, tuple):
            raise ConfigurationError("partitions must be a tuple")
        if self.pre_gst_cap is not None and self.pre_gst_cap < 1:
            raise ConfigurationError(
                f"pre_gst_cap must be >= 1, got {self.pre_gst_cap}")
        if self.topology is not None and not isinstance(
                self.topology, LinkTopology):
            raise ConfigurationError(
                f"topology must be a LinkTopology, got {self.topology!r}")
        if (self.topology is not None and not self.topology.is_trivial
                and self.delta == 1):
            # Every surcharge would be clamped straight back to Δ = 1;
            # accepting the combination would silently measure a uniform
            # network.
            raise ConfigurationError(
                f"topology {self.topology.describe()} has no effect with "
                "delta=1 (link surcharges are clamped to Δ); use delta > 1")

    def _validate_latency(self) -> None:
        """Full spec validation (head, arity, parameter ranges) so a
        malformed spec fails at construction, not mid-sweep in a worker."""
        spec = self.latency
        if (not isinstance(spec, tuple) or not spec
                or spec[0] not in LATENCY_SPECS):
            raise ConfigurationError(
                f"latency spec must be a tuple headed by one of "
                f"{LATENCY_SPECS}, got {spec!r}")
        head, args = spec[0], spec[1:]
        if head == "fixed":
            if len(args) != 1 or not isinstance(args[0], int) or args[0] < 1:
                raise ConfigurationError(
                    f'("fixed", k) needs one int k >= 1, got {spec!r}')
        elif head == "uniform":
            if (len(args) != 2
                    or not all(isinstance(arg, int) for arg in args)
                    or not 1 <= args[0] <= args[1]):
                raise ConfigurationError(
                    f'("uniform", lo, hi) needs ints 1 <= lo <= hi, '
                    f"got {spec!r}")
        else:  # geometric
            if (len(args) != 1 or not isinstance(args[0], (int, float))
                    or not 0.0 < args[0] <= 1.0):
                raise ConfigurationError(
                    f'("geometric", p) needs 0 < p <= 1, got {spec!r}')

    # -- constructors --------------------------------------------------------
    @classmethod
    def perfect(cls) -> "NetworkConditions":
        """Lock-step synchrony: the model everything else defaults to."""
        return cls()

    @classmethod
    def uniform(cls, delta: int, gst: Round = 0,
                **kwargs: Any) -> "NetworkConditions":
        """Δ-bounded delivery with uniform per-copy latency in [1, Δ]."""
        return cls(delta=delta, gst=gst, latency=("uniform", 1, delta),
                   **kwargs)

    # -- predicates ----------------------------------------------------------
    @property
    def is_perfect(self) -> bool:
        """True iff these conditions are exactly the lock-step model (so
        the engine can keep the unconditioned fast path)."""
        return (self.delta == 1 and self.gst == 0
                and self.latency == ("fixed", 1)
                and self.drop_rate == 0.0 and self.duplicate_rate == 0.0
                and not self.partitions
                and (self.topology is None or self.topology.is_trivial))

    @property
    def effective_pre_gst_cap(self) -> int:
        return self.pre_gst_cap if self.pre_gst_cap is not None \
            else 3 * self.delta

    @property
    def trusted_send_round(self) -> Round:
        """First *protocol* round whose sends are guaranteed to reach
        every honest node before its next step.

        A copy sent at protocol round ``p`` leaves at network round
        ``p · Δ``; once that is at or past GST (and past every scheduled
        partition's heal) the Δ clamp delivers it within the dilation
        window, so a lock-step tally at round ``p + 1`` sees the *whole*
        round-``p`` message complement.  GST-aware early-stopping
        protocols (``docs/PROTOCOLS.md``) gate their unanimity detectors
        on this round: an apparently unanimous round observed earlier may
        be an artifact of pre-GST drops or an unhealed partition, and
        acting on it is unsound."""
        stable_from = self.gst
        for partition in self.partitions:
            stable_from = max(stable_from, partition.end)
        if stable_from <= 0:
            return 0
        return -(-stable_from // self.delta)  # ceil division

    def describe(self) -> str:
        """A short scalar label for tables and artifact rows."""
        parts = [f"Δ={self.delta}"]
        if self.gst:
            parts.append(f"gst={self.gst}")
        if self.pre_gst_cap is not None:
            parts.append(f"cap={self.pre_gst_cap}")
        # The latency goes unsaid only where it is the default for this Δ:
        # lock-step at Δ = 1, :meth:`uniform`'s ``[1, Δ]`` above it.
        if self.latency != (("fixed", 1) if self.delta == 1
                            else ("uniform", 1, self.delta)):
            parts.append("latency=" + ",".join(str(x) for x in self.latency))
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate}")
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.topology is not None and not self.topology.is_trivial:
            parts.append(f"topology={self.topology.describe()}")
        return " ".join(parts)


#: Named, n-independent condition presets usable as ``network`` bindings
#: in scenario sweeps and as ``--network`` CLI values.  Rounds in the
#: presets are *network* rounds (protocol round p starts at p·Δ).
NETWORKS: Dict[str, NetworkConditions] = {
    "perfect": NetworkConditions.perfect(),
    # A fast, mildly jittery datacenter link: Δ-bounded from round 0.
    "lan": NetworkConditions.uniform(delta=2),
    # Wide-area jitter: delays up to 4 network rounds, stable from start.
    "wan": NetworkConditions.uniform(delta=4),
    # An asynchronous prelude: until GST the network drops a tenth of all
    # copies and duplicates some, then stabilizes to Δ = 3.
    "lossy": NetworkConditions(
        delta=3, gst=9, latency=("uniform", 1, 3),
        drop_rate=0.10, duplicate_rate=0.05),
    # A clean half/half split that heals: rounds 2..10 cross-partition
    # copies queue up and flood in at the heal.
    "split-heal": NetworkConditions(
        delta=2, latency=("uniform", 1, 2),
        partitions=(Partition(start=2, end=10, split=0.5),)),
}


@dataclass
class NetworkStats:
    """Aggregate accounting of one conditioned execution's network axis."""

    delivered_copies: int = 0
    dropped_copies: int = 0
    duplicated_copies: int = 0
    deferred_copies: int = 0
    adversary_delayed_copies: int = 0
    #: Sum over delivered copies of (delivery round - send round).
    latency_total: int = 0
    #: Peak number of scheduled-but-undelivered copies (folded across
    #: executions by its peak, every other field by its sum).
    max_in_flight: int = field(default=0, metadata={"fold": max})
    #: Network rounds the conditioned engine executed.
    network_rounds: int = 0
    #: Idle network ticks: rounds in which the network neither drained a
    #: staging window nor popped a due event.  The event engine skips
    #: them outright; the lock-step synchronizer executes them as no-ops
    #: and counts the same rounds — so the field is engine-invariant and
    #: the conformance suite compares it directly.  Its ratio to
    #: ``network_rounds`` is the empty-round density the event engine's
    #: wall-clock win is proportional to.
    skipped_ticks: int = 0
    #: Delivery-queue events processed: one per copy entering the
    #: calendar queue (initial schedules, pre-GST duplicates, and
    #: partition re-queues at heal time).  Engine-invariant for the
    #: same reason as ``skipped_ticks``.
    events_processed: int = 0

    @property
    def mean_delivery_latency(self) -> float:
        """Effective round latency: mean copy delay in network rounds."""
        if not self.delivered_copies:
            return 0.0
        return self.latency_total / self.delivered_copies

    def accumulate(self, other: "NetworkStats") -> None:
        """Fold another execution's stats into this aggregate, each field
        by its ``fold`` (the sum unless it declares another) — used by
        :class:`~repro.harness.runner.TrialStats` so multi-trial network
        aggregation reuses these fields instead of mirroring them."""
        for stat in fields(self):
            fold = stat.metadata.get("fold", add)
            setattr(self, stat.name,
                    fold(getattr(self, stat.name), getattr(other, stat.name)))


@lru_cache(maxsize=64)
def _byte_draw_table(low: int, width: int, cap: int) -> Tuple[bytes, bytes]:
    """The ``translate`` table and deletions mapping a word's top byte to
    ``min(draw + low, cap)`` or rejecting it."""
    shift = 8 - width.bit_length()
    return (bytes(min((top >> shift) + low, cap) for top in range(256)),
            bytes(top for top in range(256) if top >> shift >= width))


def draw_uniform_batch(getrandbits, count: int, low: int, width: int,
                       cap: int) -> bytearray:
    """``count`` draws of ``min(randint(low, low + width - 1), cap)``
    (``width, cap <= 255``): the values that many calls return, leaving the
    generator where they leave it, with one call per rejection round.

    ``randint`` calls ``getrandbits(b)``, ``b = width.bit_length()``, until
    the value is below ``width``, and in CPython that is the next 32-bit
    output's top ``b`` bits, while ``getrandbits(32 * m)`` is the next
    ``m`` outputs, the first lowest.  So byte ``4i + 3`` of its
    little-endian bytes, shifted right by ``8 - b``, is the ``i``-th draw.
    Each word yields at most one value, so asking for as many words as
    values are missing never reads past the last one; below 8 missing a
    round costs more than single draws.
    """
    draws = bytearray()
    if count >= 8:
        table, rejected = _byte_draw_table(low, width, cap)
        while count - len(draws) >= 8:
            missing = count - len(draws)
            words = getrandbits(32 * missing).to_bytes(4 * missing, "little")
            draws += words[3::4].translate(table, rejected)
    bits = width.bit_length()
    while len(draws) < count:
        draw = getrandbits(bits)
        if draw < width:
            draws.append(min(draw + low, cap))
    return draws


def _clamped_sums(delays, extras, cap: int) -> List[int]:
    # min(delay + extra, cap), without the builtin min's call cost.
    return [delay if delay < cap else cap
            for delay in map(add, delays, extras)]


class ConditionedNetwork(SynchronousNetwork):
    """Delay/drop/duplicate/partition semantics over the staging contract.

    Keeps the base class's staging and suppression behavior
    (so adversary code and the engine's rushing window are unchanged) and
    replaces same-round delivery with a per-copy schedule: each copy gets
    a delivery round drawn deterministically from the trial seed, subject
    to the GST/Δ clamps, pre-GST drops and duplication, scheduled
    partitions, and any adversarial delays registered this round.

    Scheduled copies live in a **calendar queue**: a heap of the
    *distinct* due rounds and, per due round, a bucket of window groups
    ``[sent_round, {recipient: [deliveries]}, count]``, one per staging
    window or partition re-queue that fed it.  Groups are read front to
    back, so each recipient gets its copies in the order a per-copy heap
    keyed ``(due_round, insertion counter)`` pops them (staging order,
    then re-queues); only the cross-recipient interleaving, which nothing
    observes, differs.  That keeps the event engine result-identical to
    the per-copy heap of the reference executor (``tests/reference.py``,
    with the Δ-lockstep synchronizer).  The heap is touched once per
    distinct due round, and its head (:meth:`next_due_round`) lets
    :meth:`steps` skip idle ticks.  A staging window drains in one call
    (:meth:`_schedule_window`): one pass lists its copies, one of two
    sources draws their delays (a lossless uniform window's in one batch,
    any other's copy by copy), and one loop files them.

    A copy is **inert** when its recipient is not among the readers
    ``audience(payload)`` returns (a row by node id, read from the
    nodes' live state) nor in ``corrupt`` (the live corrupt set) when
    the window drains: no honest recipient acts on it then, and, the
    readers shrinking monotonically, none at delivery either.  It draws
    its coins like any copy and counts in its group's ``count`` (so in
    every :class:`NetworkStats` field), but is never filed or
    delivered; a group may thus hold no copy at all.  Under partitions
    every copy is filed (:meth:`_defer_blocked` re-queues by recipient).
    """

    def __init__(self, n: int, conditions: NetworkConditions,
                 seed: Seed = 0, audience: Optional[Audience] = None,
                 corrupt: AbstractSet[NodeId] = frozenset()) -> None:
        super().__init__(n)
        self._audience = audience
        self._corrupt = corrupt
        if conditions.topology is not None:
            conditions.topology.check_n(n)
        self.conditions = conditions
        self.stats = NetworkStats()
        self._rng = derive_rng(seed, "network-conditions")
        #: The calendar: due round -> its window groups, in scheduling
        #: order (see the class docstring).  Buckets are never empty.
        self._buckets: Dict[Round, List[list]] = {}
        #: Min-heap of the calendar's keys (each due round pushed once).
        self._due_rounds: List[Round] = []
        self._in_flight = 0
        #: Extra rounds requested by the adversary for in-flight copies,
        #: keyed by (envelope_id, recipient) — recipient None = all.
        self._extra_delay: Dict[Tuple[int, Optional[NodeId]], int] = {}
        #: Surcharge rows by sender, filled as senders send (None when no
        #: link is charged).
        topology = conditions.topology
        self._link_rows: Optional[Dict[NodeId, List[int]]] = (
            None if topology is None or topology.is_trivial else {})

    # -- the adversarial scheduler hook -------------------------------------
    def delay(self, envelope: Envelope, recipient: Optional[NodeId] = None,
              rounds: int = 1) -> None:
        """Register extra delay for an in-flight copy (cumulative).

        Same window as :meth:`suppress`: only messages staged this round
        can be touched.  The extra delay is applied when the copy is
        scheduled; post-GST the total is still clamped to Δ, so the
        adversary can push a copy to the Δ deadline but never past it.
        """
        self._require_in_flight(envelope, "delay")
        if rounds < 1:
            raise SimulationError(f"delay must be >= 1 round, got {rounds}")
        key = (envelope.envelope_id, recipient)
        self._extra_delay[key] = self._extra_delay.get(key, 0) + rounds

    # -- scheduling ----------------------------------------------------------
    def _bucket(self, due_round: Round) -> list:
        bucket = self._buckets.get(due_round)
        if bucket is None:
            bucket = self._buckets[due_round] = []
            heappush(self._due_rounds, due_round)
        return bucket

    def _link_row(self, sender: NodeId) -> List[int]:
        rows = self._link_rows
        if sender not in rows:
            topology, n = self.conditions.topology, self.n
            rows[sender] = [topology.link_extra(sender, receiver, n)
                            for receiver in range(n)]
        return rows[sender]

    def _schedule_window(self, sent_round: Round) -> None:
        """Drain the staging window into the calendar: one group per delay
        drawn, each filed copy under its recipient in staging order.

        One pass lists the window's copies in staging order: recipient,
        delivery, link surcharge, adversarial push, and, from the first
        envelope with a readers row on, whether the copy is filed or
        inert (see the class docstring).  One source then draws their delays
        from the labelled stream: a lossless window whose latencies are
        uniform with a spread and cap that fit a byte takes them in one
        :func:`draw_uniform_batch`, any other copy by copy
        (:meth:`_draw_per_copy`: a lossy window's coins interleave).
        Both read the stream ``randint`` would, bit for bit, and no
        further, inert copies included.  The surcharge lands before the
        clamp and the push after it (``min(min(d, cap) + e, cap) ==
        min(d + e, cap)``), and one loop files the filed copies.
        """
        conditions = self.conditions
        pre_gst = sent_round < conditions.gst
        cap = conditions.effective_pre_gst_cap if pre_gst else conditions.delta
        lossy = pre_gst and bool(conditions.drop_rate
                                 or conditions.duplicate_rate)
        family, low = conditions.latency[:2]
        width = conditions.latency[2] - low + 1 if family == "uniform" else 0
        audience = None if conditions.partitions else self._audience
        extra_delay = self._extra_delay
        corrupt = self._corrupt
        everyone = range(self.n)
        recipients: List[NodeId] = []
        deliveries: List[Delivery] = []
        surcharges = None if self._link_rows is None else []
        pushes = [] if extra_delay else None
        filed: Optional[List[bool]] = None  # from the first reader on
        # id(readers) -> (readers, filed row by node): the row pins its
        # readers, so no id is reused within the window.
        filed_by: Dict[int, Tuple[Sequence[bool], Sequence[bool]]] = {}
        for envelope, delivery, blocked in self._surviving_entries():
            sender, recipient = envelope.sender, envelope.recipient
            if recipient is not None:
                listed = (recipient,)
            else:
                listed = list(everyone)
                del listed[sender]
                if blocked:
                    listed = [node for node in listed if node not in blocked]
            if audience is not None:
                # The nodes the copies can matter to (None: every node);
                # an envelope with a suppressed copy files every copy.
                readers = None if blocked else audience(envelope.payload)
                if readers is not None:
                    if filed is None:  # back-fill: every earlier copy
                        filed = [True] * len(recipients)
                    # An adversary may read any corrupt inbox.
                    entry = filed_by.get(id(readers))
                    if entry is None:
                        entry = filed_by[id(readers)] = (readers, [
                            reads or node in corrupt
                            for node, reads in enumerate(readers)]
                            if corrupt else readers)
                    row = entry[1]
                    if recipient is not None:
                        filed.append(row[recipient])
                    else:
                        filed += row[:sender]
                        filed += row[sender + 1:]
                elif filed is not None:
                    filed += [True] * len(listed)
            recipients += listed
            deliveries += [delivery] * len(listed)
            if surcharges is not None:
                surcharges += map(self._link_row(sender).__getitem__, listed)
            if pushes is not None:
                key = envelope.envelope_id
                push_all = extra_delay.get((key, None), 0)
                pushes += [push_all + extra_delay.get((key, node), 0)
                           for node in listed]
        if width and not lossy and max(width, cap) <= 255:
            delays = draw_uniform_batch(self._rng.getrandbits,
                                        len(recipients), low, width, cap)
        else:
            delays, picks = self._draw_per_copy(len(recipients), cap, lossy,
                                                family, low, width)
            if picks is not None:
                recipients, deliveries, surcharges, pushes, filed = (
                    None if column is None
                    else [column[index] for index in picks]
                    for column in (recipients, deliveries, surcharges,
                                   pushes, filed))
        if surcharges is not None:
            delays = _clamped_sums(delays, surcharges, cap)
        if pushes is not None:
            pushed = _clamped_sums(delays, pushes, cap)
            # Only *effective* delays count: those that moved a copy.
            self.stats.adversary_delayed_copies += sum(
                map(lt, delays, pushed))
            delays = pushed
        copies = zip(recipients, deliveries, delays)
        inert = filed is not None and not all(filed)
        if inert:
            copies = compress(copies, filed)
            # Every copy counts; bytes count faster than a list of ints.
            counted = bytes(delays) if cap <= 255 else delays
        slots: List[Any] = [None] * (cap + 1)  # delay -> {recipient: copies}
        for recipient, delivery, delay in copies:
            slot = slots[delay]
            if slot is None:
                slot = slots[delay] = {}
            slot.setdefault(recipient, []).append(delivery)
        for delay, targets in enumerate(slots):
            count = (counted.count(delay) if inert
                     else sum(map(len, targets.values())) if targets else 0)
            if count:
                self._bucket(sent_round + delay).append(
                    [sent_round, targets or {}, count])
        self._reset_window()
        self._extra_delay = {}
        self._in_flight += len(delays)
        self.stats.events_processed += len(delays)

    def _draw_per_copy(self, listed: int, cap: int, lossy: bool, family: str,
                       low: Any, width: int
                       ) -> Tuple[List[int], Optional[List[int]]]:
        """Each of ``listed`` copies' coins in turn: drop, duplicate, then
        a latency per scheduled copy, clamped to ``cap``; the uniform draw
        is ``Random.randint`` unrolled (``_randbelow``:
        ``getrandbits(width.bit_length())`` until below the width).
        Returns the delays and, for a lossy window, each delay's listed
        copy (none for a dropped copy, twice for a duplicated one)."""
        conditions, stats = self.conditions, self.stats
        drop_rate = conditions.drop_rate if lossy else 0.0
        duplicate_rate = conditions.duplicate_rate if lossy else 0.0
        bits = width.bit_length()
        getrandbits = self._rng.getrandbits
        coin = self._rng.random
        delays: List[int] = []
        picks: Optional[List[int]] = [] if lossy else None
        for index in range(listed):
            copies = 1
            if lossy:
                if drop_rate and coin() < drop_rate:
                    stats.dropped_copies += 1
                    continue
                picks.append(index)
                if duplicate_rate and coin() < duplicate_rate:
                    copies = 2
                    stats.duplicated_copies += 1
                    picks.append(index)
            while copies:
                copies -= 1
                if width:
                    delay = getrandbits(bits)
                    while delay >= width:
                        delay = getrandbits(bits)
                    delay += low
                elif family == "fixed":
                    delay = low
                else:
                    # geometric(p): trials up to the first success
                    # (tail-capped so p close to 0 cannot spin).
                    delay = 1
                    while coin() >= low and delay < 64:
                        delay += 1
                delays.append(delay if delay < cap else cap)
        return delays, picks

    def _defer_blocked(self, bucket: list, round_index: Round) -> list:
        """The groups of a due bucket cut to the copies deliverable now; a
        copy crossing an active partition (the first, in declaration order)
        moves to a new group at the back of that heal round's bucket."""
        active = [partition for partition in self.conditions.partitions
                  if partition.active_at(round_index)]
        if not active:
            return bucket
        n = self.n
        passing = []
        for sent_round, targets, _ in bucket:
            regrouped: Dict[Round, Dict[NodeId, List[Delivery]]] = {}
            for recipient, deliveries in targets.items():
                for delivery in deliveries:
                    due = next((partition.end for partition in active
                                if partition.separates(
                                    delivery.sender, recipient, n)),
                               round_index)
                    regrouped.setdefault(due, {}).setdefault(
                        recipient, []).append(delivery)
            for due, kept in regrouped.items():
                group = [sent_round, kept, sum(map(len, kept.values()))]
                where = passing if due == round_index else self._bucket(due)
                where.append(group)
        requeued = sum(g[2] for g in bucket) - sum(g[2] for g in passing)
        self.stats.deferred_copies += requeued
        self.stats.events_processed += requeued
        return passing

    def next_due_round(self) -> Optional[Round]:
        """The earliest round with a scheduled delivery (``None`` when
        nothing is in flight) — :meth:`steps`'s skip-ahead horizon."""
        return self._due_rounds[0] if self._due_rounds else None

    def advance_to(self, round_index: Round,
                   inboxes: Mapping[NodeId, List[Delivery]]) -> None:
        """Jump the network clock straight to ``round_index`` and execute
        that round: drain the staging window into the calendar, then
        extend ``inboxes[recipient]`` by every due group's list for it
        (partition-blocked copies move to their heal round).

        The skipped ticks are exactly the rounds the Δ-lockstep
        synchronizer would have executed as no-ops — nothing staged,
        nothing due, no coin to draw — so jumping over them leaves the
        RNG stream, the schedule, and every :class:`NetworkStats` field
        identical; ``stats.skipped_ticks`` accounts them just as the
        lock-step path counts its idle rounds.
        """
        jumped = round_index - self._delivered_round - 1
        if jumped < 0:
            raise SimulationError(
                f"network clock cannot move backwards "
                f"(at {self._delivered_round}, asked for {round_index})")
        stats = self.stats
        stats.skipped_ticks += jumped

        worked = bool(self._staged)
        if worked:
            self._schedule_window(max(self._delivered_round, 0))
        self._delivered_round = round_index

        stats.network_rounds = round_index + 1
        if self._in_flight > stats.max_in_flight:
            stats.max_in_flight = self._in_flight

        due_rounds = self._due_rounds
        partitions = self.conditions.partitions
        while due_rounds and due_rounds[0] <= round_index:
            worked = True
            bucket = self._buckets.pop(heappop(due_rounds))
            if partitions:
                bucket = self._defer_blocked(bucket, round_index)
            for sent_round, targets, count in bucket:
                for recipient, deliveries in targets.items():
                    inboxes[recipient].extend(deliveries)
                self._in_flight -= count
                stats.delivered_copies += count
                stats.latency_total += (round_index - sent_round) * count
        if not worked:
            stats.skipped_ticks += 1

    def steps(self, max_rounds: int
              ) -> Iterator[Tuple[Round, Dict[NodeId, List[Delivery]]]]:
        """The event clock: ``(protocol round, inboxes)`` at each of
        ``max_rounds`` protocol steps, one per Δ network rounds.

        The synchronizer argument — a step every Δ network rounds, so
        every Δ-bounded delivery lands before the step that needs it —
        with a clock that visits only ticks with work: the tick after a
        step (its staging window drains into the calendar in staging
        order, so the coin stream is the lock-step one), every tick with
        a due delivery (extending the step's inboxes) and every step
        tick.  The ticks in between are jumped; :meth:`advance_to`
        accounts them in ``stats.skipped_ticks`` as the lock-step loop's
        no-op rounds, so :class:`NetworkStats` is the lock-step one.  A
        consumer that stops early (every honest node halted) never
        resumes this generator; one that takes every step gets the idle
        tail up to the round budget accounted the same way.
        """
        stretch = self.conditions.delta
        limit = max_rounds * stretch
        inboxes = {node: [] for node in range(self.n)}
        network_round = 0
        while network_round < limit:
            self.advance_to(network_round, inboxes)
            if network_round % stretch == 0:
                yield network_round // stretch, inboxes
                inboxes = {node: [] for node in range(self.n)}
            # A non-empty staging window forces the very next tick (its
            # coins are drawn at the clock the synchronizer draws them);
            # otherwise jump to the earlier of the next due delivery and
            # the next step.
            if self._staged:
                network_round += 1
                continue
            upcoming = network_round - network_round % stretch + stretch
            due = self.next_due_round()
            network_round = upcoming if due is None else min(due, upcoming)
        tail = limit - self._delivered_round - 1
        if tail > 0:
            self.stats.skipped_ticks += tail
            self.stats.network_rounds = limit
            self._delivered_round = limit - 1

    def deliver(self) -> NoReturn:
        """Refused: the staging window drains into the calendar, never
        straight into the next round's inboxes (the lock-step turnover
        this class inherits).  Tick with :meth:`advance_to` or
        :meth:`steps`."""
        raise SimulationError(
            "a conditioned network ticks through advance_to() or steps()")

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

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.rng import Seed, derive_rng
from repro.sim.network import Delivery, Envelope, SynchronousNetwork
from repro.types import NodeId, Round

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
        if self.latency != ("fixed", 1) and self.latency != ("uniform", 1,
                                                             self.delta):
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
    #: Peak number of scheduled-but-undelivered copies.
    max_in_flight: int = 0
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
        """Fold another execution's stats into this aggregate (peak for
        ``max_in_flight``, sums elsewhere) — used by
        :class:`~repro.harness.runner.TrialStats` so multi-trial network
        aggregation reuses these fields instead of mirroring them."""
        self.delivered_copies += other.delivered_copies
        self.dropped_copies += other.dropped_copies
        self.duplicated_copies += other.duplicated_copies
        self.deferred_copies += other.deferred_copies
        self.adversary_delayed_copies += other.adversary_delayed_copies
        self.latency_total += other.latency_total
        self.max_in_flight = max(self.max_in_flight, other.max_in_flight)
        self.network_rounds += other.network_rounds
        self.skipped_ticks += other.skipped_ticks
        self.events_processed += other.events_processed


class PendingCopy(NamedTuple):
    """One in-flight copy as :meth:`ConditionedNetwork.pending_copies`
    reports it (the calendar itself stores window groups)."""

    due_round: Round
    sent_round: Round
    recipient: NodeId
    delivery: Delivery


class ConditionedNetwork(SynchronousNetwork):
    """Delay/drop/duplicate/partition semantics over the staging contract.

    Keeps the base class's staging, suppression, and transcript behavior
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
    the Δ-lockstep synchronizer and to the per-copy reference kept in
    ``tests/test_conditioned_schedule_differential.py``.  The heap is
    touched once per distinct due round, and :meth:`next_due_round`
    exposes its head so the event engine can skip idle ticks entirely.
    """

    def __init__(self, n: int, conditions: NetworkConditions,
                 seed: Seed = 0, retain_transcript: bool = True) -> None:
        super().__init__(n, retain_transcript=retain_transcript)
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

    # -- the adversarial scheduler hook -------------------------------------
    def delay(self, envelope: Envelope, recipient: Optional[NodeId] = None,
              rounds: int = 1) -> None:
        """Register extra delay for an in-flight copy (cumulative).

        Same window as :meth:`suppress`: only messages staged this round
        can be touched.  The extra delay is applied when the copy is
        scheduled; post-GST the total is still clamped to Δ, so the
        adversary can push a copy to the Δ deadline but never past it.
        """
        if envelope.envelope_id not in self._staged_ids:
            raise SimulationError(
                "cannot delay a message that is not in flight")
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

    def _schedule_window(self, sent_round: Round) -> None:
        """Drain the staging window into the calendar — the one loop every
        copy passes through.

        What cannot change inside a window is read once (pre-/post-GST,
        hence the cap and whether the loss coins are live; the latency
        family; whether a topology or any adversarial delay exists), so a
        plain post-GST window pays one draw and one list append per copy
        and the other regimes are flag checks in the same loop.  Coins
        come from the one labelled stream in a fixed order per copy —
        drop, duplicate, then a latency draw per scheduled copy; link
        surcharges and adversarial delays draw nothing.  The uniform draw
        is ``Random.randint`` unrolled (``randrange`` → ``_randbelow``:
        ``getrandbits(width.bit_length())`` until below the width): the
        same stream, bit for bit, minus three wrapper frames per copy.
        """
        conditions = self.conditions
        pre_gst = sent_round < conditions.gst
        cap = conditions.effective_pre_gst_cap if pre_gst else conditions.delta
        drop_rate = conditions.drop_rate if pre_gst else 0.0
        duplicate_rate = conditions.duplicate_rate if pre_gst else 0.0
        lossy = bool(drop_rate or duplicate_rate)
        topology = conditions.topology
        extra_delay = self._extra_delay
        family, low = conditions.latency[:2]
        width = conditions.latency[2] - low + 1 if family == "uniform" else 0
        bits = width.bit_length()
        getrandbits = self._rng.getrandbits
        coin = self._rng.random
        n = self.n
        everyone = range(n)
        slots = [None] * (cap + 1)  # delay -> this window's group due then
        dropped = duplicated = delayed = scheduled = 0
        for envelope, delivery, blocked in self._surviving_entries():
            sender = envelope.sender
            recipients = (everyone if envelope.recipient is None
                          else (envelope.recipient,))
            if extra_delay:
                envelope_id = envelope.envelope_id
                extra_all = extra_delay.get((envelope_id, None), 0)
            for recipient in recipients:
                if recipient == sender or (blocked and recipient in blocked):
                    continue
                copies = 1
                if lossy:
                    if drop_rate and coin() < drop_rate:
                        dropped += 1
                        continue
                    if duplicate_rate and coin() < duplicate_rate:
                        copies = 2
                        duplicated += 1
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
                    if topology is not None:
                        delay += topology.link_extra(sender, recipient, n)
                    if delay > cap:
                        delay = cap
                    if extra_delay:
                        extra = extra_all + extra_delay.get(
                            (envelope_id, recipient), 0)
                        if extra and delay < cap:
                            # Only *effective* delays count: one the
                            # clamp nullified moved nothing.
                            delay = min(delay + extra, cap)
                            delayed += 1
                    group = slots[delay]
                    if group is None:
                        group = slots[delay] = [sent_round, {}, 0]
                        self._bucket(sent_round + delay).append(group)
                    group[1].setdefault(recipient, []).append(delivery)
                    scheduled += 1
        for group in filter(None, slots):
            group[2] = sum(map(len, group[1].values()))
        self._reset_window()
        self._extra_delay = {}
        self._in_flight += scheduled
        stats = self.stats
        stats.dropped_copies += dropped
        stats.duplicated_copies += duplicated
        stats.adversary_delayed_copies += delayed
        stats.events_processed += scheduled

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

    def has_pending(self) -> bool:
        """Whether any scheduled copy is still awaiting delivery."""
        return bool(self._due_rounds)

    def next_due_round(self) -> Optional[Round]:
        """The earliest round with a scheduled delivery (``None`` when
        nothing is in flight) — the event engine's skip-ahead horizon."""
        return self._due_rounds[0] if self._due_rounds else None

    def pending_copies(self) -> List[PendingCopy]:
        """Every in-flight copy by due round, group, recipient and
        scheduling order (a snapshot for tests and diagnostics)."""
        return [PendingCopy(due_round, sent_round, recipient, delivery)
                for due_round in sorted(self._buckets)
                for sent_round, targets, _ in self._buckets[due_round]
                for recipient, deliveries in targets.items()
                for delivery in deliveries]

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

    def finish_clock(self, network_rounds: Round) -> None:
        """Account the idle tail between the last executed tick and the
        round limit — the lock-step loop runs its clock all the way out,
        so an event-engine execution that exhausts its round budget must
        do the same for ``network_rounds``/``skipped_ticks`` to agree."""
        tail = network_rounds - self._delivered_round - 1
        if tail > 0:
            self.stats.skipped_ticks += tail
            self.stats.network_rounds = network_rounds
            self._delivered_round = network_rounds - 1

    def deliver(self) -> Dict[NodeId, List[Delivery]]:
        """Advance one network round — the Δ-lockstep synchronizer's
        per-tick entry point (the event engine calls :meth:`advance_to`
        directly and skips the ticks this would return empty inboxes
        for).  Scheduling order, the single seeded coin stream and
        calendar-order delivery make identical seeds and conditions
        replay byte-identically.
        """
        inboxes: Dict[NodeId, List[Delivery]] = {
            node: [] for node in range(self.n)}
        self.advance_to(self._delivered_round + 1, inboxes)
        return inboxes

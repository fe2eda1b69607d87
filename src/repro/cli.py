"""Command-line interface: ``python -m repro <command>``.

Commands (the parser epilog enumerates the live registries — the
authoritative lists of experiments, sweeps, and protocols — so nothing
here goes stale when a registry grows)

``experiment`` — run one of the experiment tables::

    python -m repro experiment E3

``sweep`` — run a named scenario-matrix sweep (``--list`` to see them),
optionally fanning trials across worker processes, exporting CSV/JSON
artifacts (see ``docs/SCENARIOS.md``), and recording cells into a
persistent experiment store for incremental re-runs, ``--resume`` after
interruption, and ``--shard K/M`` multi-invocation fan-out (see
``docs/RESULTS.md``)::

    python -m repro sweep comm-vs-n --workers 4 --out-dir artifacts
    python -m repro sweep comm-vs-n --store .repro-store
    python -m repro sweep comm-vs-n --resume
    python -m repro sweep comm-vs-n --store shared --shard 2/4

``report`` — render the results book (provenance header + one table
section per recorded sweep, with deltas against a previous snapshot)
from an experiment store (see ``docs/RESULTS.md``)::

    python -m repro report --store .repro-store
    python -m repro report --format html --baseline old/book.json

``run`` — execute one seed of a one-cell scenario (bound, and refused,
exactly as a sweep cell is) and print its result summary, optionally
under named partial-synchrony network conditions and a per-link latency
topology (see ``docs/NETWORK.md``); a protocol with artifact columns of
its own (the early-stopping variants' ``mean_rounds_saved``, see
``docs/PROTOCOLS.md``) prints them under the row's column names::

    python -m repro run --protocol subquadratic -n 300 -f 90 \\
        --adversary crash --input mixed --seed 7 --network wan
    python -m repro run --protocol phase-king-early-stop -n 40 -f 13 \\
        --network lan --topology clustered

``serve`` — run the experiment service: a long-running HTTP API over a
shared (by default SQLite/WAL, concurrency-safe) experiment store, with
a persistent worker pool draining submitted sweeps cell by cell and the
results book served as live HTML (see ``docs/RESULTS.md``)::

    python -m repro serve --store repro.sqlite --workers 4 --port 8765

``submit`` / ``status`` — the matching client: submit a sweep over HTTP
(optionally waiting and streaming per-cell progress), and inspect job
records::

    python -m repro submit smoke --wait
    python -m repro submit comm-vs-n --network lan --no-wait
    python -m repro status                      # newest jobs
    python -m repro status 20260807T120000Z-ab12cd34

``params`` — concrete parameter selection (the λ = ω(log κ) inversion)::

    python -m repro params -n 2000 --corrupt 0.3 --target 1e-9
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import choose_lambda
from repro.analysis.parameters import protocol_failure_probability
from repro.harness import run_trials
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.scenarios import (
    ADVERSARIES,
    INPUTS,
    PROTOCOLS as PROTOCOL_REGISTRY,
    AdversaryFactorySpec,
    ScenarioSpec,
)
from repro.errors import ConfigurationError
from repro.sim.conditions import NETWORKS, TOPOLOGIES

#: ``run``-able protocols, derived from the scenario layer's registry
#: rather than hand-maintained: every entry whose builder takes per-node
#: ``inputs`` is automatically runnable here (sender-style broadcast
#: builders need a ``sender_input`` binding and stay sweep-only).
PROTOCOLS = {
    key: entry for key, entry in PROTOCOL_REGISTRY.items()
    if entry.takes("inputs")
}


def _epilog() -> str:
    """The command summary, regenerated from the live registries so new
    experiments/sweeps/protocols can never be silently missing (parity
    is asserted in tests/test_cli_and_trace.py)."""
    from repro.harness.sweep_library import SWEEPS

    last_experiment = max(int(name[1:]) for name in ALL_EXPERIMENTS)
    return (
        f"commands: experiment (E1..E{last_experiment} tables), "
        f"sweep (scenario-matrix sweeps: {', '.join(sorted(SWEEPS))}; "
        "see docs/SCENARIOS.md), "
        "report (results book from an experiment store; see "
        "docs/RESULTS.md), "
        "serve (the experiment service: sweeps over HTTP against a "
        "concurrency-safe store), "
        "submit/status (the service client), "
        f"run (one execution; protocols: {', '.join(sorted(PROTOCOLS))}), "
        "params (λ selection)")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """What ``sweep`` and ``submit`` both take: how the named sweep is
    resolved (:func:`~repro.harness.sweep_library.resolve_sweep`)."""
    parser.add_argument("--network", choices=sorted(NETWORKS), default=None,
                        help="force these network conditions onto every "
                             "scenario of the sweep (overrides any "
                             "network bindings; see docs/NETWORK.md)")
    parser.add_argument("--topology", choices=sorted(TOPOLOGIES),
                        default=None,
                        help="force this per-link latency topology onto "
                             "every scenario (needs conditions with "
                             "delta > 1; see docs/NETWORK.md)")


def _int_at_least(minimum: int, maximum: Optional[int] = None):
    def parse(text: str) -> int:
        if (not text.isdecimal() or int(text) < minimum
                or maximum is not None and int(text) > maximum):
            bound = "" if maximum is None else f" and at most {maximum}"
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {minimum}{bound}, "
                f"got {text!r}")
        return int(text)
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Communication Complexity of "
                    "Byzantine Agreement, Revisited' (PODC 2019)",
        epilog=_epilog())
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run an experiment table")
    exp.add_argument("name", choices=sorted(ALL_EXPERIMENTS),
                     help="experiment id (E1..E12)")

    sweep = sub.add_parser(
        "sweep", help="run a named scenario-matrix sweep")
    sweep.add_argument("name", nargs="?", default=None,
                       help="sweep name (omit with --list to enumerate)")
    sweep.add_argument("--list", action="store_true", dest="list_sweeps",
                       help="list the available sweeps and exit")
    sweep.add_argument("--workers", type=_int_at_least(1), default=1,
                       help="fan each cell's trials across N processes")
    sweep.add_argument("--out-dir", default=None,
                       help="write <name>.csv and <name>.json artifacts "
                            "into this directory")
    sweep.add_argument("--no-shared-lottery", action="store_true",
                       help="disable the per-sweep eligibility-lottery "
                            "cache (results are identical either way)")
    _add_sweep_options(sweep)
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="record/replay cells through a persistent "
                            "experiment store at DIR: recorded cells "
                            "replay byte-identically, only new cells "
                            "compute (see docs/RESULTS.md)")
    sweep.add_argument("--resume", action="store_true",
                       help="shorthand for --store with the default "
                            "store directory (.repro-store): resume an "
                            "interrupted sweep, computing only the "
                            "missing cells")
    sweep.add_argument("--shard", default=None, metavar="K/M",
                       help="compute only every M-th cell (1-based "
                            "offset K) for coarse multi-invocation "
                            "fan-out; combine with a shared --store so "
                            "the shards union (see docs/RESULTS.md)")

    rep = sub.add_parser(
        "report", help="render a results book from an experiment store")
    rep.add_argument("--store", default=None, metavar="DIR",
                     help="experiment store to render (default: "
                          ".repro-store)")
    rep.add_argument("--out", default=None, metavar="PATH",
                     help="output document path (default: "
                          "<store>/book.md or book.html; <stem>.book.md "
                          "beside a SQLite store <stem>.sqlite)")
    rep.add_argument("--format", choices=["md", "html"], dest="fmt",
                     default="md", help="document format")
    rep.add_argument("--baseline", default=None, metavar="JSON",
                     help="a previous book's .json snapshot; the book "
                          "gains per-sweep deltas against it")

    serve = sub.add_parser(
        "serve", help="run the experiment service (sweeps over HTTP)")
    serve.add_argument("--store", default="repro.sqlite", metavar="PATH",
                       help="experiment store to serve: *.sqlite/*.db "
                            "selects the concurrency-safe SQLite (WAL) "
                            "backend, anything else a JSON tree "
                            "(default: repro.sqlite)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; the API "
                            "is unauthenticated — do not expose it)")
    serve.add_argument("--port", type=_int_at_least(0, maximum=65535),
                       default=8765,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=_int_at_least(1), default=2,
                       help="jobs run at once, one worker thread each")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running experiment service")
    submit.add_argument("name", help="sweep name (see sweep --list)")
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    _add_sweep_options(submit)
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately "
                             "instead of streaming progress to "
                             "completion")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="give up waiting after this long (the job "
                             "keeps running server-side)")

    status = sub.add_parser(
        "status", help="show experiment-service job status")
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list recent jobs)")
    status.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")

    run = sub.add_parser("run", help="run one protocol execution")
    run.add_argument("--protocol", choices=sorted(PROTOCOLS),
                     default="subquadratic")
    run.add_argument("-n", type=_int_at_least(1), default=200,
                     help="number of nodes")
    run.add_argument("-f", type=_int_at_least(0), default=None,
                     help="corruption budget (default: 0.25n)")
    run.add_argument("--adversary", choices=sorted(ADVERSARIES),
                     default="none")
    run.add_argument("--actual", type=int, default=None,
                     help="actual fault count k for the actual-faults "
                          "adversary (default: the whole budget f)")
    run.add_argument("--input", choices=sorted(INPUTS), default="mixed")
    run.add_argument("--lam", type=_int_at_least(1), default=None,
                     help="expected committee size λ (default: 30; only "
                          "for protocols whose builder takes params)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=["fmine", "vrf"], default=None,
                     help="eligibility world (default: fmine; only for "
                          "protocols whose builder takes a mode)")
    run.add_argument("--network", choices=sorted(NETWORKS), default="perfect",
                     help="named network conditions for the execution "
                          "(see docs/NETWORK.md)")
    run.add_argument("--topology", choices=sorted(TOPOLOGIES), default=None,
                     help="per-link latency topology layered onto the "
                          "network conditions (needs delta > 1; see "
                          "docs/NETWORK.md)")

    par = sub.add_parser("params", help="choose λ for a target error")
    par.add_argument("-n", type=int, required=True)
    par.add_argument("--corrupt", type=float, default=0.3,
                     help="corrupt fraction (0..0.5)")
    par.add_argument("--target", type=float, default=1e-9,
                     help="target failure probability")
    par.add_argument("--iterations", type=_int_at_least(1), default=40)
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = ALL_EXPERIMENTS[args.name]()
    print(result.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.harness.scenarios import run_sweep
    from repro.harness.sweep_library import SWEEPS, resolve_sweep

    if args.list_sweeps:
        for name in sorted(SWEEPS):
            print(f"{name:22s} {SWEEPS[name].description}")
        return 0
    if args.name is None:
        print("sweep: name required (or --list)", file=sys.stderr)
        return 2
    try:
        sweep = resolve_sweep(args.name, network=args.network,
                              topology=args.topology)
    except ConfigurationError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    store = None
    if args.store is not None or args.resume:
        from repro.harness.store import DEFAULT_STORE_DIR, ExperimentStore
        store = ExperimentStore(args.store or DEFAULT_STORE_DIR)
    if args.shard is not None and store is None:
        # A shard alone writes partial artifacts in the full-artifact
        # format; only a shared store makes the shards union.
        print("sweep: --shard requires --store or --resume (shards "
              "union through a shared store; see docs/RESULTS.md)",
              file=sys.stderr)
        return 2
    try:
        shard = None
        if args.shard is not None:
            from repro.harness.store import parse_shard
            shard = parse_shard(args.shard)
        result = run_sweep(sweep, workers=args.workers,
                           share_lottery=not args.no_shared_lottery,
                           store=store, shard=shard)
    except ConfigurationError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    print(result.to_table().render())
    if result.lottery is not None:
        lottery = result.lottery
        # Counters are per-process: with --workers the coins are drawn
        # inside the worker processes, so the main process reads zero.
        print(f"\nshared lottery (main process): {lottery['coins']} coins, "
              f"{lottery['hits']} hits, {lottery['misses']} misses")
    if result.store_stats is not None:
        stats = result.store_stats
        line = (f"\nstore: {stats['replayed']} replayed, "
                f"{stats['computed']} computed, "
                f"{stats['skipped']} skipped")
        if store is not None:
            line += f" (salt {stats['salt']}, dir {store.root})"
        if stats["shard"] is not None:
            line += f" [shard {stats['shard']}]"
        print(line)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = result.to_csv(out_dir / f"{args.name}.csv")
        json_path = result.to_json(out_dir / f"{args.name}.json")
        print(f"wrote {csv_path} and {json_path}")
        stats = result.store_stats
        if stats is not None and stats["skipped"]:
            # Partial artifacts are shaped exactly like complete ones;
            # say so where the consumer will see it.
            print(f"sweep: warning: artifacts are PARTIAL — "
                  f"{stats['skipped']} cell(s) skipped by shard "
                  f"{stats['shard']}; run the remaining shards against "
                  "the same store and re-export", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import write_book
    from repro.harness.store import DEFAULT_STORE_DIR, ExperimentStore

    store = ExperimentStore(args.store or DEFAULT_STORE_DIR)
    if not store.root.exists():
        print(f"report: no experiment store at {store.root} "
              "(run a sweep with --store/--resume first)", file=sys.stderr)
        return 2
    try:
        book, snapshot = write_book(store, out_path=args.out, fmt=args.fmt,
                                    baseline_path=args.baseline)
    except (OSError, ValueError) as error:
        # A missing/unreadable --baseline path or malformed snapshot
        # JSON (json.JSONDecodeError is a ValueError) is a usage error,
        # not a crash.
        print(f"report: {error}", file=sys.stderr)
        return 2
    sweeps = store.sweep_names()
    print(f"wrote {book} and {snapshot} "
          f"({len(sweeps)} sweep(s), {store.cell_count()} cell(s))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.harness.service.app import serve
    from repro.harness.store import ExperimentStore

    store = ExperimentStore(args.store)
    try:
        serve(store, host=args.host, port=args.port,
              workers=args.workers, verbose=not args.quiet)
    except ConfigurationError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    finally:
        store.close()
    return 0


def _job_line(record: dict) -> str:
    settled = record["replayed"] + record["computed"] \
        + record["failed_cells"]
    line = (f"{record['id']}  {record['state']:7s} "
            f"{record['sweep']:20s} {settled}/{record['total']} cells "
            f"({record['replayed']} replayed, {record['computed']} "
            f"computed")
    if record["failed_cells"]:
        line += f", {record['failed_cells']} FAILED"
    return line + ")"


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.harness.service.client import ServiceClient, ServiceError

    with ServiceClient(args.url) as client:
        try:
            job_id = client.submit(args.name, network=args.network,
                                   topology=args.topology)
            print(f"submitted job {job_id}")
            if args.no_wait:
                return 0

            def show(event: dict) -> None:
                print(f"  [{event['index'] + 1:3d}] {event['status']:9s} "
                      f"{event['label']}")

            record = client.wait(job_id, on_event=show,
                                 max_wait=args.timeout)
        except ServiceError as error:
            print(f"submit: {error}", file=sys.stderr)
            return 2
    print(_job_line(record))
    if record["state"] == "failed":
        if record.get("error"):
            print(record["error"], file=sys.stderr)
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.harness.service.client import ServiceClient, ServiceError

    with ServiceClient(args.url) as client:
        try:
            if args.job is None:
                records = client.jobs()
                if not records:
                    print("no jobs recorded")
                    return 0
                for record in records:
                    print(_job_line(record))
                return 0
            record = client.job(args.job)
        except ServiceError as error:
            print(f"status: {error}", file=sys.stderr)
            return 2
    print(_job_line(record))
    for key in ("submitted_at", "started_at", "finished_at"):
        if record.get(key):
            print(f"  {key}: {record[key]}")
    if record.get("overrides"):
        print(f"  overrides: {record['overrides']}")
    if record.get("error"):
        print(f"  error: {record['error']}")
    return 1 if record["state"] == "failed" else 0


def _cmd_run(args: argparse.Namespace) -> int:
    entry = PROTOCOL_REGISTRY[args.protocol]
    # One seed of a one-cell scenario, bound like any sweep cell: a flag
    # its receiver does not name (--lam or --mode on a builder without
    # params or a mode, --actual on an adversary without a count) and a
    # topology without a Δ > 1 network are refused, never dropped.
    # Perfect synchrony is no network binding at all.
    fixed = {key: value for key, value in (
        ("n", args.n),
        ("f", int(0.25 * args.n) if args.f is None else args.f),
        ("lam", args.lam or (30 if entry.takes("params") else None)),
        ("mode", args.mode), ("adversary_actual", args.actual),
        ("topology", args.topology),
        ("network", None if args.network == "perfect" else args.network),
    ) if value is not None}
    spec = ScenarioSpec(name="run", protocol=args.protocol, fixed=fixed,
                        adversary=args.adversary, inputs=args.input,
                        seeds=(args.seed,))
    instances = []
    try:
        (cell,) = spec.cells()
        factory = AdversaryFactorySpec(cell.adversary, cell.adversary_kwargs)

        def adversary(instance):
            instances.append(instance)
            return factory(instance)

        # An adversary rejecting its target raises in its constructor or
        # at setup, inside the trial.
        stats = run_trials(entry.builder, cell.f, cell.seeds, adversary,
                           conditions=cell.network, **cell.builder_kwargs())
    except ConfigurationError as error:
        print(f"run: {error}", file=sys.stderr)
        return 2
    (result,) = stats.results
    print(f"protocol:            {instances[0].name}")
    print(f"n / f:               {cell.n} / {cell.f}  "
          f"(adversary: {args.adversary})")
    if result.network_stats is not None:
        network = result.network_stats
        print(f"network:             {args.network} "
              f"({cell.network.describe()})")
        print(f"mean copy latency:   "
              f"{network.mean_delivery_latency:.2f} network rounds")
        print(f"peak in flight:      {network.max_in_flight} copies")
        if network.dropped_copies:
            print(f"dropped copies:      {network.dropped_copies}")
    print(f"consistent:          {result.consistent()}")
    print(f"valid:               {result.agreement_valid()}")
    print(f"all decided:         {result.all_decided()}")
    print(f"rounds:              {result.rounds_executed}")
    for columns in entry.columns:
        for name, value in columns(stats.results).items():
            print(f"{name + ':':20s} {value}")
    print(f"corruptions used:    {result.corruptions_used}")
    print(f"honest multicasts:   "
          f"{result.metrics.multicast_complexity_messages}")
    print(f"distinct speakers:   {len(result.honest_speakers())}")
    print(f"multicast bits:      {result.metrics.multicast_complexity_bits}")
    print(f"classical messages:  {result.metrics.classical_message_count}")
    violated = not (result.consistent() and result.agreement_valid())
    return 1 if violated else 0


def _cmd_params(args: argparse.Namespace) -> int:
    try:
        lam = choose_lambda(args.n, args.corrupt, args.target,
                            iterations=args.iterations)
    except ValueError as error:
        print(f"params: {error}", file=sys.stderr)
        return 2
    failure = protocol_failure_probability(
        args.n, int(args.corrupt * args.n), lam, args.iterations)
    print(f"n:                  {args.n}")
    print(f"corrupt fraction:   {args.corrupt}")
    print(f"target error:       {args.target}")
    print(f"chosen λ:           {lam}")
    print(f"committee quorum:   {(lam + 1) // 2}")
    print(f"predicted failure:  {failure:.3g}")
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "run": _cmd_run,
    "params": _cmd_params,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

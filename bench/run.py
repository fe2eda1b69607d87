"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1

runs one workload in this process and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload, each in a
fresh subprocess (so peak memory does not leak from one into the next),
and writes ``bench/out/results.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SMOKE_SECONDS = 0.2
#: Runs per workload in each set of an A/A comparison: single runs on a
#: noisy host differ by more than any bound; their medians do not.
AA_REPS = 5


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> Tuple[Dict[str, Any], float]:
    """Refuse to measure unless the benchmark's contract file and the
    library are there; returns the parsed BENCHMARK.json and how long
    ``import repro`` took."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no library to measure: {ROOT / 'src' / 'repro'} is missing")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    start = time.perf_counter()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        fail(f"cannot import repro: {error}")
    return spec, time.perf_counter() - start


def scratch_dir() -> Path:
    """A fresh, empty directory inside the checkout."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    if any(path.iterdir()):
        fail(f"scratch directory {path} is not empty")
    return path


def load_pins() -> Dict[str, Any]:
    return json.loads((BENCH / "expected.json").read_text("utf-8"))


def counted(count: int, unit: str) -> str:
    if count == 1:
        return f"1 {unit}"
    return f"{count} {unit}{'es' if unit.endswith('s') else 's'}"


def fmt(value: float) -> str:
    return f"{value:,.3f}" if abs(value) < 1000 else f"{value:,.0f}"


def print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<42s} {fmt(metric['value']):>14s} {metric['unit']}")


# ---------------------------------------------------------------------------
# One workload, in this process.
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace, import_repro_s: float) -> int:
    from bench import measure

    speed_at_start = measure.machine_speed().wall
    import_start = time.perf_counter()
    from bench.workloads import WORKLOADS
    import_s = import_repro_s + time.perf_counter() - import_start

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    scratch = scratch_dir()
    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, scratch, load_pins())
    detail: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "trace": args.trace,
        "unit": workload.unit, "environment": measure.environment(),
    }
    try:
        if args.trace:
            result = traced_run(args, workload, scratch, detail)
        else:
            result = measured_run(args, workload, import_s, speed_at_start,
                                  detail)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    detail.update(failures=workload.failures, observed=workload.observed,
                  result=result)
    for failure in workload.failures:
        print(f"  FAILED CHECK {failure}")
    (OUT / f"{workload.name}.run.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", "utf-8")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def stop_children() -> None:
    """Every way out of a workload passes here: a pool worker that an
    error left behind is ended and waited for.  (The probes' other
    children are plain subprocesses, each waited for where it starts.)"""
    for process in multiprocessing.active_children():
        process.terminate()
        process.join()


def describe_speed(phase, detail: Dict[str, Any]) -> None:
    """Report the machine-speed readings the phase was scaled by, and
    mark the run noisy when they moved by more than the limit."""
    from bench import measure

    median = statistics.median(speed.wall for speed in phase.speeds)
    detail.update(speed_readings=len(phase.speeds),
                  speed_median_ms=median, speed_swing=phase.swing,
                  noisy=phase.swing > measure.NOISE_LIMIT)
    print(f"  machine speed: {len(phase.speeds)} readings, median "
          f"{median:.2f} ms (reference {measure.REFERENCE_SPEED_MS:.2f} ms), "
          f"swing {phase.swing:.0%}"
          + ("  ** NOISY **" if detail["noisy"] else ""))


def measured_run(args, workload, import_s: float, speed_at_start: float,
                 detail: Dict[str, Any]) -> Dict[str, Any]:
    """Set up (several times when cheap), warm up, measure, check."""
    from bench import measure

    # Each part of the set-up is scaled by the speed read around it.
    speed = [speed_at_start, measure.machine_speed().wall]
    raw_parts = [import_s]
    parts = [measure.scale(import_s, *speed)]

    def timed(action) -> Any:
        start = time.perf_counter()
        outcome = action()
        raw_parts.append(time.perf_counter() - start)
        speed[:] = speed[1], measure.machine_speed().wall
        parts.append(measure.scale(raw_parts[-1], *speed))
        return outcome

    for rep in range(workload.setup_reps):
        if rep:
            workload.teardown()
        timed(workload.setup)
    try:
        warm_failed = 1 if timed(workload.warmup) else 0
        setup_s = parts[0] + statistics.median(parts[1:-1]) + parts[-1]
        raw_setup_s = (raw_parts[0] + statistics.median(raw_parts[1:-1])
                       + raw_parts[-1])
        phase = workload.measure(args.seconds)
    finally:
        workload.teardown()

    metrics = measure.end_to_end(phase, setup_s)
    units = len(phase.samples_ms)
    beyond = measure.tail_samples_beyond(units)
    detail.update(units=units, busy_s=phase.busy_s,
                  raw_busy_s=phase.raw_busy_s, raw_cpu_s=phase.raw_cpu_s,
                  speed_cpu_median_ms=statistics.median(
                      speed.cpu for speed in phase.speeds),
                  raw_unit_p50_ms=statistics.median(phase.raw_ms),
                  setup_parts={"import_s": raw_parts[0],
                               "setups_s": raw_parts[1:-1],
                               "warmup_s": raw_parts[-1],
                               "raw_s": raw_setup_s},
                  tail_samples_beyond=beyond)
    print_metrics(
        f"{workload.name}: {counted(units, workload.unit)} "
        f"(seed {args.seed}, tracing off; times scaled to the reference "
        "machine)", metrics)
    print(f"  as the clock read them: unit_p50_ms "
          f"{fmt(detail['raw_unit_p50_ms'])}, setup_s {fmt(raw_setup_s)}")
    print(f"  unit_tail_ms is p{measure.TAIL_PERCENTILE} of {units} samples, "
          f"{beyond:.1f} beyond it"
          + ("" if measure.tail_supported(units)
             else f"  (underpowered: fewer than {measure.TAIL_MIN_BEYOND})"))
    failed = phase.failed + warm_failed
    print(f"  failed_share {failed}/{units + 1} "
          "(measured units + the warm-up unit)")
    describe_speed(phase, detail)
    return {"correct": failed == 0, "attempted": units + 1,
            "failed": failed, "metrics": metrics}


def traced_run(args, workload, scratch: Path,
               detail: Dict[str, Any]) -> Dict[str, Any]:
    """A warm-up unit, a short untraced pass, the same pass under spans,
    then the layer probes; the trace goes to
    ``bench/out/<workload>.trace.json``."""
    from bench import layers, spans

    recorder = spans.SpanRecorder()
    share = args.seconds / 4.0
    workload.setup()
    try:
        # Warm first, or the untraced pass pays the lazy imports and the
        # overhead reads negative.
        warm_failed = 1 if workload.warmup() else 0
        plain = workload.measure(share)
        mark = len(recorder.spans)
        traced = workload.traced(recorder, share)
    finally:
        workload.teardown()
    own = recorder.spans[mark:]
    values = layers.probe_all(recorder, scratch, args.smoke)
    # Mean, not median: a traced sweep-cold pass times whole sweeps, so
    # only the per-unit mean compares like with like.
    values["trace_overhead_pct"] = (
        statistics.fmean(traced.samples_ms)
        / statistics.fmean(plain.samples_ms) - 1.0) * 100.0
    units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    recorder.dump(OUT / f"{workload.name}.trace.json",
                  workload=workload.name, seed=args.seed,
                  workload_spans=[mark, mark + len(own)])

    by_layer = spans.layer_self_seconds(own)
    total = sum(by_layer.values()) or 1.0
    print(f"{workload.name}: traced, "
          f"{counted(len(traced.samples_ms), workload.unit)}, "
          f"{len(own)} spans; self time by layer")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<42s} {seconds * 1000.0:>12,.1f} ms "
              f"{seconds / total:>6.1%}")
    print_metrics("per-layer metrics (probes, tracing on)", metrics)
    detail.update(units=len(traced.samples_ms), layer_self_ms={
        layer: seconds * 1000.0 for layer, seconds in by_layer.items()})
    describe_speed(traced, detail)
    failed = traced.failed + plain.failed + warm_failed
    return {"correct": failed == 0,
            "attempted": len(traced.samples_ms) + len(plain.samples_ms) + 1,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Every workload, one subprocess each.
# ---------------------------------------------------------------------------


def child(workload: str, args: argparse.Namespace, seed: int, smoke: bool,
          trace: int) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its detail
    record (with ``exit_code`` added)."""
    command = [sys.executable, str(BENCH / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    else:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if not done.stdout.strip():
        fail(f"{workload} printed no result (exit {done.returncode})")
    detail = json.loads(
        (OUT / f"{workload}.run.json").read_text("utf-8"))
    detail["exit_code"] = done.returncode
    return detail


def run_set(names: List[str], args: argparse.Namespace, smoke: bool,
            trace: int, reps: int = 1) -> Dict[str, List[Dict[str, Any]]]:
    """``reps`` passes over ``names``, pass ``i`` at seed ``--seed + i``.
    With a single measured pass, a workload during which the machine's
    speed moved by more than the noise limit is re-run once and the
    quieter run counts; with several, the median absorbs it."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            detail = child(name, args, args.seed + rep, smoke, trace)
            if reps == 1 and detail["noisy"] and not smoke and not trace:
                print(f"bench: {name} was noisy, re-running once; "
                      "the quieter run counts")
                again = child(name, args, args.seed, smoke, trace)
                if again["speed_swing"] < detail["speed_swing"]:
                    detail = again
            results[name].append(detail)
    return results


def medians(results: Dict[str, List[Dict[str, Any]]],
            ) -> Dict[str, Dict[str, float]]:
    """Per workload and metric, the median over the set's runs."""
    return {
        name: {metric: statistics.median(
            detail["result"]["metrics"][metric]["value"]
            for detail in details)
            for metric in details[0]["result"]["metrics"]}
        for name, details in results.items()}


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    if not args.smoke:
        print("bench: pre-flight, smoke sizes first")
        smoke = run_set(names, args, smoke=True, trace=0)
        if any(detail["exit_code"] for details in smoke.values()
               for detail in details):
            fail("a workload failed at smoke size; not measuring")
    sets = [run_set(names, args, args.smoke, args.trace, args.reps)]
    if args.aa:
        sets.append(run_set(names[::-1], args, args.smoke, args.trace,
                            args.reps))
    status = 0 if all(detail["exit_code"] == 0 for results in sets
                      for details in results.values()
                      for detail in details) else 1
    summaries = [medians(results) for results in sets]
    report: Dict[str, Any] = {"seed": args.seed, "reps": args.reps,
                              "sets": sets, "medians": summaries}
    print(f"medians over {args.reps} run(s) per workload"
          + (", set A | set B | apart | bound" if args.aa else ""))
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    for name in names:
        for metric in (entry["name"] for entry in listed):
            value = summaries[0][name][metric]
            line = f"  {name:<16s} {metric:<42s} {fmt(value):>12s}"
            if args.aa:
                other = summaries[1][name][metric]
                low, high = sorted((value, other))
                apart = (high - low) / low if low else 0.0
                line += f" {fmt(other):>12s} {apart:>7.1%}"
                if metric in bounds:
                    report.setdefault("aa_spread", {}).setdefault(
                        name, {})[metric] = apart
                    line += f" {bounds[metric]:>5.0%}"
                    if apart > bounds[metric] and not args.smoke:
                        line += "  OUTSIDE BOUND"
                        status = 1
            print(line)
    if args.pin:
        pins = load_pins()
        for results in sets:
            for details in results.values():
                for detail in details:
                    pins.update(detail["observed"])
        (BENCH / "expected.json").write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"bench: pinned {len(pins)} statistics in expected.json")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"bench: wrote {OUT / 'results.json'}"
          + ("" if status == 0 else "  ** FAILED **"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the measured phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: spans on, print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a fraction of a second: "
                             "checks that everything runs, measures nothing")
    parser.add_argument("--aa", action="store_true",
                        help="run the whole set twice, the second time in "
                             "reverse order, and compare the medians "
                             "against the bounds")
    parser.add_argument("--reps", type=int,
                        help="runs per workload and set, at seeds --seed, "
                             "--seed + 1, ... (default 1; 5 with --aa)")
    parser.add_argument("--pin", action="store_true",
                        help="write the simulated statistics this run saw "
                             "into expected.json")
    args = parser.parse_args(argv)
    spec, import_repro_s = preflight()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.reps is None:
        args.reps = AA_REPS if args.aa else 1
    if args.workload:
        return run_workload(args, import_repro_s)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())

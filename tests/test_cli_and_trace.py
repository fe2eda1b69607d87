"""Tests for the CLI and the speaker set it prints."""

import json

import pytest

from repro.cli import main
from repro.harness import run_instance
from repro.harness.scenarios import PROTOCOLS as REGISTRY
from repro.protocols import build_quadratic_ba, build_subquadratic_ba
from repro.types import SecurityParameters


class TestTraceAnalysis:
    def _result(self):
        n, f = 120, 30
        params = SecurityParameters(lam=20, epsilon=0.1)
        instance = build_subquadratic_ba(n, f, [1] * n, seed=0, params=params)
        return run_instance(instance, f, seed=0), n

    def test_speaker_count_is_sublinear(self):
        result, n = self._result()
        assert 0 < len(result.honest_speakers()) < n

    def test_speaker_count_matches_metrics_loosely(self):
        result, _n = self._result()
        assert (len(result.honest_speakers())
                <= result.metrics.multicast_complexity_messages)

    def test_quadratic_speakers_are_everyone(self):
        n, f = 11, 5
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, seed=0)
        assert result.honest_speakers() == set(range(n))


class TestCli:
    def test_run_subquadratic(self, capsys):
        code = main(["run", "--protocol", "subquadratic", "-n", "100",
                     "-f", "25", "--adversary", "crash", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent:          True" in out
        assert "distinct speakers:" in out

    def test_run_quadratic_equivocate(self, capsys):
        code = main(["run", "--protocol", "quadratic", "-n", "9", "-f", "4",
                     "--adversary", "equivocate", "--input", "ones"])
        assert code == 0
        assert "quadratic-ba" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--protocol", "adaptive-ba", "--adversary", "leader-killer"],
         "leader-killer needs an announced leader oracle"),
        (["--protocol", "adaptive-ba", "--adversary", "view-split"],
         "view-split cannot target 'adaptive-ba': it admits the aba, "
         "leader-ba families"),
        (["--protocol", "leader-ba", "--adversary", "equivocate"],
         "static-equivocation cannot target 'leader-ba': it admits the "
         "aba, phase-king families"),
        # Recognized by config class, not by "has a proposer": the aba
        # schedule against PhaseKingNodes used to run (and exit 0).
        (["--protocol", "phase-king", "--adversary", "view-split"],
         "view-split cannot target 'phase-king': it admits the aba, "
         "leader-ba families"),
        (["--protocol", "leader-ba", "--adversary", "actual-faults",
          "--actual", "9", "-f", "4"],
         "exceeds the corruption budget"),
        # It flips only votes and ACKs: on a view family it would corrupt
        # nobody and the run would equal `--adversary none`.
        (["--protocol", "leader-ba", "--adversary", "speaker"],
         "speaker cannot target 'leader-ba': it admits the aba, "
         "phase-king families"),
    ])
    def test_run_incompatible_adversary_exits_2(self, capsys, argv, message):
        """An adversary rejecting its target — in its constructor or at
        setup inside ``run_instance`` — is a usage error, not a crash."""
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("run: ") and message in captured.err
        assert captured.out == ""

    def test_experiment_command(self, capsys):
        code = main(["experiment", "E2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Dolev–Reischuk" in out

    def test_params_command(self, capsys):
        code = main(["params", "-n", "1000", "--corrupt", "0.25",
                     "--target", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen λ:" in out

    @pytest.mark.parametrize("argv, message", [
        (["params", "-n", "100", "--corrupt", "0.6"],
         "params: corrupt fraction must lie in [0, 1/2)"),
        (["params", "-n", "100", "--target", "0"],
         "params: target error must lie in (0, 1)"),
        (["params", "-n", "0"], "params: n must be at least 1"),
        (["sweep", "smoke", "--workers", "0"],
         "argument --workers: expected an integer of at least 1, got '0'"),
        (["sweep", "smoke", "--workers", "-2"],
         "argument --workers: expected an integer of at least 1, got '-2'"),
        (["serve", "--workers", "0"],
         "argument --workers: expected an integer of at least 1, got '0'"),
        (["serve", "--port", "-1"],
         "argument --port: expected an integer of at least 0 and at most "
         "65535, got '-1'"),
        (["serve", "--port", "65536"],
         "argument --port: expected an integer of at least 0 and at most "
         "65535, got '65536'"),
        (["run", "--protocol", "quadratic", "-n", "4", "-f", "-1"],
         "argument -f: expected an integer of at least 0, got '-1'"),
        (["run", "--protocol", "quadratic", "-n", "-4"],
         "argument -n: expected an integer of at least 1, got '-4'"),
        (["run", "-n", "40", "-f", "5", "--lam", "0"],
         "argument --lam: expected an integer of at least 1, got '0'"),
        (["run", "-n", "40", "-f", "5", "--lam", "-3"],
         "argument --lam: expected an integer of at least 1, got '-3'"),
        (["params", "-n", "100", "--iterations", "0"],
         "argument --iterations: expected an integer of at least 1, got '0'"),
    ])
    def test_out_of_range_input_exits_2(self, capsys, argv, message):
        """Out-of-range numbers are usage errors — one line on stderr,
        exit 2 — whether the parser or the command refuses them; none is
        a traceback, and ``--workers 0`` is not silently run inline."""
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's own refusal
            code = exit_.code
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--topology", "clustered"], "needs a network binding with delta"),
        (["--topology", "clustered", "--network", "perfect"],
         "needs a network binding with delta"),
        (["--actual", "1"], "adversary 'none' names no 'actual' parameter"),
        (["--adversary", "crash", "--actual", "1"],
         "adversary 'crash' names no 'actual' parameter"),
        (["--mode", "vrf"], "protocol 'quadratic' names no 'mode' parameter"),
        (["--lam", "8"], "protocol 'quadratic' names no 'params' parameter"),
        (["-f", "5"], "requires honest majority"),
    ])
    def test_run_refusals_exit_2(self, capsys, argv, message):
        assert main(["run", "--protocol", "quadratic", "-n", "10",
                     "-f", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("run: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("protocol", ["phase-king-subquadratic",
                                          "round-eligibility"])
    def test_an_unreachable_ack_quorum_exits_2(self, capsys, protocol):
        """At n = 16 the CLI's λ = 30 asks 20 ACKs: refused, never run to
        a ``consistent: False`` with no adversary."""
        assert main(["run", "--protocol", protocol, "-n", "16",
                     "--input", "mixed"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("run: ")
        assert "exceeds n = 16" in captured.err and captured.out == ""

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "E99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _printed(out):
    """``repro run``'s summary as ``{label: value text}``."""
    return dict((label, value.strip()) for label, value in (
        line.split(":", 1) for line in out.splitlines()))


#: ``repro run`` argv beside the one-seed scenario it is.
RUN_CASES = [
    (["--protocol", "leader-chain", "-n", "13", "-f", "4",
      "--network", "lossy", "--adversary", "view-split"],
     dict(protocol="leader-chain", adversary="view-split",
          fixed={"n": 13, "f": 4, "network": "lossy"})),
    (["--protocol", "adaptive-ba", "-n", "13", "-f", "4",
      "--adversary", "actual-faults", "--actual", "2"],
     dict(protocol="adaptive-ba", adversary="actual-faults",
          fixed={"n": 13, "f": 4, "adversary_actual": 2})),
    (["--protocol", "quadratic-early-stop", "-n", "16", "-f", "5",
      "--network", "lan", "--seed", "3"],
     dict(protocol="quadratic-early-stop", seeds=(3,),
          fixed={"n": 16, "f": 5, "network": "lan"})),
    (["--protocol", "subquadratic", "-n", "40", "-f", "8", "--lam", "12",
      "--mode", "vrf"],
     dict(protocol="subquadratic",
          fixed={"n": 40, "f": 8, "lam": 12, "mode": "vrf"})),
]


class TestRunIsAOneCellScenario:
    @pytest.mark.parametrize("argv", [argv for argv, _ in RUN_CASES[:2]])
    def test_the_same_argv_prints_the_same_bytes(self, capsys, argv):
        outputs = []
        for _ in range(2):
            assert main(["run", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, spec", RUN_CASES)
    def test_numbers_equal_the_one_seed_sweep_row(self, capsys, argv, spec):
        from repro.harness.scenarios import ScenarioSpec, SweepSpec, run_sweep

        assert main(["run", *argv]) == 0
        printed = _printed(capsys.readouterr().out)
        (row,) = run_sweep(SweepSpec(name="run", scenarios=(ScenarioSpec(
            name="run", inputs="mixed", **dict(dict(seeds=(0,)), **spec)),
        ))).rows()
        for label, column in (("rounds", "mean_rounds"),
                              ("honest multicasts", "mean_multicasts"),
                              ("multicast bits", "mean_multicast_bits"),
                              ("corruptions used", "mean_corruptions")):
            assert float(printed[label]) == row[column], label
        assert (printed["consistent"] == "True") \
            == (row["consistency_rate"] == 1.0)
        if "network" in spec["fixed"]:
            assert float(printed["mean copy latency"].split()[0]) \
                == round(row["mean_delivery_latency"], 2)
            assert int(printed["peak in flight"].split()[0]) \
                == row["max_in_flight"]
        # A family's own columns, under the row's names.
        family = [name for columns in REGISTRY[spec["protocol"]].columns
                  for name in columns([])]
        assert [name for name in printed if name in family] == family
        for name in family:
            assert float(printed[name]) == row[name], name


class TestRegistryParity:
    """The CLI surfaces are regenerated from the live registries — new
    sweeps/protocols can never be silently missing from them again."""

    def test_epilog_names_every_sweep_and_runnable_protocol(self):
        from repro.cli import PROTOCOLS, _epilog
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.sweep_library import SWEEPS

        epilog = _epilog()
        for name in SWEEPS:
            assert name in epilog, f"sweep {name} missing from epilog"
        for name in PROTOCOLS:
            assert name in epilog, f"protocol {name} missing from epilog"
        last = max(int(name[1:]) for name in ALL_EXPERIMENTS)
        assert f"E1..E{last}" in epilog
        assert "report" in epilog

    def test_sweep_list_matches_registry_exactly(self, capsys):
        from repro.harness.sweep_library import SWEEPS

        assert main(["sweep", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == sorted(SWEEPS)

    def test_run_protocols_derived_from_scenario_registry(self):
        from repro.cli import PROTOCOLS

        assert PROTOCOLS == {
            key: entry for key, entry in REGISTRY.items()
            if entry.takes("inputs")}
        # What stays sweep-only is exactly the sender-style builders.
        assert set(REGISTRY) - set(PROTOCOLS) == {
            "dolev-strong", "naive-broadcast", "broadcast-from-ba"}
        assert all(REGISTRY[key].takes("sender_input")
                   for key in set(REGISTRY) - set(PROTOCOLS))

    @pytest.mark.parametrize("key", sorted(
        key for key, entry in REGISTRY.items() if entry.takes("inputs")))
    def test_mode_flag_reaches_every_mode_taking_protocol(
            self, key, capsys, monkeypatch):
        # --mode must never be silently dropped: it reaches the builder
        # of every runnable protocol that names a ``mode`` parameter
        # (including round-eligibility, which takes mode but shares no
        # lottery) and is a usage error on every other one — refused by
        # the binding layer, which resolves the builder from the
        # scenario registry.
        import functools

        from repro.harness.scenarios import ProtocolEntry

        entry = REGISTRY[key]
        received = {}

        @functools.wraps(entry.builder)
        def spy(**kwargs):
            received.update(kwargs)
            return entry.builder(**kwargs)

        monkeypatch.setitem(REGISTRY, key, ProtocolEntry(spy, entry.columns))
        argv = ["run", "--protocol", key, "-n", "13", "-f", "2",
                "--mode", "vrf"]
        if entry.takes("params"):
            argv += ["--lam", "8"]
        code = main(argv)
        captured = capsys.readouterr()
        if entry.takes("mode"):
            assert code == 0 and received["mode"] == "vrf"
            assert received["params"].lam == 8
        else:
            assert code == 2 and not received
            assert captured.err == (
                f"run: scenario 'run': protocol {key!r} names no 'mode' "
                "parameter for the mode binding\n")
            assert captured.out == ""

    @pytest.mark.parametrize("flag, value, protocol, parameter", [
        ("--lam", "8", "quadratic", "'params' parameter for the lam"),
        # even the default, spelled out
        ("--lam", "30", "leader-ba", "'params' parameter for the lam"),
        ("--mode", "fmine", "phase-king", "'mode' parameter for the mode"),
        ("--mode", "vrf", "adaptive-ba", "'mode' parameter for the mode"),
    ])
    def test_run_flag_the_builder_does_not_take_exits_2(
            self, capsys, flag, value, protocol, parameter):
        """An explicit ``--lam`` / ``--mode`` on a builder that takes no
        ``params`` / ``mode`` is a usage error, not silently dropped."""
        assert main(["run", "--protocol", protocol, "-n", "9",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"run: scenario 'run': protocol {protocol!r} names no "
            f"{parameter} binding\n")
        assert captured.out == ""
        # Left unsaid, the defaults resolve quietly.
        assert main(["run", "--protocol", protocol, "-n", "9"]) == 0

    def test_run_round_eligibility_vrf_mode(self, capsys):
        code = main(["run", "--protocol", "round-eligibility", "-n", "13",
                     "-f", "2", "--lam", "8", "--mode", "vrf",
                     "--seed", "1"])
        assert code == 0
        assert "round-eligibility" in capsys.readouterr().out


class TestCliStoreAndReport:
    def _tiny(self):
        from repro.harness.scenarios import ScenarioSpec, SweepSpec

        return SweepSpec(
            name="tinycli",
            description="CLI store-flow test sweep",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                inputs="mixed", seeds=(0, 1)),))

    def test_sweep_store_then_warm_replay_then_report(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        cold = capsys.readouterr().out
        assert "store: 0 replayed, 1 computed, 0 skipped" in cold
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        warm = capsys.readouterr().out
        assert "store: 1 replayed, 0 computed, 0 skipped" in warm
        assert main(["report", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "book.md" in out and "book.json" in out
        assert "1 sweep(s), 1 cell(s)" in out
        assert "tinycli" in (tmp_path / "store" / "book.md").read_text()

    def test_sweep_shard_flag(self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir,
                     "--shard", "2/2"]) == 0
        out = capsys.readouterr().out
        assert "[shard 2/2]" in out

    def test_partial_shard_artifacts_warn(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.harness.scenarios import ScenarioSpec, SweepSpec
        from repro.harness.sweep_library import SWEEPS

        two_cells = SweepSpec(
            name="tinycli",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                grid={"n": (24, 32)},
                fixed={"f_fraction": 0.25, "lam": 10},
                inputs="mixed", seeds=(0,)),))
        monkeypatch.setitem(SWEEPS, "tinycli", two_cells)
        assert main(["sweep", "tinycli",
                     "--store", str(tmp_path / "store"),
                     "--shard", "1/2",
                     "--out-dir", str(tmp_path / "artifacts")]) == 0
        captured = capsys.readouterr()
        assert "artifacts are PARTIAL" in captured.err
        assert "1 cell(s) skipped by shard 1/2" in captured.err

    def test_bad_shard_exits_2(self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        assert main(["sweep", "tinycli", "--store",
                     str(tmp_path / "store"), "--shard", "9/4"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_shard_without_store_is_refused(self, capsys, monkeypatch):
        # A shard alone would write partial artifacts that look
        # complete; only a shared store makes shards union.
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        assert main(["sweep", "tinycli", "--shard", "1/2"]) == 2
        assert "--shard requires --store" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["md", "html"])
    def test_report_on_a_sqlite_store_writes_beside_the_file(
            self, capsys, tmp_path, monkeypatch, fmt):
        """A SQLite store is one file, so ``<store>/book.md`` would lie
        inside it: the book and its snapshot land beside it."""
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_file = tmp_path / "corpus.sqlite"
        assert main(["sweep", "tinycli", "--store", str(store_file)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store_file),
                     "--format", fmt]) == 0
        book = tmp_path / f"corpus.book.{fmt}"
        assert f"wrote {book} and {tmp_path / 'corpus.book.json'}" \
            in capsys.readouterr().out
        assert "tinycli" in book.read_text()
        json.loads((tmp_path / "corpus.book.json").read_text())

    def test_report_without_store_exits_2(self, capsys, tmp_path):
        assert main(["report", "--store", str(tmp_path / "absent")]) == 2
        assert "no experiment store" in capsys.readouterr().err

    def test_report_with_bad_baseline_exits_2(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "tinycli", "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store_dir,
                     "--baseline", str(tmp_path / "missing.json")]) == 2
        assert "report:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(["report", "--store", store_dir,
                     "--baseline", str(bad)]) == 2
        assert "report:" in capsys.readouterr().err

    def test_resume_uses_default_store_dir(
            self, capsys, tmp_path, monkeypatch):
        from repro.harness.sweep_library import SWEEPS

        monkeypatch.setitem(SWEEPS, "tinycli", self._tiny())
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "tinycli", "--resume"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro-store" / "sweeps"
                / "tinycli.json").exists()
        assert main(["sweep", "tinycli", "--resume"]) == 0
        assert "1 replayed, 0 computed" in capsys.readouterr().out

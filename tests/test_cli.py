"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.benchcircuits import c17
from repro.io import save_bench


@pytest.fixture
def bench_file(tmp_path):
    path = str(tmp_path / "c17.bench")
    save_bench(c17(), path)
    return path


class TestStats:
    def test_stats_on_bench_file(self, bench_file, capsys):
        assert main(["stats", bench_file]) == 0
        out = capsys.readouterr().out
        assert "inputs=5" in out
        assert "paths=11" in out


class TestResynth:
    def test_resynth_writes_output(self, bench_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.bench")
        assert main(["resynth", bench_file, "--k", "4",
                     "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "gates" in out
        from repro.io import load_bench
        load_bench(out_path).validate()

    def test_paths_objective(self, bench_file, capsys):
        assert main(["resynth", bench_file, "--objective", "paths",
                     "--k", "4"]) == 0
        assert "paths" in capsys.readouterr().out


class TestWorkerCounts:
    @pytest.mark.parametrize("command", ["resynth", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_bad_jobs_is_a_clean_usage_error(self, command, jobs,
                                             bench_file, capsys):
        target = (["--grid", bench_file] if command == "sweep"
                  else [bench_file])
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [errors[0]]
        assert "argument --jobs: must be a positive integer" in errors[0]

    @pytest.mark.parametrize("command", ["resynth", "sweep"])
    def test_process_fabric_runs_exactly_jobs_workers(
            self, command, bench_file, tmp_path, monkeypatch, capsys):
        import json

        import repro.fabric
        from repro.io.json_io import circuit_to_json

        started = []

        class Recording(repro.fabric.ProcessFabric):
            def __init__(self, jobs, **kwargs):
                started.append(jobs)
                super().__init__(jobs, **kwargs)

        monkeypatch.setattr(repro.fabric, "ProcessFabric", Recording)
        if command == "sweep":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({
                "format": "repro-sweepspec",
                "circuits": [json.loads(circuit_to_json(c17()))],
                "procedures": ["procedure2"], "ks": [3], "seeds": [1],
                "verify_patterns": 0}))
            argv = ["sweep", "--grid", str(grid),
                    "--out", str(tmp_path / "sweep")]
        else:
            argv = ["resynth", bench_file, "--k", "4"]
        assert main(argv + ["--fabric", "process", "--jobs", "1"]) == 0
        assert started == [1]


class TestIdentify:
    def test_identify_known_net(self, bench_file, capsys):
        assert main(["identify", bench_file, "22", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "22" in out

    def test_identify_missing_net(self, bench_file, capsys):
        assert main(["identify", bench_file, "zz"]) == 1


class TestTables:
    def test_table1_via_cli(self, capsys):
        assert main(["tables", "1"]) == 0
        out = capsys.readouterr().out
        assert "0x1, 1x0" in out

    def test_unknown_table(self, capsys):
        assert main(["tables", "42"]) == 1


class TestFuzz:
    def test_small_clean_run(self, capsys):
        assert main(["fuzz", "--seeds", "4", "-q"]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out

    def test_oracle_subset(self, capsys):
        assert main(["fuzz", "--seeds", "3", "--oracle", "sim",
                     "--oracle", "unit", "-q"]) == 0
        out = capsys.readouterr().out
        assert "sim:3" in out and "unit:3" in out
        assert "fault" not in out

    def test_inject_self_test_catches_and_shrinks(self, tmp_path, capsys):
        assert main(["fuzz", "--seeds", "12", "--inject", "nand",
                     "--artifacts", str(tmp_path), "-q"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "inject self-test OK" in out
        assert list(tmp_path.glob("sim_seed*.json"))

    def test_replay_of_fixed_artifacts_is_clean(self, tmp_path, capsys):
        main(["fuzz", "--seeds", "12", "--inject", "xor",
              "--artifacts", str(tmp_path), "-q"])
        capsys.readouterr()
        artifacts = [str(p) for p in sorted(tmp_path.glob("*.json"))]
        assert artifacts
        assert main(["replay"] + artifacts) == 0
        out = capsys.readouterr().out
        assert "does not reproduce" in out


class TestResynthReportOut:
    def test_out_json_writes_full_report(self, bench_file, tmp_path,
                                         capsys):
        out_path = str(tmp_path / "report.json")
        assert main(["resynth", bench_file, "--k", "4",
                     "--out", out_path]) == 0
        assert "passes" in capsys.readouterr().out  # timing summary
        import json

        from repro.resynth import report_from_json

        with open(out_path) as fh:
            doc = json.load(fh)
        assert doc["format"] == "repro-resynth-report"
        assert doc["circuit"]["format"] == "repro-netlist"
        assert len(doc["pass_seconds"]) == doc["passes"]
        report = report_from_json(json.dumps(doc))
        report.circuit.validate()


class TestServiceCommands:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import (
            ArtifactStore,
            ServiceServer,
            SupervisorConfig,
        )

        store = ArtifactStore(str(tmp_path / "service"))
        config = SupervisorConfig(max_retries=0, heartbeat_interval=0.2,
                                  poll_interval=0.02)
        with ServiceServer(store, port=0, config=config) as srv:
            yield srv

    def test_submit_wait_jobs_result_round_trip(self, server, bench_file,
                                                tmp_path, capsys):
        url = server.url
        assert main(["submit", bench_file, "--url", url, "--k", "4",
                     "--perm-budget", "20", "--max-passes", "2",
                     "--wait", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        job_id = out.split(":", 1)[0]
        assert "submitted" in out and "succeeded" in out

        assert main(["jobs", "--url", url]) == 0
        listing = capsys.readouterr().out
        assert job_id in listing and "succeeded" in listing

        out_path = str(tmp_path / "result.json")
        assert main(["result", job_id, "--url", url,
                     "--out", out_path]) == 0
        assert "gates" in capsys.readouterr().out
        import json

        with open(out_path) as fh:
            assert json.load(fh)["format"] == "repro-resynth-report"

        bench_path = str(tmp_path / "result.bench")
        assert main(["result", job_id, "--url", url,
                     "--out", bench_path]) == 0
        capsys.readouterr()
        from repro.io import load_bench

        load_bench(bench_path).validate()

    def test_submit_rejects_bad_spec(self, server, bench_file, capsys):
        assert main(["submit", bench_file, "--url", server.url,
                     "--k", "99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_result_of_unknown_job_fails(self, server, capsys):
        assert main(["result", "jdeadbeef0000",
                     "--url", server.url]) == 1
        assert "error" in capsys.readouterr().err

"""The leg-table determinism oracles: the shared driver, its comparison
helper, and teeth for the legs and checks that have no other test."""

import dataclasses
import os
import tempfile
import threading

import pytest

import repro.fabric.core
import repro.fabric.tasks
import repro.memo.store
import repro.resynth.procedures
import repro.sweep.report
import repro.sweep.runner
import repro.verify.oracles
from repro.benchcircuits import random_circuit
from repro.benchcircuits.suite import suite_circuit
from repro.resynth import procedure2
from repro.verify import (
    MemoOracle,
    ParallelOracle,
    SweepOracle,
    default_oracles,
    report_divergence,
    run_fuzz,
)

KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


def circuit():
    return random_circuit("m", 6, 3, 24, seed=7)


class TestReportDivergence:
    def test_identical_runs_agree(self):
        a = procedure2(suite_circuit("syn1423"), **KNOBS)
        b = procedure2(suite_circuit("syn1423"), **KNOBS)
        assert report_divergence(a, b) == []

    def test_every_number_field_and_the_netlist(self):
        a = procedure2(suite_circuit("syn1423"), **KNOBS)
        b = dataclasses.replace(a, mutations=a.mutations + 1)
        assert report_divergence(a, b) == ["mutations"]
        c = dataclasses.replace(a, circuit=suite_circuit("syn1423"))
        assert report_divergence(a, c) == ["netlist"]


class TestTeeth:
    def test_corrupted_fabric_results_name_the_leg(self, monkeypatch):
        # Drop every hit from the identify task's results (forked pool
        # workers inherit the patched registry): the fabric legs install
        # "no realization" answers and find fewer replacements than the
        # serial reference, which never runs a fabric task.
        kind = repro.fabric.tasks.task_kind("identify")

        def lossy(payload):
            return [(table, n, (), tried)
                    for table, n, _hits, tried in kind.run(payload)]

        monkeypatch.setitem(repro.fabric.tasks._KINDS, "identify",
                            dataclasses.replace(kind, run=lossy))
        violations = ParallelOracle().check_circuit(circuit(), seed=7)
        assert violations
        legs = {v.details["leg"] for v in violations}
        assert legs == {"jobs=2", "serial shards=1", "process shards=2"}
        assert all(v.details["leg"] in v.message for v in violations)

    def test_idle_fabric_is_detected(self, monkeypatch):
        # A fabric whose map runs nothing leaves every report correct
        # (the serial path answers everything), so only the non-idle
        # check can notice.
        monkeypatch.setattr(repro.fabric.core.Fabric, "map",
                            lambda self, tasks: [])
        violations = ParallelOracle().check_circuit(circuit(), seed=7)
        assert violations
        assert all("ran no tasks" in v.message for v in violations)
        assert {v.details["leg"] for v in violations} == {
            "jobs=2", "serial shards=1", "process shards=2"}

    def test_unrecorded_backend_is_detected(self, monkeypatch):
        # A run that forgets which fabric it used still gets every number
        # right, so only the timings check can notice.
        real = repro.resynth.procedures._run

        def forgetful(*args, **kwargs):
            report = real(*args, **kwargs)
            report.timings.pop("fabric", None)
            return report

        monkeypatch.setattr(repro.resynth.procedures, "_run", forgetful)
        violations = ParallelOracle().check_circuit(circuit(), seed=7)
        assert violations
        assert all("timings" in v.message for v in violations)
        assert {v.details["leg"] for v in violations} == {
            "serial shards=1", "process shards=2"}

    def test_store_dropping_every_put_is_detected(self, monkeypatch):
        # Nothing recorded means nothing to hit: the warm leg misses
        # every lookup, which only the zero-miss check reports.
        monkeypatch.setattr(repro.memo.store.MemoStore, "record",
                            lambda self, *a, **kw: None)
        violations = MemoOracle().check_circuit(circuit(), seed=7)
        assert violations
        assert all(v.details["leg"] == "warm" for v in violations)
        assert all("missed" in v.message for v in violations)

    def test_wrong_pareto_front_trips_the_referee(self, monkeypatch):
        # Every leg aggregates through the same (broken) front, so legs
        # still agree; only the independent dominance scan can object.
        # build_sweep_report looks pareto_front up in its own module.
        monkeypatch.setattr(repro.sweep.report, "pareto_front",
                            lambda points: [])
        violations = SweepOracle().check_circuit(circuit(), seed=7)
        assert violations
        assert all(v.details["leg"] == "reference" for v in violations)
        assert all("brute-force" in v.message for v in violations)

    def test_cell_differing_from_its_job_is_detected(self, monkeypatch):
        # Corrupt the in-process resynth_cell task: sweep cells no longer
        # equal their standalone jobs, which the standalone leg reports.
        kind = repro.fabric.tasks.task_kind("resynth_cell")

        def corrupting(payload):
            doc = kind.run(payload)
            doc["replacements"] += 1
            return doc

        monkeypatch.setitem(repro.fabric.tasks._KINDS, "resynth_cell",
                            dataclasses.replace(kind, run=corrupting))
        violations = SweepOracle().check_circuit(circuit(), seed=7)
        assert any(v.details["leg"] == "standalone"
                   and "replacements" in v.message for v in violations)

    def test_resume_rerunning_finished_cells_is_detected(self, monkeypatch):
        # A resume that ignores the stored cell reports gets every number
        # right by re-running them all; only the executed-set check sees.
        monkeypatch.setattr(repro.sweep.runner.SweepRunner,
                            "_load_finished", lambda self, cells: {})
        violations = SweepOracle().check_circuit(circuit(), seed=7)
        assert violations
        assert all(v.details["leg"] == "resumed" for v in violations)
        assert all("instead of exactly the deleted cells" in v.message
                   for v in violations)


def test_fuzz_leaves_no_server_or_scratch_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    before = set(threading.enumerate())
    report = run_fuzz(oracles=default_oracles(["parallel", "sweep"]),
                      seeds=1)
    assert report.ok
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith("repro-fuzz-")]
    leaked = [t.name for t in set(threading.enumerate()) - before
              if t.name.startswith("repro-service")]
    assert leaked == []


@pytest.mark.parametrize("oracle_cls", [ParallelOracle, SweepOracle])
def test_large_circuits_are_skipped(oracle_cls):
    oracle = oracle_cls(max_inputs=4)
    assert oracle.check_circuit(random_circuit("m", 9, 3, 30, seed=0),
                                seed=0) == []


@pytest.mark.parametrize("name", ["parallel", "resume", "memo", "sweep"])
def test_settings_are_the_shared_four(name):
    # The oracles share one settings list, and each oracle reads all of
    # it (the sweep grid spans K in {k - 1, k}).
    oracle, = default_oracles([name])
    assert [f.name for f in dataclasses.fields(oracle)] == [
        "k", "perm_budget", "max_passes", "max_inputs"]


def test_sweep_grid_follows_k():
    oracle = SweepOracle(k=5)
    env = repro.verify.oracles.LegEnv(circuit(), 7, oracle.salt)
    next(oracle.subjects(env))
    assert env.spec.ks == (4, 5)

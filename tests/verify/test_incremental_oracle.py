"""The ``incremental`` oracle: clean on correct code, sharp on poisoned caches."""

from repro.analysis import AnalysisSession
from repro.netlist import CircuitBuilder
from repro.resynth.procedures import CandidateCache
from repro.verify import (
    IncrementalOracle,
    generate_case,
    incremental_state_mismatch,
    run_fuzz,
)


def primed():
    b = CircuitBuilder("primed")
    a, c = b.inputs("a", "b")
    g1 = b.AND(a, c, name="g1")
    g2 = b.OR(g1, a, name="g2")
    b.outputs(g2)
    circ = b.build()
    circ.fanout_map()
    circ.topological_order()
    circ.levels()
    return circ


class TestMismatchDetector:
    def test_clean_circuit_reports_none(self):
        c = primed()
        with AnalysisSession(c) as s:
            s.labels()
            assert incremental_state_mismatch(c, s) is None

    def test_detects_poisoned_fanout(self):
        c = primed()
        c.fanout_map()["g1"].append("g2")  # phantom reader
        msg = incremental_state_mismatch(c)
        assert msg is not None and "fanout" in msg

    def test_detects_poisoned_levels(self):
        c = primed()
        c.levels()["g2"] += 1
        msg = incremental_state_mismatch(c)
        assert msg is not None and "levels" in msg

    def test_detects_poisoned_canonical_order(self):
        c = primed()
        order = c.topological_order()
        i = order.index("g1")
        j = order.index("g2")
        order[i], order[j] = order[j], order[i]
        msg = incremental_state_mismatch(c)
        assert msg is not None and "topological" in msg

    def test_detects_poisoned_labels(self):
        c = primed()
        with AnalysisSession(c) as s:
            s.labels()["g2"] += 5
            msg = incremental_state_mismatch(c, s)
            assert msg is not None and "labels" in msg


class TestOracleRuns:
    def test_clean_over_seed_range(self):
        oracle = IncrementalOracle()
        for seed in range(30):
            assert oracle.check_circuit(generate_case(seed), seed) == []

    def test_wired_into_fuzz_driver(self):
        report = run_fuzz(seeds=5, seed_base=7,
                          oracles=[IncrementalOracle()])
        assert report.ok, report.summary()
        assert report.checks_run == {"incremental": 5}


class TestCandidateCacheLeg:
    """Each reuse rule of the candidate cache is load-bearing.

    Every test drops one rule and expects the oracle's candidate leg to
    name the divergence on one of the first 20 seeds.
    """

    def assert_caught(self):
        oracle = IncrementalOracle()
        for seed in range(20):
            found = oracle.check_circuit(generate_case(seed), seed)
            if found:
                assert "candidate cache" in found[0].message
                return
        raise AssertionError("no seed exposed the dropped rule")

    def test_dropping_the_reader_gained_invalidation_is_caught(
            self, monkeypatch):
        monkeypatch.setattr(CandidateCache, "_reader_gained",
                            lambda self, net: None)
        self.assert_caught()

    def test_dropping_the_frozen_check_is_caught(self, monkeypatch):
        monkeypatch.setattr(CandidateCache, "_frozen_part",
                            staticmethod(lambda order, frozen: frozenset()))
        self.assert_caught()

    def test_dropping_the_input_order_check_is_caught(self, monkeypatch):
        monkeypatch.setattr(CandidateCache, "_order_holds",
                            lambda self, order: True)
        self.assert_caught()

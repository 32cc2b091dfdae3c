"""The parallel candidate-evaluation layer (`repro.parallel`).

The determinism contract is the headline: procedure reports and result
netlists must be bit-identical at any ``jobs`` value.  The rest covers the
evaluator's lifecycle, the priming statistics, and the crashed-worker
error path (a worker failure must surface as one clean exception, never a
hang).
"""

import pytest

from repro.analysis import AnalysisSession
from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.parallel import (
    ParallelEvaluator,
    ParallelExecutionError,
    PassPrimeStats,
    preferred_start_method,
)
from repro.parallel.worker import (
    evaluate_candidate_chunk,
    extract_chunk,
    identify_chunk,
)
from repro.resynth import procedure2, procedure3
from repro.sim import cone_signature
from repro.resynth.candidates import enumerate_candidate_cones
from repro.verify import report_divergence

#: Small knobs so the four procedure runs per case stay seconds-scale.
KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


class TestBitIdentity:
    """jobs=1 and jobs=4 must agree bit for bit (ISSUE acceptance)."""

    @pytest.mark.parametrize("name", ["syn1423", "syn5378"])
    @pytest.mark.parametrize("proc", [procedure2, procedure3],
                             ids=["procedure2", "procedure3"])
    def test_report_and_netlist_identical(self, name, proc):
        circuit = suite_circuit(name)
        identification_cache().clear()
        serial = proc(circuit, **KNOBS)
        identification_cache().clear()  # force real worker computation
        parallel = proc(circuit, jobs=4, **KNOBS)
        identification_cache().clear()
        assert report_divergence(serial, parallel) == []
        assert serial.summary() == parallel.summary()
        assert serial.jobs == 1
        assert parallel.jobs == 4

    def test_jobs_recorded_and_validated(self):
        circuit = suite_circuit("syn1423")
        report = procedure2(circuit, **KNOBS)
        assert report.jobs == 1
        with pytest.raises(ValueError):
            procedure2(circuit, jobs=0, **KNOBS)


class TestWorkerFunctions:
    """The pickling-boundary functions, run in-process."""

    def chunk_items(self, name="syn1423", k=4, limit=40):
        circuit = suite_circuit(name)
        items, seen = [], set()
        for net in reversed(circuit.topological_order()):
            if not circuit.gate(net).fanins:
                continue
            for cone in enumerate_candidate_cones(circuit, net, k):
                if not cone.inputs:
                    continue
                sig = cone_signature(circuit, cone.output, cone.members,
                                     cone.inputs)
                if sig not in seen:
                    seen.add(sig)
                    items.append((sig, len(cone.inputs)))
            if len(items) >= limit:
                break
        return items[:limit]

    def test_one_shot_equals_two_rounds(self):
        items = self.chunk_items()
        knobs = (24, True, 3, 6)  # perm_budget, try_offset, seed, max_specs
        reports = evaluate_candidate_chunk(items, *knobs)
        extracted = extract_chunk(items)
        assert [(r.signature, r.n_inputs, r.table) for r in reports] == \
            extracted
        nonconst = [
            (table, n) for _, n, table in extracted
            if table not in (0, (1 << (1 << n)) - 1)
        ]
        identified = dict(
            ((table, n), (hits, tried))
            for table, n, hits, tried in identify_chunk(nonconst, *knobs)
        )
        for r in reports:
            if r.hits is None:  # constant: never searched
                assert r.table in (0, (1 << (1 << r.n_inputs)) - 1)
            else:
                assert identified[(r.table, r.n_inputs)] == (r.hits, r.tried)

    def test_inject_crash_raises(self):
        from repro.parallel.worker import InjectedWorkerCrash

        with pytest.raises(InjectedWorkerCrash):
            extract_chunk([], inject_crash=True)
        with pytest.raises(InjectedWorkerCrash):
            identify_chunk([], 24, True, 0, 6, inject_crash=True)


class TestEvaluator:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(0)
        with pytest.raises(ValueError):
            ParallelEvaluator(2, chunk_factor=0)

    def test_preferred_start_method(self):
        assert preferred_start_method() in ("fork", "spawn")

    def test_prime_pass_stats_and_cache_warmup(self):
        circuit = suite_circuit("syn1423")
        session = AnalysisSession(circuit)
        id_cache = identification_cache()
        id_cache.clear()
        try:
            with ParallelEvaluator(jobs=2) as ev:
                stats = ev.prime_pass(circuit, session, k=4, perm_budget=24,
                                      seed=5, max_specs=6)
                assert isinstance(stats, PassPrimeStats)
                assert stats.sites > 0
                assert stats.cones >= stats.unique_cones >= stats.shipped
                assert stats.merged_tables == stats.shipped
                assert 0 < stats.merged_identifications <= stats.shipped
                assert stats.chunks > 0
                # Re-priming the unchanged pass finds everything cached.
                again = ev.prime_pass(circuit, session, k=4, perm_budget=24,
                                      seed=5, max_specs=6)
                assert again.shipped == 0
                assert again.merged_tables == 0
                assert again.merged_identifications == 0
        finally:
            session.close()
            id_cache.clear()

    def test_crashed_worker_is_a_clean_error(self):
        """A worker raising mid-pass surfaces as ParallelExecutionError."""
        circuit = suite_circuit("syn1423")
        session = AnalysisSession(circuit)
        ev = ParallelEvaluator(jobs=2, inject_crash=True)
        try:
            with pytest.raises(ParallelExecutionError) as exc_info:
                ev.prime_pass(circuit, session, k=4, perm_budget=24,
                              seed=5, max_specs=6)
            assert "injected worker crash" in str(exc_info.value)
            # The owned fabric's pool was torn down on the way out.
            assert ev.fabric is not None
            assert ev.fabric._executor is None
        finally:
            ev.close()
            session.close()

    def test_close_is_idempotent(self):
        ev = ParallelEvaluator(jobs=1)
        ev.close()
        ev.close()

"""The determinism contract across fabric backends (docs/FABRIC.md).

A procedure run with ``fabric=`` must produce a report and netlist
bit-identical to the plain serial run — for any backend, at any shard
count.  The ``parallel`` fuzz oracle sweeps this across random circuits;
these tests pin one deliberate case per backend.
"""

import pytest

from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.fabric import ProcessFabric, SerialFabric
from repro.resynth import procedure2
from repro.verify import report_divergence

#: Small knobs so the three runs stay seconds-scale.
KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


@pytest.fixture(scope="module")
def baseline():
    identification_cache().clear()
    report = procedure2(suite_circuit("syn1423"), **KNOBS)
    identification_cache().clear()
    return report


class TestFabricBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_serial_fabric_any_shard_count(self, baseline, shards):
        with SerialFabric(shards=shards) as fabric:
            report = procedure2(suite_circuit("syn1423"),
                                fabric=fabric, **KNOBS)
        identification_cache().clear()
        assert report_divergence(baseline, report) == []
        assert report.timings["fabric"] == "serial"

    @pytest.mark.parametrize("shards", [1, 3])
    def test_process_fabric_any_shard_count(self, baseline, shards):
        with ProcessFabric(2, shards=shards) as fabric:
            report = procedure2(suite_circuit("syn1423"),
                                fabric=fabric, **KNOBS)
        identification_cache().clear()
        assert report_divergence(baseline, report) == []
        assert report.timings["fabric"] == "process"

"""Differential verification & fuzzing (``repro.verify``).

The correctness tooling for the rest of the package: a naive scalar
reference interpreter, pluggable differential oracles that cross-check the
independent engines (packed simulation, event-driven fault simulation, the
PODEM miter, comparison-unit construction, and one reference-vs-legs
driver for the determinism oracles: backends, checkpoint/resume, the
persistent memo and sweeps), a delta-debugging counterexample shrinker,
deterministic JSON repro artifacts, and a seeded fuzz driver with seed-
and time-budgeted modes.

Entry points: :func:`run_fuzz` (library), ``repro-resynth fuzz`` /
``python -m repro fuzz`` (CLI), and the replayable corpus regression under
``tests/verify/corpus/``.  See ``docs/VERIFICATION.md`` for the full tour.
"""

from .artifact import (
    ReproArtifact,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from .fuzz import (
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
    generate_case,
    run_fuzz,
)
from .oracles import (
    ComparisonUnitOracle,
    FaultSimOracle,
    IncrementalOracle,
    MemoOracle,
    ORACLE_NAMES,
    Oracle,
    ParallelOracle,
    ResumeOracle,
    ResynthOracle,
    SimulatorOracle,
    SweepOracle,
    Violation,
    default_oracles,
    incremental_state_mismatch,
    inject_stuck_fault,
    netlist_dump,
    report_divergence,
    spec_from_seed,
)
from .refsim import (
    buggy_gate_eval,
    ref_output_vector,
    ref_simulate_pattern,
    ref_truth_tables,
)
from .shrink import ShrinkResult, shrink_circuit

__all__ = [
    "ComparisonUnitOracle",
    "FaultSimOracle",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "IncrementalOracle",
    "MemoOracle",
    "ORACLE_NAMES",
    "Oracle",
    "ParallelOracle",
    "ReproArtifact",
    "ResumeOracle",
    "ResynthOracle",
    "ShrinkResult",
    "SimulatorOracle",
    "SweepOracle",
    "Violation",
    "buggy_gate_eval",
    "default_oracles",
    "generate_case",
    "incremental_state_mismatch",
    "inject_stuck_fault",
    "load_artifact",
    "netlist_dump",
    "ref_output_vector",
    "ref_simulate_pattern",
    "ref_truth_tables",
    "replay_artifact",
    "report_divergence",
    "run_fuzz",
    "shrink_circuit",
    "spec_from_seed",
    "write_artifact",
]

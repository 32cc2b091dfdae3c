"""The fabric task registry: kinds and their run functions.

A *task kind* is a name bound to the pure ``run`` function a backend
executes.  :class:`~repro.fabric.core.SerialFabric` calls ``run``
inline and :class:`~repro.fabric.core.ProcessFabric` pickles the
in-memory payload to a pool worker, so a payload is plain picklable
data and the same task yields the same result on either backend.

The production kinds wrap the pickling-boundary functions of
:mod:`repro.parallel.worker` (unchanged — they remain the complete
semantic boundary of candidate evaluation):

``extract``
    Cone slices to truth tables (``extract_chunk``).  Payload items are
    ``(cone_signature, n_inputs)`` pairs; results are
    ``(signature, n, table)`` rows.
``identify``
    Unique tables to comparison-function search results
    (``identify_chunk``).  Payload carries the ``(table, n)`` items plus
    the pass's identification knobs; results are
    ``(table, n, hits, tried)`` rows.
``resynth_cell``
    One whole resynthesis run — a sweep cell (see below).

``inject_crash`` travels inside the ``extract``/``identify`` payloads,
so the fault-injection knob exercises both backends' failure paths.

Tests may register extra kinds (:func:`register_task_kind`) — e.g. a
sleeping echo to provoke out-of-order completion — without touching the
production registry entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .core import FabricTask

__all__ = [
    "TaskKind",
    "register_task_kind",
    "task_kind",
    "task_kind_names",
    "run_task",
]


@dataclass(frozen=True)
class TaskKind:
    """One registered task kind.

    ``run`` maps an in-memory payload to an in-memory result and must be
    a pure function of it.
    """

    name: str
    run: Callable[[Dict[str, object]], object]


_KINDS: Dict[str, TaskKind] = {}


def register_task_kind(kind: TaskKind) -> TaskKind:
    """Register (or replace) a task kind; returns it for convenience."""
    if not kind.name:
        raise ValueError("task kind needs a non-empty name")
    _KINDS[kind.name] = kind
    return kind


def task_kind(name: str) -> TaskKind:
    """The registered kind, or :class:`ValueError` for unknown names."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown task kind {name!r} (registered: "
            f"{', '.join(sorted(_KINDS)) or 'none'})"
        ) from None


def task_kind_names() -> List[str]:
    """Sorted names of every registered kind."""
    return sorted(_KINDS)


def run_task(task: FabricTask) -> object:
    """Execute one task in this process (every backend bottoms out here)."""
    return task_kind(task.kind).run(task.payload)


# --------------------------------------------------------------------- #
# candidate evaluation: extraction and identification
# --------------------------------------------------------------------- #


def _run_extract(payload: Dict[str, object]) -> List[Tuple]:
    # Imported lazily: the planner package imports the fabric, so the
    # fabric must not import the planner package at module scope.
    from ..parallel.worker import extract_chunk

    return extract_chunk(payload["items"],
                         inject_crash=bool(payload.get("inject_crash")))


def _run_identify(payload: Dict[str, object]) -> List[Tuple]:
    from ..parallel.worker import identify_chunk

    return identify_chunk(
        payload["items"],
        payload["perm_budget"],
        payload["try_offset"],
        payload["seed"],
        payload["max_specs"],
        inject_crash=bool(payload.get("inject_crash")),
    )


register_task_kind(TaskKind(name="extract", run=_run_extract))
register_task_kind(TaskKind(name="identify", run=_run_identify))


# --------------------------------------------------------------------- #
# the whole-cell resynthesis kind
# --------------------------------------------------------------------- #
#
# ``resynth_cell`` ships one *entire* resynthesis run — a sweep cell —
# as a single task: the payload is a job spec document, the result the
# finished report document (result netlist embedded).  Where ``extract``
# and ``identify`` fan one job's candidate evaluation out, this kind
# fans *jobs themselves* out, which is how ``repro.sweep`` spreads a
# grid over a process pool.  The run function goes through the same
# bound-procedure path as the job service's runner, so a cell's report
# is bit-identical to a standalone run of the same spec.
#
# ``memo`` (optional, a directory path) names a persistent
# identification cache; like everywhere else it can change only the
# wall clock, never the report, so it is excluded from cell identity.


def _run_resynth_cell(payload: Dict[str, object]) -> Dict[str, object]:
    # Imported lazily: the service package imports the fabric, so the
    # fabric must not import the service package at module scope.
    from ..resynth.serialize import report_to_doc
    from ..service.jobspec import resolve_circuit, spec_from_doc
    from ..service.runner import procedure_call

    spec = spec_from_doc(payload["spec"])
    circuit = resolve_circuit(spec)
    report = procedure_call(spec)(circuit, memo=payload.get("memo"))
    return report_to_doc(report)


register_task_kind(TaskKind(name="resynth_cell", run=_run_resynth_cell))

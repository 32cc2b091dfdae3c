"""repro.fabric — one fan-out abstraction for candidate evaluation and sweeps.

A :class:`Fabric` maps a batch of :class:`FabricTask` values (pure
functions from the :mod:`repro.fabric.tasks` registry) to their results
in task order, with ``fabric_*`` obs instrumentation.  Two backends,
bit-identical by contract:

============================  =========================================
:class:`SerialFabric`         inline, in-process — the reference
:class:`ProcessFabric`        local ``ProcessPoolExecutor`` fan-out
============================  =========================================

See docs/FABRIC.md for the backends and the determinism contract.
:mod:`repro.parallel` is the cache-priming planner that sits on top of
this layer.
"""

from .core import (
    Fabric,
    FabricExecutionError,
    FabricTask,
    ProcessFabric,
    SerialFabric,
    preferred_start_method,
)
from .tasks import (
    TaskKind,
    register_task_kind,
    run_task,
    task_kind,
    task_kind_names,
)

__all__ = [
    "Fabric",
    "FabricExecutionError",
    "FabricTask",
    "ProcessFabric",
    "SerialFabric",
    "TaskKind",
    "preferred_start_method",
    "register_task_kind",
    "run_task",
    "task_kind",
    "task_kind_names",
]

"""The fabric interface and its two backends.

A :class:`Fabric` executes a batch of :class:`FabricTask` values —
pure-function work units from the registry in :mod:`repro.fabric.tasks`
— and returns their results **in task order**, regardless of the order
they actually ran in.  That ordering guarantee, together with the task
purity the registry demands, is what lets every caller treat backends
as interchangeable: the planner in :mod:`repro.parallel` keeps its
determinism contract (bit-identical reports at any shard count on
either backend) without knowing whether a task ran inline or in a local
process pool.

Backends
--------
:class:`SerialFabric`
    Runs tasks inline, one after another.  The bit-identical reference
    the process pool is measured against — and the cheapest backend
    when the batch is small.
:class:`ProcessFabric`
    A ``ProcessPoolExecutor`` fan-out (the pool logic that used to live
    inside ``repro.parallel.ParallelEvaluator``).  One task maps to one
    pool future; a broken pool is torn down and lazily rebuilt.

Failure discipline
------------------
Task failures are deterministic (a pure function fails the same way
every time), so nothing is retried: :meth:`Fabric.map` runs the whole
batch and turns any failure into one :class:`FabricExecutionError` with
the first failed task's exception chained.  A process pool that cannot
accept work raises :class:`FabricExecutionError` directly.

Every backend emits ``fabric_*`` obs metrics and a ``fabric.map`` span
per batch (see docs/OBSERVABILITY.md); docs/FABRIC.md is the full
reference.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import Registry, get_registry, maybe_tracer

__all__ = [
    "Fabric",
    "FabricExecutionError",
    "FabricTask",
    "ProcessFabric",
    "SerialFabric",
    "preferred_start_method",
]


class FabricExecutionError(RuntimeError):
    """A task batch could not be completed.

    Raised by :meth:`Fabric.map` when a task fails (the offending
    exception is chained), and by :class:`ProcessFabric` when its pool
    cannot accept work.
    """


def preferred_start_method() -> str:
    """The multiprocessing start method :class:`ProcessFabric` defaults to.

    ``fork`` when the platform offers it (cheap, inherits the warm code
    and caches), ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class FabricTask:
    """One unit of fabric work: a registered kind plus its payload.

    ``kind`` names an entry in the :mod:`repro.fabric.tasks` registry;
    ``payload`` is the kind's input document — plain picklable data
    (dicts, lists, tuples, ints, strings, bools), so the same task runs
    inline (:class:`SerialFabric`) or crosses the pickling boundary
    (:class:`ProcessFabric`) unchanged.  The kind's ``run`` function
    must be a pure function of the payload: that is the whole basis of
    the backend-interchangeability contract.
    """

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError(f"task kind must be a non-empty string, "
                             f"got {self.kind!r}")


#: One task's outcome: (ok, result-or-exception).
_Outcome = Tuple[bool, object]


class Fabric:
    """Base class: the ordering guarantee, error shape and obs plumbing.

    Subclasses implement :meth:`_run` — execute the batch any way they
    like, reporting one outcome per task in task order — and inherit
    the failure-to-error translation and the metrics.

    Parameters
    ----------
    shards:
        Optional fixed shard-count hint for planners (see
        :meth:`shard_count`); ``None`` lets the planner derive one from
        :attr:`parallelism`.
    tracer / registry:
        Obs sinks (``fabric.map`` spans; ``fabric_*`` metrics).
        Defaults: null tracer, process-wide registry.
    """

    #: Backend label, used in metrics/spans and error messages.
    name = "fabric"
    #: How many tasks the backend can genuinely run at once.
    parallelism = 1

    def __init__(
        self,
        shards: Optional[int] = None,
        tracer=None,
        registry: Optional[Registry] = None,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.tracer = maybe_tracer(tracer)
        self.registry = registry if registry is not None else get_registry()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release backend resources (idempotent; base: nothing to do)."""

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # planning hint
    # ------------------------------------------------------------------ #

    def shard_count(self, n_items: int, chunk_factor: int = 4) -> int:
        """How many shards a planner should split *n_items* into.

        A fixed :attr:`shards` wins when set (the fuzz oracle pins shard
        counts with it); otherwise ``parallelism * chunk_factor``,
        bounded by the item count — the same oversharding heuristic the
        process pool always used to smooth load imbalance.
        """
        if n_items <= 0:
            return 0
        wanted = self.shards or max(1, self.parallelism * chunk_factor)
        return min(n_items, wanted)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _run(self, tasks: Sequence[FabricTask]) -> List[_Outcome]:
        """Execute *tasks*; one ``(ok, value)`` outcome each, in task order."""
        raise NotImplementedError

    def map(self, tasks: Sequence[FabricTask]) -> List[object]:
        """Run *tasks* and return their results in task order.

        The whole batch runs; any failed task then raises one
        :class:`FabricExecutionError` chaining the first failure.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        registry = self.registry
        registry.inc("fabric_tasks_total", len(tasks))
        hist = registry.get_histogram(
            "fabric_map_seconds", "wall clock of one fabric task batch")
        start = time.perf_counter()
        with self.tracer.span("fabric.map", backend=self.name,
                              tasks=len(tasks)) as span:
            outcomes = self._run(tasks)
            failures = [(i, value) for i, (ok, value) in enumerate(outcomes)
                        if not ok]
            span.annotate(failed=len(failures))
        hist.observe(time.perf_counter() - start)
        if failures:
            registry.inc("fabric_failed_tasks_total", len(failures))
            index, exc = failures[0]
            raise FabricExecutionError(
                f"{len(failures)} of {len(tasks)} task(s) failed on the "
                f"{self.name} fabric (first: task {index}: {exc})"
            ) from exc
        return [value for _, value in outcomes]


class SerialFabric(Fabric):
    """Inline execution, one task after another — the reference backend.

    Bit-identical to the process pool by definition of the task
    contract, and the fastest choice when batches are small enough that
    fan-out overhead would dominate.
    """

    name = "serial"
    parallelism = 1

    def _run(self, tasks: Sequence[FabricTask]) -> List[_Outcome]:
        from .tasks import run_task

        outcomes: List[_Outcome] = []
        for task in tasks:
            try:
                outcomes.append((True, run_task(task)))
            except Exception as exc:  # noqa: BLE001 — per-task reporting
                outcomes.append((False, exc))
        return outcomes


class ProcessFabric(Fabric):
    """A local process pool: one task per pool future.

    This backend absorbs the executor logic that used to live inside
    ``repro.parallel.ParallelEvaluator``: lazy pool creation, the
    preferred start method, deterministic submission order, and the
    tear-it-down-on-failure discipline (a broken pool is closed so the
    next batch starts from a clean one).

    Thread-safe: ``ProcessPoolExecutor.submit`` is thread-safe and the
    pool create/teardown path is lock-guarded.
    """

    name = "process"

    def __init__(
        self,
        jobs: int,
        start_method: Optional[str] = None,
        shards: Optional[int] = None,
        tracer=None,
        registry: Optional[Registry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        super().__init__(shards=shards, tracer=tracer, registry=registry)
        self.jobs = jobs
        self.parallelism = jobs
        self.start_method = start_method or preferred_start_method()
        self._executor: Optional[ProcessPoolExecutor] = None
        import threading

        self._pool_lock = threading.Lock()

    def _pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context(
                        self.start_method),
                )
            return self._executor

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def _run(self, tasks: Sequence[FabricTask]) -> List[_Outcome]:
        from .tasks import run_task

        dispatch = self.registry.get_histogram(
            "fabric_task_seconds",
            "submit-to-done latency of one fabric task (queue + compute)")
        submitted = time.perf_counter()

        def _observe_done(_future: Future) -> None:
            # Runs on a pool thread as each task finishes; the registry
            # is thread-safe.
            dispatch.observe(time.perf_counter() - submitted)

        futures: List[Future] = []
        try:
            for task in tasks:
                future = self._pool().submit(run_task, task)
                future.add_done_callback(_observe_done)
                futures.append(future)
        except Exception as exc:  # pool is broken before/while submitting
            for future in futures:
                future.cancel()
            self.close()
            raise FabricExecutionError(
                f"the {self.name} fabric could not submit tasks "
                f"({self.jobs} job(s)): {exc}"
            ) from exc
        outcomes: List[_Outcome] = []
        broken = False
        for future in futures:
            try:
                outcomes.append((True, future.result()))
            except Exception as exc:  # noqa: BLE001 — per-task reporting
                outcomes.append((False, exc))
                # A hard-killed worker breaks the whole pool; tear it
                # down so the next batch gets a fresh one.
                from concurrent.futures.process import BrokenProcessPool

                if isinstance(exc, BrokenProcessPool):
                    broken = True
        if broken:
            self.close()
        return outcomes

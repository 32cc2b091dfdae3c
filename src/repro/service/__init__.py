"""Checkpointable resynthesis job service (``repro.service``).

Turns one-shot resynthesis calls into supervised, resumable jobs behind
a stdlib-only HTTP JSON API: a content-addressed job model
(:mod:`jobspec`), a file-backed artifact store holding specs, pass-level
checkpoints, progress events and reports (:mod:`store`), a runner whose
interrupted jobs resume bit-identically (:mod:`runner`), worker
subprocess supervision with heartbeats and bounded retries
(:mod:`supervisor`), and the HTTP service itself (:mod:`api`) with its
client (:mod:`client`).  Metrics go through :class:`repro.obs.Registry`
directly.

The HTTP front end is the asyncio one (:mod:`asgi`, served by the
stdlib ASGI host in :mod:`aserver`): long-poll and SSE event streaming
on connection-cheap coroutines, batch submit, per-tenant API-key auth
with quotas and priorities (:mod:`tenants`), bounded-queue backpressure
(429 + ``Retry-After``), and listings answered from a SQLite metadata
index (:mod:`index`) rebuilt from the store at startup.

Entry points: ``repro-resynth serve`` / ``submit`` / ``jobs`` /
``result`` on the CLI, :class:`ServiceServer` in-process.  The full
lifecycle, checkpoint format and determinism contract are documented in
``docs/SERVICE.md``; deployment and operations in ``docs/OPERATIONS.md``.
"""

import importlib

#: Public name -> the submodule that defines it.  Names load on first
#: access (PEP 562): the supervisor's worker processes import
#: ``repro.service.store`` alone, and must not pay for the HTTP front
#: end and the resynthesis engine before their first heartbeat.
_EXPORTS = {
    "ResynthesisService": "api",
    "API_VERSION": "asgi",
    "ServiceApp": "asgi",
    "ServiceServer": "asgi",
    "ServiceAPIError": "client",
    "ServiceClient": "client",
    "ServiceConnectionError": "client",
    "JobIndex": "index",
    "default_index_path": "index",
    "JobSpec": "jobspec",
    "JobSpecError": "jobspec",
    "PROCEDURES": "jobspec",
    "resolve_circuit": "jobspec",
    "spec_from_doc": "jobspec",
    "spec_from_json": "jobspec",
    "run_job": "runner",
    "ArtifactStore": "store",
    "JOB_STATES": "store",
    "StoreError": "store",
    "TERMINAL_STATES": "store",
    "SweepCoordinator": "sweeps",
    "JobOutcome": "supervisor",
    "SupervisorConfig": "supervisor",
    "WorkerSupervisor": "supervisor",
    "default_worker_command": "supervisor",
    "AuthError": "tenants",
    "BackpressureError": "tenants",
    "PUBLIC_TENANT": "tenants",
    "Tenant": "tenants",
    "TenantRegistry": "tenants",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

"""File-backed artifact store: specs, checkpoints, events, reports.

One directory per job, addressed by the spec's content hash::

    <root>/jobs/<job_id>/
        spec.json                  the JobSpec (write-once)
        status.json                state machine record (atomic replace)
        events.jsonl               append-only progress event log
        heartbeat.json             worker liveness timestamp
        checkpoints/pass_NNNN.json pass-boundary resume points
        report.json                final report + result netlist

Durability discipline (:mod:`repro.persist`): every JSON document is
written to a temp file in the same directory, fsynced, and
``os.replace``d into place (with a directory fsync after), so readers
never see a torn document — across
process *and* system crashes — and a crashed worker leaves at worst a
stale ``.tmp``.  The event log is the one append-only file (fsynced per
event); the store serializes appends per process with a lock, and the
supervisor/worker protocol guarantees the two processes never append
concurrently (the supervisor only writes while the worker is not
running, and waits out a live orphan heartbeat before launching).

States: ``queued -> running -> succeeded | failed`` with
``running -> queued`` on a retryable worker death.  See docs/SERVICE.md
for the full lifecycle.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..persist import atomic_write_text as _atomic_write
from ..persist import fsync_dir as _fsync_dir  # noqa: F401  (re-export)
from .jobspec import JobSpec, spec_from_doc

# The checkpoint and report codecs import the resynthesis engine (and
# NumPy with it), so the four methods that need them import them on
# first use: a worker or supervisor that only touches status, events
# and heartbeats starts without paying for the engine.
if TYPE_CHECKING:
    from ..resynth.procedures import PassCheckpoint, ResynthesisReport

#: Legal job states (the store validates transitions are at least names).
JOB_STATES = ("queued", "running", "succeeded", "failed")

#: States a job cannot leave.
TERMINAL_STATES = ("succeeded", "failed")


class StoreError(RuntimeError):
    """Malformed store contents or an unknown job id."""


class ArtifactStore:
    """Directory-per-job persistence for the resynthesis service."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self._jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self._jobs_dir, exist_ok=True)
        self._event_lock = threading.Lock()
        #: Optional in-process observers.  ``on_status(job_id, record)``
        #: fires after every status replace (the SQLite job index hooks
        #: here so listings never rescan the filesystem);
        #: ``on_event(job_id, seq)`` fires after every in-process event
        #: append (the async front end's broker hooks here to wake
        #: long-pollers without polling).  Worker subprocesses write to
        #: the same files without these hooks — observers that need their
        #: events must also watch the files.
        self.on_status: Optional[Callable[[str, Dict[str, object]], None]] \
            = None
        self.on_event: Optional[Callable[[str, int], None]] = None

    # -- paths ---------------------------------------------------------- #

    def job_dir(self, job_id: str) -> str:
        """The job's directory (no existence check)."""
        if not job_id or "/" in job_id or os.sep in job_id or ".." in job_id:
            raise StoreError(f"illegal job id {job_id!r}")
        return os.path.join(self._jobs_dir, job_id)

    def _path(self, job_id: str, *names: str) -> str:
        return os.path.join(self.job_dir(job_id), *names)

    def has_job(self, job_id: str) -> bool:
        """True when a job with this id has been created."""
        try:
            return os.path.exists(self._path(job_id, "spec.json"))
        except StoreError:
            return False

    def job_ids(self) -> List[str]:
        """All job ids in the store, sorted for stable listings."""
        if not os.path.isdir(self._jobs_dir):
            return []
        return sorted(
            d for d in os.listdir(self._jobs_dir)
            if os.path.exists(os.path.join(self._jobs_dir, d, "spec.json"))
        )

    # -- job creation / spec -------------------------------------------- #

    def create_job(self, spec: JobSpec,
                   tenant: Optional[str] = None) -> tuple:
        """Persist *spec*; returns ``(job_id, created)``.

        Content-addressing makes this idempotent: an identical spec maps
        to the existing job (with whatever state and checkpoints it has)
        and ``created`` is False.  *tenant* (the submitting tenant's
        name) is recorded in the status record of newly created jobs.
        """
        job_id = spec.job_id
        if self.has_job(job_id):
            return job_id, False
        job_dir = self.job_dir(job_id)
        os.makedirs(os.path.join(job_dir, "checkpoints"), exist_ok=True)
        _atomic_write(self._path(job_id, "spec.json"), spec.to_json())
        if tenant is not None:
            self.set_status(job_id, "queued", attempts=0, tenant=tenant)
        else:
            self.set_status(job_id, "queued", attempts=0)
        return job_id, True

    def load_spec(self, job_id: str) -> JobSpec:
        """The job's spec (raises :class:`StoreError` on unknown ids)."""
        path = self._path(job_id, "spec.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return spec_from_doc(json.load(fh))
        except FileNotFoundError:
            raise StoreError(f"unknown job {job_id!r}") from None

    # -- status --------------------------------------------------------- #

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's status record."""
        path = self._path(job_id, "status.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise StoreError(f"unknown job {job_id!r}") from None

    def set_status(self, job_id: str, state: str, **fields: object) -> None:
        """Atomically replace the status record.

        Unspecified bookkeeping fields (``attempts``, ``created``,
        ``tenant``) carry over from the previous record;
        ``error``/``traceback`` do not — a fresh attempt starts clean.
        """
        if state not in JOB_STATES:
            raise StoreError(f"unknown state {state!r}")
        now = time.time()
        try:
            prev = self.status(job_id)
        except StoreError:
            prev = {"created": now, "attempts": 0}
        record: Dict[str, object] = {
            "state": state,
            "created": prev.get("created", now),
            "updated": now,
            "attempts": fields.pop("attempts", prev.get("attempts", 0)),
        }
        if "tenant" not in fields and prev.get("tenant") is not None:
            record["tenant"] = prev["tenant"]
        record.update(fields)
        _atomic_write(self._path(job_id, "status.json"),
                      json.dumps(record, indent=1, sort_keys=True))
        if self.on_status is not None:
            self.on_status(job_id, record)

    # -- events --------------------------------------------------------- #

    def append_event(self, job_id: str, etype: str,
                     **payload: object) -> int:
        """Append one event; returns its sequence number (1-based)."""
        path = self._path(job_id, "events.jsonl")
        with self._event_lock:
            seq = self._last_seq(path) + 1
            event = {"seq": seq, "ts": time.time(), "type": etype}
            event.update(payload)
            line = json.dumps(event, sort_keys=True)
            with open(path, "a+b") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                torn = False
                if size > 0:
                    fh.seek(size - 1)
                    torn = fh.read(1) != b"\n"
                # A crash mid-append can leave a torn final line; start
                # this event on its own line so the log stays parseable
                # (readers skip the torn fragment).
                prefix = "\n" if torn else ""
                fh.write((prefix + line + "\n").encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        if self.on_event is not None:
            self.on_event(job_id, seq)
        return seq

    @staticmethod
    def _last_seq(path: str) -> int:
        """Sequence number of the log's last event, reading only the
        file tail — appends stay O(last line), not O(log).  A full scan
        would also re-read the whole log with fsync already in the
        critical section; the tail read keeps long jobs' per-event cost
        flat and stays correct across the supervisor/worker process
        hand-off (no in-memory counter to go stale)."""
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return 0
        with fh:
            fh.seek(0, os.SEEK_END)
            pos = fh.tell()
            buf = b""
            while pos > 0:
                step = min(4096, pos)
                pos -= step
                fh.seek(pos)
                buf = fh.read(step) + buf
                tail = buf.rstrip()
                if not tail:
                    continue  # trailing whitespace only so far
                newline = tail.rfind(b"\n")
                if newline == -1 and pos > 0:
                    continue  # last line extends beyond what we read
                try:
                    return json.loads(tail[newline + 1:])["seq"]
                except (ValueError, KeyError):
                    break  # torn tail line: fall back to a full scan
            fh.seek(0)
            seq = 0
            for line in fh:
                if not line.strip():
                    continue
                try:
                    seq = json.loads(line)["seq"]
                except (ValueError, KeyError):
                    continue
            return seq

    def events(self, job_id: str, after: int = 0) -> List[Dict[str, object]]:
        """Events with ``seq > after`` in order (empty list when none)."""
        if not self.has_job(job_id):
            raise StoreError(f"unknown job {job_id!r}")
        path = self._path(job_id, "events.jsonl")
        out: List[Dict[str, object]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue  # torn line from a crash mid-append
                    if event["seq"] > after:
                        out.append(event)
        except FileNotFoundError:
            pass
        return out

    # -- heartbeat ------------------------------------------------------ #

    def heartbeat(self, job_id: str) -> None:
        """Record worker liveness now."""
        _atomic_write(self._path(job_id, "heartbeat.json"),
                      json.dumps({"ts": time.time()}))

    def last_heartbeat(self, job_id: str) -> Optional[float]:
        """Timestamp of the last heartbeat (None when never beaten)."""
        try:
            with open(self._path(job_id, "heartbeat.json"),
                      "r", encoding="utf-8") as fh:
                return json.load(fh)["ts"]
        except (FileNotFoundError, KeyError, ValueError):
            return None

    def clear_heartbeat(self, job_id: str) -> None:
        """Forget the previous worker's beat so a fresh attempt is not
        judged against a stale timestamp."""
        try:
            os.unlink(self._path(job_id, "heartbeat.json"))
        except FileNotFoundError:
            pass

    # -- checkpoints ---------------------------------------------------- #

    def write_checkpoint(self, job_id: str, ckpt: PassCheckpoint) -> int:
        """Persist a pass checkpoint; returns the bytes written."""
        directory = self._path(job_id, "checkpoints")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"pass_{ckpt.pass_no:04d}.json")
        from ..resynth.serialize import checkpoint_to_doc

        doc = checkpoint_to_doc(ckpt)
        return _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True))

    def checkpoint_passes(self, job_id: str) -> List[int]:
        """Pass numbers with a stored checkpoint, ascending."""
        directory = self._path(job_id, "checkpoints")
        if not os.path.isdir(directory):
            return []
        passes = []
        for name in os.listdir(directory):
            if name.startswith("pass_") and name.endswith(".json"):
                try:
                    passes.append(int(name[5:-5]))
                except ValueError:
                    continue
        return sorted(passes)

    def load_checkpoint(self, job_id: str,
                        pass_no: int) -> PassCheckpoint:
        """Load one stored checkpoint."""
        from ..resynth.serialize import checkpoint_from_doc

        path = self._path(job_id, "checkpoints", f"pass_{pass_no:04d}.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return checkpoint_from_doc(json.load(fh))
        except FileNotFoundError:
            raise StoreError(
                f"job {job_id!r} has no checkpoint for pass {pass_no}"
            ) from None

    def latest_checkpoint(self, job_id: str) -> Optional[PassCheckpoint]:
        """The most recent checkpoint, or None for a fresh job."""
        passes = self.checkpoint_passes(job_id)
        if not passes:
            return None
        return self.load_checkpoint(job_id, passes[-1])

    # -- report --------------------------------------------------------- #

    def write_report(self, job_id: str, report: ResynthesisReport) -> int:
        """Persist the final report (result netlist embedded)."""
        from ..resynth.serialize import report_to_doc

        doc = report_to_doc(report)
        return _atomic_write(self._path(job_id, "report.json"),
                             json.dumps(doc, indent=1, sort_keys=True))

    def load_report(self, job_id: str) -> Optional[ResynthesisReport]:
        """The final report, or None while the job is still running."""
        from ..resynth.serialize import report_from_doc

        try:
            with open(self._path(job_id, "report.json"),
                      "r", encoding="utf-8") as fh:
                return report_from_doc(json.load(fh))
        except FileNotFoundError:
            return None

    def load_report_doc(self, job_id: str) -> Optional[Dict[str, object]]:
        """The raw report document (what the HTTP API serves)."""
        try:
            with open(self._path(job_id, "report.json"),
                      "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    # -- worker error hand-off ------------------------------------------ #

    def write_worker_error(self, job_id: str, message: str,
                           traceback_text: str) -> None:
        """Record the worker's crash context for the supervisor."""
        _atomic_write(self._path(job_id, "error.json"), json.dumps(
            {"message": message, "traceback": traceback_text},
            indent=1,
        ))

    def read_worker_error(self, job_id: str) -> Optional[Dict[str, str]]:
        """The worker's last crash record, if any."""
        try:
            with open(self._path(job_id, "error.json"),
                      "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def clear_worker_error(self, job_id: str) -> None:
        """Drop a stale crash record before a fresh attempt."""
        try:
            os.unlink(self._path(job_id, "error.json"))
        except FileNotFoundError:
            pass

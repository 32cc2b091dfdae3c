"""Worker subprocess entry point: ``python -m repro.service.workermain``.

The supervisor launches one of these per job attempt.  The worker owns
the job while it runs: it heartbeats (a background thread plus every
pass boundary), writes checkpoints/events/report through the store, and
on an exception records the traceback to ``error.json`` before exiting
nonzero so the supervisor can attach it to the ``failed`` state.

Exit codes: 0 success, 1 job raised (traceback recorded), 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
import threading
import traceback
from typing import List, Optional

from .store import ArtifactStore


def worker_main(argv: Optional[List[str]] = None) -> int:
    """Run one job attempt; see module docstring for the protocol."""
    parser = argparse.ArgumentParser(prog="repro.service.workermain")
    parser.add_argument("root", help="artifact store root directory")
    parser.add_argument("job_id")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument("--memo", default=None,
                        help="shared identification cache directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2

    store = ArtifactStore(args.root)
    if not store.has_job(args.job_id):
        print(f"unknown job {args.job_id!r} in {args.root}", file=sys.stderr)
        return 2

    stop = threading.Event()

    def beat_forever() -> None:
        while not stop.is_set():
            store.heartbeat(args.job_id)
            stop.wait(args.heartbeat_interval)

    # Beat before the engine import: loading the resynthesis stack (and
    # NumPy) takes longer than a tight heartbeat timeout on a busy host.
    store.heartbeat(args.job_id)
    beater = threading.Thread(target=beat_forever, daemon=True)
    beater.start()
    try:
        from .runner import run_job

        run_job(store, args.job_id,
                progress=lambda: store.heartbeat(args.job_id),
                memo=args.memo)
        return 0
    except BaseException as exc:  # noqa: BLE001 — the whole point is capture
        store.write_worker_error(
            args.job_id,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )
        return 1
    finally:
        stop.set()
        beater.join(timeout=2.0)


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    sys.exit(worker_main())

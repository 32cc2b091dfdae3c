"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so process-wide caches
(the identification cache, the ``unit_cost`` memo, the permutation-sample
memo, ``suite_circuit``'s ``lru_cache``) always start empty, as they do
for a CLI user or a service worker.  Modes:

* ``rep``: set up, run the timed work, check the outputs; with
  ``--trace`` the layer wrappers of ``layers.py`` are installed around
  the timed work and the spans are written to ``--spans``.
* ``setup``: set up only (the extra ``setup_s`` samples).
* ``reference``: the in-process runs the ``service-jobs`` check compares
  against (made once per benchmark run).

The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import resource
import time

_START = time.perf_counter()

from workloads import make_workload  # noqa: E402  (after the start stamp)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("rep", "setup", "reference"),
                        default="rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--inject", default="none")
    parser.add_argument("--reference")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
    workload = make_workload(args.workload, args.seed, args.scale,
                             args.workdir, args.inject, reference)
    if args.mode == "reference":
        print(json.dumps(workload.reference_numbers()))
        return

    out = {}
    try:
        t0 = time.perf_counter()
        workload.import_modules()
        t1 = time.perf_counter()
        workload.load()
        t2 = time.perf_counter()
        out["setup"] = {"import_s": t1 - t0, "load_s": t2 - t1,
                        "total_s": t2 - _START}
        if args.mode == "rep":
            recorder = None
            if args.trace:
                from layers import SpanRecorder

                recorder = SpanRecorder()
            wall = workload.run(recorder)
            out["done_epoch"] = time.time()
            out["wall_s"] = wall
            workload.check()
            out["values"] = workload.values()
            if hasattr(workload, "latencies"):
                out["latencies"] = workload.latencies()
            if recorder is not None:
                out["layers"] = workload.layers(recorder, wall)
                if args.spans:
                    recorder.write(args.spans)
            log = workload.log
            out.update(attempted=log.attempted, failed=log.failed,
                       problems=log.messages)
    finally:
        workload.close()
    if args.mode == "rep":
        # Workers have been reaped by now, so RUSAGE_CHILDREN covers them.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out["peak_rss_mb"] = (own + workload.workers * worker) / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""The repository benchmark: one command, four workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload resynth-deep --seed 1 --seconds 28 --trace 0

The run first sets up the workload several times in fresh interpreters
(the ``setup_s`` samples), then runs whole repetitions — each in a fresh
interpreter, see ``rep.py`` — while another one should still end within
``--seconds``, checking every repetition's outputs.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric definitions.

The program is used straight from ``src/``; nothing is installed, and
everything the run writes (service stores, temporary files, the last
traced run's spans) stays under ``.perfbench-work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: Set-up-only interpreters per run, on top of each repetition's set-up.
SETUP_PROBES = 5

#: A repetition that takes longer than this is a harness failure.
REP_TIMEOUT = 150

#: Crashed repetitions after which a run gives up.
MAX_CRASHES = 3


def load_spec():
    """Workload names and metric units, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(WORK_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached in the checkout as for an installed package, so
    # only the very first interpreter of a fresh checkout compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(args, mode, workdir, extra=()):
    """Run ``rep.py`` in a fresh interpreter; returns its result or None."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--workdir", workdir,
           "--inject", args.inject, *extra]
    os.makedirs(workdir, exist_ok=True)
    spawned = time.time()
    # Its own process group, so a timeout also stops the workers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout, stderr = "", f"repetition timed out after {REP_TIMEOUT}s"
    except BaseException:  # interrupted: stop the group, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{mode} of {args.workload} failed "
                         f"(exit {proc.returncode}):\n{stderr[-4000:]}\n")
        return None
    result = json.loads(lines[-1])
    result["latency_s"] = result.get("done_epoch", spawned) - spawned
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(reps, setups):
    walls = [r["wall_s"] for r in reps]
    if reps[0].get("latencies") is not None:
        # service-jobs: a job is one submitted spec, timed submit->report.
        latencies = [x for r in reps for x in r["latencies"]]
        jobs_per_s = len(latencies) / sum(walls)
    else:
        # In-process workloads: a job is one CLI-style run, timed from
        # interpreter spawn to result (start-up + set-up + work).
        latencies = [r["latency_s"] for r in reps]
        jobs_per_s = len(latencies) / sum(latencies)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "gates_after": median([r["values"]["gates_after"] for r in reps]),
        "paths_after": median([r["values"]["paths_after"] for r in reps]),
        "job_latency_p50_s": median(latencies),
        "jobs_per_s": jobs_per_s,
    }
    return metrics


def per_layer_metrics(names, untraced, traced, setup_rows, attempted,
                      failed):
    """Medians over the traced repetitions; layers never entered read 0."""
    metrics = dict.fromkeys(names, 0.0)
    for name in names:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            metrics[name] = median(values)
    metrics["setup.import_s"] = median([s["import_s"] for s in setup_rows])
    metrics["setup.load_s"] = median([s["load_s"] for s in setup_rows])
    metrics["trace.overhead_ratio"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in untraced]))
    metrics["undecided_faults"] = median(
        [r["values"].get("undecided_faults", 0) for r in traced])
    metrics["failed_ratio"] = failed / attempted
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): a seconds-scale variant of
    # each workload, and deliberate faults the checks must catch.
    parser.add_argument("--scale", choices=("full", "small"),
                        default="full")
    parser.add_argument("--inject", default="none",
                        choices=("none", "corrupt-netlist", "failed-job"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"error: no program sources at {os.path.join(ROOT, 'src')}; "
                 "run from the root of a full checkout")
    workloads, end_to_end, per_layer = load_spec()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        report = measure(args, workdir, per_layer if args.trace
                         else end_to_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if report is None:
        sys.exit("error: no repetition completed; see the messages above")
    print(json.dumps(report))


def measure(args, workdir, units):
    """Set-up samples, then repetitions; returns the result line's object."""
    extra = []
    if args.workload == "service-jobs":
        reference = launch(args, "reference",
                           os.path.join(workdir, "reference"))
        if reference is None:
            return None
        path = os.path.join(workdir, "reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        extra = ["--reference", path]

    setup_rows = []
    for i in range(SETUP_PROBES):
        probe = launch(args, "setup", os.path.join(workdir, f"probe{i}"),
                       extra)
        if probe is not None:
            setup_rows.append(probe["setup"])

    untraced, traced = [], []
    attempted = failed = crashed = 0
    start = time.perf_counter()
    index = 0
    last = 0.0
    # Whole repetitions only: start another one while it should still end
    # within --seconds, and always get one (one of each kind when traced).
    while crashed < MAX_CRASHES and (
            time.perf_counter() - start + last <= args.seconds
            or not untraced or (args.trace and not traced)):
        with_trace = bool(args.trace) and index % 2 == 1
        rep_extra = list(extra)
        if with_trace:
            spans_dir = os.path.join(WORK_ROOT, "last-trace")
            os.makedirs(spans_dir, exist_ok=True)
            rep_extra += ["--trace", "--spans",
                          os.path.join(spans_dir, f"{args.workload}.jsonl")]
        began = time.perf_counter()
        result = launch(args, "rep", os.path.join(workdir, f"rep{index}"),
                        rep_extra)
        last = time.perf_counter() - began
        index += 1
        if result is None:  # a crashed repetition is a failed operation
            crashed += 1
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for problem in result["problems"]:
            sys.stderr.write(f"check failed: {problem}\n")
        setup_rows.append(result["setup"])
        if result["values"]:  # else every operation of it failed
            (traced if with_trace else untraced).append(result)

    if not untraced or (args.trace and not traced):
        return None
    setups = [s["total_s"] for s in setup_rows]
    if args.trace:
        values = per_layer_metrics(units, untraced, traced, setup_rows,
                                   attempted, failed)
    else:
        values = end_to_end_metrics(untraced, setups)
    latencies = sum(len(r.get("latencies", ())) for r in untraced)
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced repetitions, {len(setups)} set-ups, "
        f"{attempted} operations, {failed} failed"
        + (f", {latencies} job latency samples" if latencies else "")
        + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    main()

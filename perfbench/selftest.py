"""Self-test of the benchmark harness (seconds-scale; about two minutes).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload, on its small variant (``--scale small``):

1. an untraced and a traced run print every end-to-end and every
   per-layer metric, each with its unit, with ``failed == 0``;
2. a traced repetition's layer times plus the residual reconcile with
   its wall time: the residual is not negative (no double counting) and
   not most of the wall time (the layers cover the work);
3. the checks have teeth: a corrupted result netlist, and on
   ``service-jobs`` a job the worker must fail, raise ``failed``.

Finally the benchmark must refuse to run, printing no result, from a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits 0 when every check passes and 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORK_ROOT, child_env, load_spec  # noqa: E402

SEED = 7
FAILURES = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        FAILURES.append(message)


def bench(workload, trace=0, inject="none", cwd=ROOT):
    """Run ``run.py`` on the small variant; returns (exit code, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", "small", "--inject", inject],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_names(workload, result, names, label):
    if result is None:
        expect(False, f"{workload} {label}: no result line")
        return
    got = result["metrics"]
    missing = [n for n in names if n not in got]
    wrong = [n for n in names
             if n in got and got[n].get("unit") != names[n]]
    extra = [n for n in got if n not in names]
    expect(not missing and not wrong and not extra,
           f"{workload} {label}: every metric present with its unit"
           + (f" (missing {missing}, wrong unit {wrong}, extra {extra})"
              if missing or wrong or extra else ""))
    expect(result["failed"] == 0 and result["correct"] is True
           and result["attempted"] >= 1,
           f"{workload} {label}: {result['attempted']} operations, "
           f"{result['failed']} failed")


def traced_repetition(workload, workdir):
    """One traced repetition straight from ``rep.py`` (wall + layers)."""
    def rep(mode, *extra):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), "--mode", mode,
             "--workload", workload, "--seed", str(SEED), "--scale", "small",
             "--workdir", workdir, *extra],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            check=True)
        return proc.stdout.strip().splitlines()[-1]

    extra = []
    if workload == "service-jobs":
        path = os.path.join(workdir, "reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rep("reference"))
        extra = ["--reference", path]
    return json.loads(rep("rep", "--trace", *extra))


def check_reconcile(workload, rep):
    wall, layers = rep["wall_s"], rep["layers"]
    if workload.startswith("resynth-"):
        other = layers["resynth.other_s"]
        expect(0 <= other <= 0.5 * wall,
               f"{workload}: layers {wall - other:.3f}s + other "
               f"{other:.3f}s reconcile with wall {wall:.3f}s")
        expect(layers["resynth.evaluate_self_s"] >= 0,
               f"{workload}: evaluate self time is not negative")
    elif workload == "testability":
        stages = (layers["atpg.redundancy_s"] + layers["faults.stuck_at_s"]
                  + layers["pdf.campaign_s"])
        expect(abs(wall - stages) <= 0.01 * wall,
               f"{workload}: stages {stages:.3f}s reconcile with wall "
               f"{wall:.3f}s")
        expect(0 < layers["atpg.podem_s"] <= layers["atpg.redundancy_s"],
               f"{workload}: PODEM time lies within redundancy removal")
    else:
        latency = sorted(rep["latencies"])[len(rep["latencies"]) // 2]
        other = layers["service.other_s"]
        expect(abs(other) <= 0.5 * latency,
               f"{workload}: job parts + other {other:.3f}s reconcile "
               f"with latency {latency:.3f}s")


def check_bare_directory():
    """The benchmark alone (no program sources) must fail cleanly."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("resynth-deep", cwd=bare)
        expect(code != 0 and result is None,
               f"bare directory: exit {code}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(WORK_ROOT, exist_ok=True)
    workloads, end_to_end, per_layer = load_spec()
    for workload in workloads:
        _, result = bench(workload)
        check_names(workload, result, end_to_end, "end-to-end")
        _, result = bench(workload, trace=1)
        check_names(workload, result, per_layer, "per-layer")
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT)
        try:
            check_reconcile(workload, traced_repetition(workload, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        injects = ["corrupt-netlist"]
        if workload == "service-jobs":
            injects.append("failed-job")
        for inject in injects:
            code, result = bench(workload, inject=inject)
            expect(code == 0 and result is not None
                   and result["failed"] >= 1 and result["correct"] is False,
                   f"{workload} --inject {inject}: raises failed "
                   f"({result and result['failed']} of "
                   f"{result and result['attempted']})")
    check_bare_directory()
    if FAILURES:
        print(f"{len(FAILURES)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

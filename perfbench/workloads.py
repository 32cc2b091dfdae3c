"""The benchmark's four workloads, each run once per fresh interpreter.

A workload object is driven by ``rep.py`` in this order: ``import_modules``
and ``load`` (together the set-up, timed as ``setup.import_s`` and
``setup.load_s``), ``run`` (the timed work), then ``check`` (outside the
timed interval) and ``close``.  Nothing here imports ``repro`` at module
level, so the set-up timer sees the program's whole import cost.

Every input is derived from the workload seed; the program sees only
those inputs.  ``scale="small"`` swaps in a seconds-scale variant of each
workload for the harness self-test.
"""

import json
import os
import random
import statistics
import sys
import threading
import time

#: Random patterns per equivalence check (scalar reference interpreter).
CHECK_PATTERNS = 128

#: Resynthesis workloads: scale -> (procedure, circuit, k, jobs).
RESYNTH = {
    "resynth-deep": {"full": ("procedure2", "syn35932", 5, 1),
                     "small": ("procedure2", "syn1423", 4, 1)},
    "resynth-search": {"full": ("procedure3", "syn5378", 7, 2),
                       "small": ("procedure3", "syn1423", 5, 2)},
}

#: service-jobs: scale -> (jobs per repetition, client threads, circuit, k).
SERVICE = {"full": (16, 2, "syn1423", 4), "small": (4, 2, "syn1423", 4)}

#: testability: scale -> checked-in Procedure 2 output it starts from.
TESTABILITY = {"full": "syn5378.p2k5", "small": "syn1423.p2k5"}


class CheckLog:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def operation(self, problems):
        """Count one operation, failed when *problems* is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def equivalence_problems(reference, candidate, seed, label):
    """Compare two circuits on seeded random patterns with ``refsim``.

    ``repro.verify.refsim`` evaluates one pattern and one gate at a time,
    independently of the packed simulator the program itself uses.
    """
    from repro.verify.refsim import ref_simulate_pattern

    if set(reference.inputs) != set(candidate.inputs):
        return [f"{label}: primary inputs differ"]
    if list(reference.outputs) != list(candidate.outputs):
        return [f"{label}: primary outputs differ"]
    rng = random.Random(seed)
    for i in range(CHECK_PATTERNS):
        pattern = {pi: rng.getrandbits(1) for pi in reference.inputs}
        want = ref_simulate_pattern(reference, pattern)
        got = ref_simulate_pattern(candidate, pattern)
        for out in reference.outputs:
            if want[out] != got[out]:
                return [f"{label}: output {out} differs on random "
                        f"pattern {i} of seed {seed}"]
    return []


def corrupt(circuit):
    """Complement one primary output in place (the self-test's bad netlist)."""
    from repro.netlist import Gate
    from repro.netlist.types import DUAL_POLARITY

    for out in circuit.outputs:
        gate = circuit.gate(out)
        if gate.gtype in DUAL_POLARITY:
            circuit.replace_gate(
                Gate(out, DUAL_POLARITY[gate.gtype], gate.fanins))
            return
    raise ValueError("no output gate to corrupt")


def layer_time(totals, name):
    return totals.get(name, {}).get("total_s", 0.0)


def layer_calls(totals, name):
    return totals.get(name, {}).get("calls", 0)


class Workload:
    """Common shape; subclasses fill in the four phases.

    ``workers`` is how many worker processes run at once; the peak memory
    counts the largest worker's peak that many times.
    """

    workers = 0

    def __init__(self, name, seed, scale, workdir, inject, reference=None):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.inject = inject
        self.reference = reference
        self.log = CheckLog()

    def reference_numbers(self):
        """Numbers a set-up run computes once per benchmark run (if any)."""
        return None

    def close(self):
        pass


class ResynthWorkload(Workload):
    """``resynth-deep`` and ``resynth-search``: one procedure call."""

    def import_modules(self):
        import repro.resynth  # noqa: F401  (the timed import)
        from repro.benchcircuits.suite import suite_circuit
        from repro.verify import refsim  # noqa: F401

        self.suite_circuit = suite_circuit

    def load(self):
        procedure, circuit, self.k, self.jobs = RESYNTH[self.name][self.scale]
        self.workers = self.jobs if self.jobs > 1 else 0
        import repro.resynth as resynth

        self.procedure = getattr(resynth, procedure)
        self.objective = procedure
        self.circuit = self.suite_circuit(circuit)

    def run(self, recorder):
        from layers import trace_resynthesis

        checkpoints = []
        searched = None
        if recorder is not None:
            searched = trace_resynthesis(recorder)
        start = time.perf_counter()
        try:
            report = self.procedure(
                self.circuit, k=self.k, seed=self.seed, jobs=self.jobs,
                on_pass=checkpoints.append if recorder is not None else None)
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.restore()
        self.report, self.searched, self.checkpoints = report, searched, checkpoints
        return wall

    def check(self):
        from repro.netlist import two_input_gate_count

        report = self.report
        if self.inject == "corrupt-netlist":
            corrupt(report.circuit)
        problems = equivalence_problems(
            self.circuit, report.circuit, self.seed, self.name)
        if two_input_gate_count(report.circuit) != report.gates_after:
            problems.append(f"{self.name}: gates_after does not match "
                            "the result netlist")
        if (self.objective == "procedure2"
                and report.gates_after > report.gates_before):
            problems.append(f"{self.name}: Procedure 2 raised the gate "
                            f"count {report.gates_before} -> "
                            f"{report.gates_after}")
        self.log.operation(problems)

    def values(self):
        return {"gates_after": self.report.gates_after,
                "paths_after": self.report.paths_after}

    def layers(self, recorder, wall):
        totals = recorder.totals()
        report = self.report
        evaluate = layer_time(totals, "resynth.evaluate")
        prime = sum(report.timings.get("prime_seconds", []))
        parts = (layer_time(totals, "resynth.enumerate") + evaluate
                 + layer_time(totals, "analysis.labels")
                 + layer_time(totals, "resynth.replace") + prime)
        made, previous = [], 0
        for ckpt in self.checkpoints:
            made.append(ckpt.replacements - previous)
            previous = ckpt.replacements
        idle = sum(seconds for seconds, n in zip(report.pass_seconds, made)
                   if n == 0)
        evaluate_calls = layer_calls(totals, "resynth.evaluate")
        searches = layer_calls(totals, "comparison.search")
        return {
            "resynth.enumerate_s": layer_time(totals, "resynth.enumerate"),
            "resynth.enumerate_calls": layer_calls(totals, "resynth.enumerate"),
            "resynth.evaluate_self_s": totals.get(
                "resynth.evaluate", {}).get("self_s", 0.0),
            "resynth.evaluate_calls": evaluate_calls,
            "analysis.removable_s": layer_time(totals, "analysis.removable"),
            "sim.signature_s": layer_time(totals, "sim.signature"),
            "comparison.best_spec_s": layer_time(totals,
                                                 "comparison.best_spec"),
            "sim.tt_sim_s": layer_time(totals, "sim.tt_sim"),
            "sim.tt_sim_calls": layer_calls(totals, "sim.tt_sim"),
            "sim.tt_cache_hit_ratio": (
                1 - layer_calls(totals, "sim.tt_sim") / evaluate_calls
                if evaluate_calls else 0.0),
            "comparison.identify_s": layer_time(totals,
                                                "comparison.identify"),
            "comparison.identify_calls": layer_calls(totals,
                                                     "comparison.identify"),
            "comparison.search_s": layer_time(totals, "comparison.search"),
            "comparison.search_calls": searches,
            "comparison.search_unique_ratio": (
                len(self.searched) / searches if searches else 0.0),
            "parallel.prime_s": prime,
            "analysis.labels_s": layer_time(totals, "analysis.labels"),
            "resynth.replace_s": layer_time(totals, "resynth.replace"),
            "resynth.replacements": report.replacements,
            "resynth.passes": report.passes,
            "resynth.idle_pass_share": idle / wall,
            "resynth.other_s": wall - parts,
        }


class TestabilityWorkload(Workload):
    """``testability``: redundancy removal, stuck-at and PDF campaigns."""

    def import_modules(self):
        import repro.atpg  # noqa: F401  (the timed import)
        import repro.faults  # noqa: F401
        import repro.pdf  # noqa: F401
        from repro.verify import refsim  # noqa: F401

    def load(self):
        from repro.benchcircuits.suite import DATA_DIR
        from repro.io.json_io import load_json

        name = TESTABILITY[self.scale]
        self.circuit = load_json(
            os.path.join(DATA_DIR, "derived", f"{name}.json"))

    def run(self, recorder):
        from repro.atpg import remove_redundancies
        from repro.faults import random_stuck_at_campaign
        from repro.pdf import random_pdf_campaign

        from layers import trace_podem

        self.aborted = trace_podem(recorder) if recorder else None
        seed = self.seed
        stamps = [time.perf_counter()]
        try:
            self.removal = remove_redundancies(self.circuit, seed=seed)
            stamps.append(time.perf_counter())
            self.stuck_at = random_stuck_at_campaign(
                self.removal.circuit, seed=seed + 1)
            stamps.append(time.perf_counter())
            self.pdf = random_pdf_campaign(self.removal.circuit,
                                           seed=seed + 2)
            stamps.append(time.perf_counter())
        finally:
            if recorder is not None:
                recorder.restore()
        self.phases = [b - a for a, b in zip(stamps, stamps[1:])]
        return stamps[-1] - stamps[0]

    def check(self):
        result = self.removal.circuit
        if self.inject == "corrupt-netlist":
            corrupt(result)
        self.log.operation(equivalence_problems(
            self.circuit, result, self.seed, self.name))

    def values(self):
        from repro.netlist import two_input_gate_count

        return {"gates_after": two_input_gate_count(self.removal.circuit),
                "paths_after": self.removal.paths_after,
                "undecided_faults": self.removal.aborted_faults}

    def layers(self, recorder, wall):
        totals = recorder.totals()
        return {
            "atpg.redundancy_s": self.phases[0],
            "atpg.podem_s": layer_time(totals, "atpg.podem"),
            "atpg.podem_calls": layer_calls(totals, "atpg.podem"),
            "atpg.podem_aborted": self.aborted[0],
            "faults.stuck_at_s": self.phases[1],
            "pdf.campaign_s": self.phases[2],
        }


#: A job the worker must fail: an inline netlist with a combinational cycle.
CYCLIC_NETLIST = {
    "format": "repro-netlist", "version": 1, "name": "cyclic",
    "inputs": ["a"], "outputs": ["y"],
    "gates": [{"name": "x", "type": "and", "fanins": ["a", "y"]},
              {"name": "y", "type": "and", "fanins": ["a", "x"]}],
}


class ServiceJobsWorkload(Workload):
    """``service-jobs``: closed-loop clients against a loopback service."""

    def import_modules(self):
        import repro.service  # noqa: F401  (the timed import)
        from repro.verify import refsim  # noqa: F401

    def load(self):
        from repro.service import ArtifactStore, ServiceServer

        self.n_jobs, self.clients, self.circuit_name, self.k = \
            SERVICE[self.scale]
        self.workers = self.clients
        store = ArtifactStore(os.path.join(self.workdir, "store"))
        self.server = ServiceServer(store, port=0,
                                    max_workers=self.clients)
        self.server.start()

    def specs(self):
        from repro.service import JobSpec

        specs = [
            JobSpec(procedure=("procedure2", "procedure3")[i % 2],
                    circuit=self.circuit_name, k=self.k,
                    seed=self.seed * 1000 + i)
            for i in range(self.n_jobs)
        ]
        if self.inject == "failed-job":
            specs[-1] = JobSpec(procedure="procedure2",
                                netlist=CYCLIC_NETLIST, k=self.k)
        return specs

    def reference_numbers(self):
        """In-process runs of both procedures, for the report check.

        K=4 searches are exhaustive, so the numbers do not depend on the
        seed and one run per procedure serves every job.
        """
        from repro.benchcircuits.suite import suite_circuit
        from repro.resynth import REPORT_NUMBER_FIELDS, procedure2, procedure3

        _, _, circuit, k = SERVICE[self.scale]
        out = {}
        for name, proc in (("procedure2", procedure2),
                           ("procedure3", procedure3)):
            report = proc(suite_circuit(circuit), k=k, seed=self.seed)
            out[name] = {f: getattr(report, f) for f in REPORT_NUMBER_FIELDS}
        return out

    def run(self, recorder):
        from repro.service import ServiceClient

        specs = self.specs()
        self.jobs = [None] * len(specs)

        def client_loop(first):
            client = ServiceClient(self.server.url, timeout=120.0)
            for i in range(first, len(specs), self.clients):
                job = {"spec": specs[i], "id": None, "error": None}
                self.jobs[i] = job
                job["t_submit"] = time.time()
                try:
                    job["id"] = client.submit(specs[i])["id"]
                    job["t_submitted"] = time.time()
                    view = client.wait(job["id"], timeout=120.0)
                    job["t_notified"] = time.time()
                    if view["state"] != "succeeded":
                        job["error"] = f"job ended {view['state']}: " \
                                       f"{view.get('error')}"
                        continue
                    job["report"] = client.report(job["id"])
                    job["t_report"] = time.time()
                except Exception as exc:  # a refused or lost request
                    job["error"] = f"{type(exc).__name__}: {exc}"

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(self.clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        if recorder is not None:
            self.collect_events()
        return wall

    def collect_events(self):
        from repro.service import ServiceClient

        client = ServiceClient(self.server.url, timeout=60.0)
        for job in self.jobs:
            if job["id"] is not None and job["error"] is None:
                job["events"] = client.events(job["id"])["events"]

    def check(self):
        from repro.benchcircuits.suite import suite_circuit
        from repro.io.json_io import circuit_from_json
        from repro.service import ServiceClient

        client = ServiceClient(self.server.url, timeout=60.0)
        original = suite_circuit(self.circuit_name)
        for i, job in enumerate(self.jobs):
            label = f"{self.name} job {i}"
            if job["error"] is not None:
                self.log.operation([f"{label}: {job['error']}"])
                continue
            problems = []
            want = self.reference[job["spec"].procedure]
            drift = [f for f, v in want.items() if job["report"][f] != v]
            if drift:
                problems.append(f"{label}: report differs from the "
                                f"in-process run on {', '.join(drift)}")
            result = circuit_from_json(json.dumps(client.result(job["id"])))
            if self.inject == "corrupt-netlist":
                corrupt(result)
            problems += equivalence_problems(original, result,
                                             self.seed + i, label)
            self.log.operation(problems)

    def done(self):
        return [j for j in self.jobs if j["error"] is None]

    def latencies(self):
        return [j["t_report"] - j["t_submit"] for j in self.done()]

    def values(self):
        done = self.done()
        if not done:
            return {}
        return {
            "gates_after": statistics.mean(
                j["report"]["gates_after"] for j in done),
            "paths_after": statistics.mean(
                j["report"]["paths_after"] for j in done),
        }

    def layers(self, recorder, wall):
        parts = {name: [] for name in (
            "submit", "queue_wait", "worker_start", "engine", "finalize",
            "notify", "report_fetch", "other")}
        for job in self.done():
            ts = {}
            passes = []
            for event in job["events"]:
                if event["type"] == "pass":
                    passes.append(event)
                elif event["type"] == "state":
                    ts.setdefault("terminal", event["ts"])
                else:
                    ts.setdefault(event["type"], event["ts"])
            row = {
                "submit": job["t_submitted"] - job["t_submit"],
                "queue_wait": ts["attempt"] - ts["submitted"],
                "worker_start": (passes[0]["ts"] - passes[0]["seconds"]
                                 - ts["attempt"]),
                "engine": sum(p["seconds"] for p in passes),
                "finalize": ts["terminal"] - ts["completed"],
                "notify": job["t_notified"] - ts["terminal"],
                "report_fetch": job["t_report"] - job["t_notified"],
            }
            row["other"] = (job["t_report"] - job["t_submit"]
                            - sum(row.values()))
            for name, value in row.items():
                parts[name].append(value)
        out = {f"service.{name}_s": statistics.median(values)
               for name, values in parts.items() if values}
        out["service.latency_samples"] = len(self.done())
        return out

    def close(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


WORKLOADS = {
    "resynth-deep": ResynthWorkload,
    "resynth-search": ResynthWorkload,
    "service-jobs": ServiceJobsWorkload,
    "testability": TestabilityWorkload,
}


def make_workload(name, seed, scale, workdir, inject, reference=None):
    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from "
                 f"{', '.join(sorted(WORKLOADS))}")
    return WORKLOADS[name](name, seed, scale, workdir, inject, reference)

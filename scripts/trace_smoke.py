"""Observability smoke check (the CI gate for ``repro.obs``).

Runs a small traced ``syn1423`` Procedure 2 resynthesis through the
real CLI (``resynth --trace``), then validates the whole observability
surface end to end::

    PYTHONPATH=src python scripts/trace_smoke.py

Checks, in order:

1. the written JSONL parses and validates via ``repro.obs.read_trace``
   (format header, required span keys, creation-ordered parents);
2. the span tree matches the taxonomy in docs/OBSERVABILITY.md — one
   ``run`` root whose ``pass`` children agree with the report's pass
   count, each carrying replacement and truth-table-cache columns and
   the work counts (``sites``, ``sites_reused`` ≤ ``sites``,
   ``cones_evaluated``, ``searches``);
3. the per-pass span durations reconcile with the report's
   ``timings``: each ``pass`` span wall clock matches its
   ``pass_seconds`` entry, and their sum stays within tolerance of
   ``total_seconds`` (the ISSUE acceptance criterion, scaled down);
4. tracing changed nothing: the report numbers equal an untraced run's;
5. ``repro-resynth trace FILE`` renders the per-stage / per-pass
   summary.

Prints PASS and exits 0 on success; any violation is a nonzero exit.
Budget: a few seconds.
"""

import io
import sys
import tempfile
import time
from contextlib import redirect_stdout

from repro.benchcircuits.suite import suite_circuit
from repro.cli import main as cli_main
from repro.comparison import identification_cache
from repro.obs import read_trace
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2, report_from_json

CIRCUIT = "syn1423"
K = 5
SEED = 0  # the CLI's default seed; the reference run must match

#: Sum of pass-span wall clocks vs the report's total_seconds.  The
#: full-size acceptance criterion is 5% on syn35932; this smoke circuit
#: finishes in well under a second, where fixed setup costs weigh
#: proportionally more, so the bar is looser but still reconciles the
#: two timing sources against each other.
TOTAL_TOLERANCE = 0.25


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as root:
        trace_path = f"{root}/run.trace.jsonl"
        report_path = f"{root}/report.json"

        print(f"traced run: repro-resynth resynth {CIRCUIT} --k {K} "
              f"--trace ...", flush=True)
        code = cli_main([
            "resynth", CIRCUIT, "--k", str(K), "--verify", "0",
            "--trace", trace_path, "--out", report_path,
        ])
        if code != 0:
            fail(f"resynth --trace exited {code}")
        with open(report_path, "r", encoding="utf-8") as fh:
            report = report_from_json(fh.read())

        # 1. JSONL schema.
        header, spans = read_trace(trace_path)
        if header["meta"].get("circuit") != CIRCUIT:
            fail(f"trace meta carries {header['meta']}")
        print(f"trace: {len(spans)} spans, schema ok", flush=True)

        # 2. Span taxonomy.
        roots = [s for s in spans if s["parent"] is None]
        if len(roots) != 1 or roots[0]["name"] != "run":
            fail(f"expected one 'run' root, got "
                 f"{[r['name'] for r in roots]}")
        run = roots[0]
        passes = [s for s in spans if s["name"] == "pass"]
        if len(passes) != report.passes:
            fail(f"{len(passes)} pass spans vs report.passes="
                 f"{report.passes}")
        for span in passes:
            if span["parent"] != run["span"]:
                fail(f"pass span {span['span']} not under the run root")
            for key in ("pass_no", "replacements", "tt_hits", "tt_misses",
                        "sites", "sites_reused", "cones_evaluated",
                        "searches"):
                if key not in span["attrs"]:
                    fail(f"pass span missing attr {key!r}")
            if span["attrs"]["sites_reused"] > span["attrs"]["sites"]:
                fail(f"pass {span['attrs']['pass_no']} reused more sites "
                     f"than it visited")
        if run["attrs"].get("replacements") != report.replacements:
            fail("run span replacement count disagrees with the report")
        names = {s["name"] for s in spans}
        for expected in ("setup", "candidate", "enumerate", "evaluate"):
            if expected not in names:
                fail(f"span taxonomy missing {expected!r}")
        print(f"taxonomy: run -> {len(passes)} passes ok", flush=True)

        # 3. Timing reconciliation.
        for span, recorded in zip(passes, report.pass_seconds):
            if abs(span["wall_s"] - recorded) > max(0.05, 0.25 * recorded):
                fail(f"pass {span['attrs']['pass_no']} span wall "
                     f"{span['wall_s']:.3f}s vs pass_seconds "
                     f"{recorded:.3f}s")
        span_sum = sum(s["wall_s"] for s in passes)
        drift = abs(span_sum - report.total_seconds) / report.total_seconds
        if drift > TOTAL_TOLERANCE:
            fail(f"pass spans sum {span_sum:.3f}s vs total_seconds "
                 f"{report.total_seconds:.3f}s ({drift:.1%} apart)")
        print(f"timings: pass spans sum {span_sum:.3f}s, "
              f"total {report.total_seconds:.3f}s "
              f"({drift:.1%} apart) ok", flush=True)

        # 4. Tracing is observation-only.
        identification_cache().clear()
        untraced = procedure2(suite_circuit(CIRCUIT), k=K, seed=SEED)
        for field in REPORT_NUMBER_FIELDS:
            if getattr(untraced, field) != getattr(report, field):
                fail(f"tracing changed report field {field!r}")
        print("determinism: traced == untraced report ok", flush=True)

        # 5. The summarizer renders.
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["trace", trace_path, "--top", "3"])
        rendered = buf.getvalue()
        if code != 0:
            fail(f"trace subcommand exited {code}")
        for needle in ("per-stage totals:", "per-pass breakdown:",
                       "tt_hits", "reused", "searches"):
            if needle not in rendered:
                fail(f"trace summary missing {needle!r}")
        print("summary: repro-resynth trace renders ok", flush=True)

    print(f"PASS ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

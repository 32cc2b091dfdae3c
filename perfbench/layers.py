"""Layer spans for the traced benchmark run, recorded from outside the program.

:class:`SpanRecorder` replaces public functions of the program's modules
with thin timing wrappers (module globals and one class attribute only;
nothing inside ``src/`` is edited) and keeps one span per call in memory:
``(span_id, parent_id, name, start, end)``.  The spans are written out
once, when the repetition ends, and :meth:`SpanRecorder.totals` turns
them into per-layer call counts, total times and self times (a span's
duration minus the part covered by its child spans).

The recorder keeps a single span stack, so it must only wrap code that
runs on one thread — true for the in-process workloads.  Forked worker
processes inherit the wrappers but their spans stay in the worker and
are never counted; the benchmark attributes that work to
``parallel.prime_s`` instead of guessing a split.
"""

import json
import sys
import time

#: Layer span names, each wrapped around one public function.
#: (owner module, attribute) -> span name.  Functions called by
#: ``repro.resynth.procedures`` and ``repro.resynth.replace`` are wrapped
#: where those modules look them up, so only the sweep's own calls count.
RESYNTH_LAYERS = (
    ("repro.resynth.procedures", "enumerate_candidate_cones",
     "resynth.enumerate"),
    ("repro.resynth.procedures", "evaluate_cone", "resynth.evaluate"),
    ("repro.resynth.procedures", "apply_replacement", "resynth.replace"),
    ("repro.resynth.replace", "removable_members", "analysis.removable"),
    ("repro.resynth.replace", "cone_signature", "sim.signature"),
    ("repro.resynth.replace", "signature_truth_table", "sim.tt_sim"),
    ("repro.resynth.replace", "identify_comparison", "comparison.identify"),
    ("repro.resynth.replace", "best_spec", "comparison.best_spec"),
)


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._restore = []

    def timed(self, fn, name, note=None):
        """Return *fn* wrapped to record a span called *name*.

        *note*, when given, is called as ``note(args, result)`` after
        each call, for counts the span itself cannot carry.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def replace(self, owner, attr, value):
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by its timed wrapper until :meth:`restore`."""
        self.replace(owner, attr, self.timed(getattr(owner, attr), name, note))

    def restore(self):
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self):
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
        child_time = {}
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def write(self, path):
        """Write the spans as JSON lines ``[id, parent, name, start, end]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def trace_resynthesis(recorder):
    """Wrap the resynthesis layers; returns the set of searched tables.

    The returned set fills with ``(table, n)`` of every real
    permutation search, for ``comparison.search_unique_ratio``.
    """
    for module_name, attr, name in RESYNTH_LAYERS:
        recorder.wrap(sys.modules[module_name], attr, name)
    # ``repro.comparison.identify`` may resolve to a same-named
    # re-export, so the module object comes from sys.modules.
    identify_mod = sys.modules["repro.comparison.identify"]
    searched = set()
    recorder.wrap(identify_mod, "identify_positions", "comparison.search",
                  note=lambda args, _result: searched.add(args[:2]))
    # AnalysisSession.labels is a method; the procedures module builds
    # its sessions through its own global, so a timed subclass there
    # catches exactly the sweep's label queries.
    procedures = sys.modules["repro.resynth.procedures"]
    base = procedures.AnalysisSession
    recorder.replace(procedures, "AnalysisSession", type(
        "TimedAnalysisSession", (base,),
        {"labels": recorder.timed(base.labels, "analysis.labels")}))
    return searched


def trace_podem(recorder):
    """Wrap ``PodemEngine.run``; returns a one-item list counting aborts."""
    podem_mod = sys.modules["repro.atpg.podem"]
    aborted = [0]
    aborted_status = podem_mod.PodemStatus.ABORTED

    def note(_args, result):
        if result.status is aborted_status:
            aborted[0] += 1

    recorder.wrap(podem_mod.PodemEngine, "run", "atpg.podem", note=note)
    return aborted

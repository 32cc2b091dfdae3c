"""The sweep's candidate cache against a fresh enumerate + evaluate.

The ``incremental`` fuzz oracle checks the cache after random mutations
of small fuzz circuits; these cases pin situations its generator cannot
produce.
"""

from repro.analysis import AnalysisSession
from repro.netlist import CircuitBuilder, Gate, GateType
from repro.resynth import enumerate_candidate_cones, evaluate_cone
from repro.resynth.procedures import CandidateCache


def fresh_options(circuit, net, labels, k):
    options = (evaluate_cone(circuit, cone, labels)
               for cone in enumerate_candidate_cones(circuit, net, k))
    return [o for o in options if o is not None]


class TestCandidateCache:
    def test_site_without_any_cone_follows_its_own_gate(self):
        # At K=4 a 6-input gate has no candidate, not even C_0; rewiring
        # it to 2 inputs must not leave that empty answer cached.
        b = CircuitBuilder()
        ins = b.inputs(*[f"i{j}" for j in range(6)])
        g = b.AND(*ins, name="g")
        b.outputs(g)
        c = b.build()
        with AnalysisSession(c) as session:
            cache = CandidateCache(c, 4, 200, False, session)
            try:
                assert cache.options("g", set(), 1, session.labels()) == []
                c.replace_gate(Gate("g", GateType.AND, ("i0", "i1")))
                labels = session.labels()
                got = cache.options("g", set(), 1, labels)
                assert got and got == fresh_options(c, "g", labels, 4)
            finally:
                cache.close()

"""repro: reproduction of Pomeranz & Reddy, DAC 1995.

"On Synthesis-for-Testability of Combinational Logic Circuits": comparison
functions, comparison units, and resynthesis procedures that reduce gate and
path counts while improving path-delay-fault testability.

Public API highlights
---------------------
- :class:`repro.netlist.Circuit` and :class:`repro.netlist.CircuitBuilder`
- :func:`repro.io.read_bench` / :func:`repro.io.write_bench`
- :func:`repro.analysis.count_paths` (Procedure 1)
- :class:`repro.comparison.ComparisonSpec`, :func:`repro.comparison.identify_comparison`,
  :func:`repro.comparison.build_unit` (Section 3)
- :func:`repro.resynth.procedure2` / :func:`repro.resynth.procedure3` (Section 4)
- :mod:`repro.faults`, :mod:`repro.atpg`, :mod:`repro.pdf` testability substrates
- :mod:`repro.experiments` drivers that regenerate every paper table
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "atpg",
    "baselines",
    "bdd",
    "benchcircuits",
    "comparison",
    "faults",
    "io",
    "netlist",
    "obs",
    "pdf",
    "resynth",
    "scan",
    "sim",
    "techmap",
    "__version__",
]


def __getattr__(name: str):
    # Subpackages load on first access (PEP 562), so importing one piece
    # of the package, such as the job store, does not import them all.
    if name in __all__ and name != "__version__":
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

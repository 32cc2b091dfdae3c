"""Persistent, content-addressed identification cache (``repro.memo``).

Identification — the permutation search of
:func:`repro.comparison.identify.identify_positions` — dominates
resynthesis wall time, and its results are pure function values of
``(table, n, perm_budget, try_offset, seed, max_specs)``.  The in-process
:class:`~repro.comparison.IdentificationCache` already amortizes repeats
within one process; this package amortizes them *across* processes and
runs: a :class:`MemoStore` persists search results in a directory of
content-addressed JSON entries, shared by serial runs, ``--jobs N``
coordinators, and service workers alike.

A stored result is returned **verbatim** — a hit is bit-for-bit what the
local search would have computed, so wiring a memo in cannot change any
report (the ``memo`` differential oracle in :mod:`repro.verify` fuzzes
exactly that contract; docs/MEMO.md states it in full).
"""

from .keys import (
    KEY_FORMAT,
    MEMO_VERSION,
    memo_key_doc,
    memo_key_id,
    table_column_counts,
)
from .store import (
    ENTRY_FORMAT,
    MemoStats,
    MemoStore,
    decode_entry_doc,
)

__all__ = [
    "ENTRY_FORMAT",
    "KEY_FORMAT",
    "MEMO_VERSION",
    "MemoStats",
    "MemoStore",
    "decode_entry_doc",
    "memo_key_doc",
    "memo_key_id",
    "table_column_counts",
]


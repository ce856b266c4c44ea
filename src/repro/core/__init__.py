"""The paper's core contribution: reachability labeling algorithms.

Public API
----------
- :class:`~repro.core.labels.ReachabilityIndex` — the 2-hop index.
- :func:`~repro.core.tol.tol_index` — serial TOL (Algorithm 1).
- :func:`~repro.core.drl.drl_index` — distributed DRL (Algorithm 3).
- :func:`~repro.core.drl_basic.drl_basic_index` — DRL⁻ (Theorem 3).
- :func:`~repro.core.drl_batch.drl_batch_index` — DRL_b (Algorithm 4).
- :func:`~repro.core.multicore.drl_multicore_index` — DRL_b^M (Exp 3).
- :func:`~repro.core.build.build_index` — one-call façade.
"""

from repro.core.backward import (
    backward_in_labels_basic,
    backward_in_labels_improved,
    backward_in_labels_naive,
    backward_label_sets,
    higher_order_descendants,
)
from repro.core.batching import batch_sequence
from repro.core.build import build_index
from repro.core.condensed import CondensedIndex, build_condensed_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.drl import drl_index, inverted_list_stats
from repro.core.drl_basic import drl_basic_index
from repro.core.drl_batch import drl_batch_index
from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.core.multicore import drl_multicore_index
from repro.core.tol import tol_index, tol_index_reference
from repro.core.validate import (
    ValidationReport,
    check_canonical,
    check_cover,
    check_soundness,
)

__all__ = [
    "CondensedIndex",
    "DynamicReachabilityIndex",
    "LabelingResult",
    "ReachabilityIndex",
    "ValidationReport",
    "backward_in_labels_basic",
    "backward_in_labels_improved",
    "backward_in_labels_naive",
    "backward_label_sets",
    "batch_sequence",
    "build_condensed_index",
    "build_index",
    "check_canonical",
    "check_cover",
    "check_soundness",
    "drl_basic_index",
    "drl_batch_index",
    "drl_index",
    "drl_multicore_index",
    "higher_order_descendants",
    "inverted_list_stats",
    "tol_index",
    "tol_index_reference",
]

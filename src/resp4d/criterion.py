"""Breathing-state agreement between reference timepoints and data frames.

A data frame is compared to a reference timepoint through the navigators that
enclose each of them: vessel displacements are measured from the navigator
preceding the data frame to the navigator preceding the timepoint, and
likewise for the following pair.  The displacement summed over both pairs and
every vessel must fall strictly below the threshold for the pair to count as
the same breathing state.
"""

from __future__ import annotations

import numpy as np


def decide(table: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Totals and acceptance for every (eligible timepoint, data frame) pair.

    ``table`` is one interleaved sequence's per-vessel displacement
    ``D[r, n, v]`` between reference navigator ``r`` and the sequence's
    navigator ``n``.  Row ``i - 1`` of the result pairs eligible timepoint
    ``i`` (boundary reference frames have no enclosing pair) with column
    ``k``, the data frame at ordinal ``2k + 1``: its total sums
    ``D[i - 1, k, :]`` (preceding pair) and ``D[i + 1, k + 1, :]`` (following
    pair), and it is accepted when strictly below ``threshold``.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    sums = table.sum(axis=2)  # (n_ref, n_navs)
    n_data = table.shape[1] - 1
    totals = sums[:-2, :n_data] + sums[2:, 1 : n_data + 1]
    return totals, totals < threshold

"""Ragged segmented numpy helpers.

Samplers that touch *all* neighbors of a batch of nodes (direct
sampler, table construction) need vectorized operations over ragged
per-node segments. Everything here is allocation-light numpy with no
Python-per-segment loops.
"""
from __future__ import annotations

import numpy as np


def ragged_arange(lens: np.ndarray) -> np.ndarray:
    """``[0..lens[0]), [0..lens[1]), ...`` concatenated."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lens.shape[0], dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens)


def segment_ids(lens: np.ndarray) -> np.ndarray:
    """``[0]*lens[0] + [1]*lens[1] + ...``"""
    return np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)


def inverse_cdf(
    cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Segmented inverse-CDF draw over one global prefix-sum array.

    ``cum`` is ``[0, w0, w0+w1, ...]`` over all entries; for each window
    ``[lo[i], hi[i])`` return the global position ``j`` drawn with
    probability ``w_j / Σ window`` from the uniform ``u[i]``, or ``-1``
    where the window's total is ~0 (no valid entry). One global
    ``searchsorted`` serves every window.
    """
    base = cum[lo]
    totals = cum[hi] - base
    pos = np.searchsorted(cum, base + u * totals, side="right") - 1
    pos = np.clip(pos, lo, np.maximum(hi - 1, lo))
    return np.where(totals > 1e-300, pos, -1)


def segmented_choice(
    weights: np.ndarray, lens: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Weighted within-segment choice: for each segment ``i`` draw an
    offset in ``[0, lens[i])`` with probability proportional to its
    weight, using uniforms ``u[i]``. Returns ``-1`` for segments whose
    total weight is ~0 (no valid candidate) — the inverse-CDF scan of
    the paper's *direct* edge sampler, vectorized.
    """
    lens = np.asarray(lens, dtype=np.int64)
    cum = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])
    ends = np.cumsum(lens)
    starts = ends - lens
    pos = inverse_cdf(cum, starts, ends, u)
    return np.where(pos >= 0, pos - starts, -1)

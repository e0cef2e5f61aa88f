"""Direct edge sampler (Marsaglia '63): O(1) memory, O(d) time.

Each draw recomputes the full dynamic-weight distribution over the
current node's neighbors and inverts its CDF — no precomputation, no
state. This is the sampler used by most of the original open-source
NRL implementations (paper §V-C) and the slow-but-feasible fallback of
the memory-aware framework.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers.base import EdgeSampler
from repro.samplers.segment import ragged_arange, segment_ids, segmented_choice


def direct_choice(
    g: CSRGraph, model: RandomWalkModel, wk: WalkerBatch, u: np.ndarray
) -> np.ndarray:
    """One edge slot per walker ∝ its dynamic weights over all of the
    current node's neighbors, from the uniforms ``u``; ``-1`` where every
    neighbor has zero weight."""
    lens = g.degree(wk.cur)
    sid = segment_ids(lens)
    cand_eidx = g.indptr[wk.cur][sid] + ragged_arange(lens)
    w = model.dyn_weight(g, wk.take(sid), cand_eidx)
    off = segmented_choice(w, lens, u)
    return np.where(off >= 0, g.indptr[wk.cur] + off, -1)


class DirectSampler(EdgeSampler):
    name = "direct"

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        out = direct_choice(self.g, self.model, wk, self.rng.random(len(wk)))
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        return out

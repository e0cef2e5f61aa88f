"""Rejection edge sampler (paper §I Challenge 1; Yang et al. SOSP'19).

Draws a candidate from the **static-weight proposal** distribution
(sampled via alias-cost tables, which is exactly the memory bottleneck
the paper attributes to this family on billion-edge graphs) and accepts
with probability ``w'(e) / (bound · w(e))`` where ``bound`` upper-bounds
the dynamic/static weight ratio of the model. Time per accepted sample
is geometric in the acceptance ratio θ — hence the parameter
sensitivity of Table II.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.models.edge2vec import Edge2Vec
from repro.samplers.base import (
    BYTES_STATIC_ALIAS_PER_EDGE,
    MemoryBudget,
    StaticSampler,
)

_MAX_ROUNDS = 10_000


def proposal_bound(g: CSRGraph, model: RandomWalkModel) -> float:
    """An upper bound ``b`` with ``w'(e) <= b · w(e)`` for every edge.

    node2vec / fairwalk: ``max(1, 1/p, 1/q)``; edge2vec additionally
    multiplies by ``max(M)``; first-order models: 1.
    """
    b = 1.0
    if hasattr(model, "alpha_bound"):
        b = model.alpha_bound()
    if isinstance(model, Edge2Vec):
        b *= model.trans_bound(g)
    return float(b)


class RejectionSampler(StaticSampler):
    """Rejection over the inherited static draw (the proposal)."""

    name = "rejection"
    #: Ledger item of the proposal's alias table.
    ledger_item = "rejection_proposal_alias"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
    ):
        super().__init__(g, model, rng, budget)
        self._bound = proposal_bound(g, model)

    def prepare(self) -> None:
        # The proposal is "simple" but still alias-sampled for speed
        # (paper §V-D) — charge the 1st-order alias table bytes.
        self.budget.charge(self.ledger_item, BYTES_STATIC_ALIAS_PER_EDGE * self.g.m)
        super().prepare()

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if not self._prepared:
            self.prepare()
        g = self.g
        out = np.full(len(wk), -1, dtype=np.int64)
        pending = np.arange(len(wk))
        for _ in range(_MAX_ROUNDS):
            sub = wk.take(pending)
            eidx = self.sample_nodes(sub.cur)
            wdyn = self.model.dyn_weight(g, sub, eidx)
            acc_p = wdyn / (self._bound * g.weights[eidx])
            acc = self.rng.random(pending.shape[0]) < acc_p
            self.stats["proposals"] += int(pending.shape[0])
            self.stats["accepts"] += int(acc.sum())
            out[pending[acc]] = eidx[acc]
            pending = pending[~acc]
            if pending.shape[0] == 0:
                break
        return out

"""Alias-class edge sampler: fully materialized per-state tables.

The paper's alias sampler (Walker '77) precomputes one table per
transition probability distribution: O(1) per sample but
O(d · #states) memory — the memory-explosion baseline. We reproduce its
*cost profile* exactly: ``prepare()`` materializes, for every state,
the full dynamic-weight distribution over the current node's neighbors
(Σ_states deg bytes, charged at alias per-entry cost against the
simulated budget), and sampling is a constant-depth lookup.

Implementation note (DESIGN.md §3): the per-state structure is a
precomputed cumulative table queried by one vectorized binary search
(O(log d)) rather than a literal Vose alias pair — construction
vectorizes across all states, memory is byte-equivalent, and query cost
is indistinguishable at benchmark scale; the defining characteristics
(huge ``T_i``, O(d·#state) memory, parameter-insensitive sampling) are
preserved.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import WalkerBatch
from repro.graph.csr import CSRGraph
from repro.models.metapath2vec import MetaPath2Vec
from repro.samplers.base import (
    BYTES_TABLE_ENTRY,
    EdgeSampler,
    MemoryBudgetExceeded,
    REAL_ENTRY_CAP,
)
from repro.samplers.segment import inverse_cdf, ragged_arange, segment_ids


def _enumerate_states(g: CSRGraph, model):
    """Per-state metadata for full table materialization.

    Returns ``(cur, prev, prev_eidx, req_type, ent_lens)`` where entry
    ``i`` describes state ``i``, whose distribution ranges over the
    ``ent_lens[i]`` neighbors of ``cur[i]``.
    """
    if model.order == 2:
        # One state per directed edge (s -> v); distribution over N(v).
        cur = g.indices.astype(np.int64)
        prev = g.src
        prev_eidx = np.arange(g.m, dtype=np.int64)
        req = None
    else:
        if isinstance(model, MetaPath2Vec):
            # One state per (node, required type).
            T = g.n_types
            states = np.arange(g.n * T, dtype=np.int64)
            cur = states // T
            req = (states % T).astype(np.int16)
        else:
            # One state per node (deepwalk).
            cur = np.arange(g.n, dtype=np.int64)
            req = None
        prev = np.full_like(cur, -1)
        prev_eidx = np.full_like(cur, -1)
    return cur, prev, prev_eidx, req, g.degree(cur)


class TableSampler(EdgeSampler):
    """"Alias" in the reproduced tables."""

    name = "alias"

    def prepare(self) -> None:
        cur, prev, prev_eidx, req, lens = _enumerate_states(self.g, self.model)
        # Simulated-budget charge first (this is what reproduces the
        # paper's OOM cells), then the real-allocation guardrail.
        self.budget.charge("alias_tables", BYTES_TABLE_ENTRY * int(lens.sum()))
        self._build(cur, prev, prev_eidx, req, lens)

    def _build(self, cur, prev, prev_eidx, req, lens) -> None:
        """One table per state ``i``: the dynamic-weight distribution of
        a walker at ``(cur[i], prev[i], prev_eidx[i], req[i])`` over the
        ``lens[i]`` neighbors of ``cur[i]``."""
        g = self.g
        total = int(lens.sum())
        if total > REAL_ENTRY_CAP:
            raise MemoryBudgetExceeded(
                f"{self.name} tables need {total:.2e} real entries "
                f"> cap {REAL_ENTRY_CAP:.0e}"
            )
        sid = segment_ids(lens)
        cand_eidx = g.indptr[cur][sid] + ragged_arange(lens)
        wk_flat = WalkerBatch(
            cur=cur[sid],
            prev=prev[sid],
            prev_eidx=prev_eidx[sid],
            req_type=None if req is None else req[sid],
        )
        w = self.model.dyn_weight(g, wk_flat, cand_eidx)
        # Global running cumsum over all per-state segments; per-state
        # windows are recovered from offsets, so one searchsorted serves
        # every query.
        self._cum = np.concatenate([[0.0], np.cumsum(w, dtype=np.float64)])
        offs = np.zeros(lens.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        self._offs = offs
        self._prepared = True

    def _draw(self, wk: WalkerBatch, table: np.ndarray) -> np.ndarray:
        """One edge slot per walker from its table ``table[i]``."""
        lo = self._offs[table]
        hi = self._offs[table + 1]
        pos = inverse_cdf(self._cum, lo, hi, self.rng.random(len(wk)))
        return np.where(pos >= 0, self.g.indptr[wk.cur] + (pos - lo), -1)

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if not self._prepared:
            self.prepare()
        out = self._draw(wk, self.model.state_index(self.g, wk))
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        return out

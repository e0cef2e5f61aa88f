"""The Metropolis-Hastings based edge sampler (paper §III, Alg. 1).

Per walker state ``x`` the sampler runs an M-H chain over the current
node's neighbor slots with a **uniform** proposal ``q(·|u) = 1/deg(v)``
(symmetric, so the acceptance ratio reduces to
``min(1, w'_cand / w'_last)``) and the model's *unnormalized* dynamic
edge weight as target. Time and memory are O(1) per sample — only the
``LAST_x`` slot is stored, in the :class:`SamplerManager` 2D layout.

Initialization strategies (§III-C), applied lazily the first time a
state is touched:

* ``random`` — uniform neighbor slot, O(1);
* ``weight`` (high-weight) — approximate argmax of the dynamic weight
  over ``hw_samples`` uniformly-drawn neighbors (the paper's sampled
  high-weight initialization);
* ``burn`` — classical burn-in: run ``burn_in`` M-H iterations and
  discard them (paper uses 100 after tuning).

Everything is vectorized over the walker batch.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.core.sampler_manager import SamplerManager
from repro.graph.csr import CSRGraph
from repro.samplers.base import EdgeSampler, MemoryBudget

_INIT_STRATEGIES = ("random", "weight", "burn")


class MHSampler(EdgeSampler):
    """UniNet's M-H based edge sampler (Algorithm 1), batched."""

    name = "mh"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
        init: str = "weight",
        burn_in: int = 100,
        hw_samples: int = 8,
    ):
        super().__init__(g, model, rng, budget)
        if init not in _INIT_STRATEGIES:
            raise ValueError(f"init must be one of {_INIT_STRATEGIES}, got {init!r}")
        self.init = init
        self.burn_in = int(burn_in)
        self.hw_samples = int(hw_samples)
        self.manager: Optional[SamplerManager] = None

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Allocate the LAST_x store (the paper's M-H ``T_i``)."""
        self.manager = SamplerManager(self.model.num_states(self.g), self.budget)
        self._prepared = True

    def fork(self) -> "MHSampler":
        """Per-task copy with its own uninitialized LAST_x store; the
        driver's ``prepare()`` already charged the store's bytes."""
        twin = super().fork()
        if self.manager is not None:
            twin.manager = SamplerManager(self.manager.num_states)
        return twin

    # ------------------------------------------------------------------
    def _accept(
        self, w_cand: np.ndarray, w_last: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """Vectorized acceptance: ``u < min(1, w_cand / w_last)``; a
        last sample with zero weight (possible only via random init on
        constrained models) is always replaced by a valid candidate."""
        ratio = np.where(w_last > 0.0, w_cand / np.maximum(w_last, 1e-300), 0.0)
        return np.where(w_last > 0.0, u < ratio, w_cand > 0.0)

    def _mh_iterate(
        self, wk: WalkerBatch, slot: np.ndarray, w_slot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One M-H transition for a batch; returns (new slot, its weight)."""
        g = self.g
        deg = g.degree(wk.cur)
        start = g.indptr[wk.cur]
        cand_slot = np.minimum(
            (self.rng.random(len(wk)) * deg).astype(np.int64), deg - 1
        )
        w_cand = self.model.dyn_weight(g, wk, start + cand_slot)
        acc = self._accept(w_cand, w_slot, self.rng.random(len(wk)))
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += int(acc.sum())
        return np.where(acc, cand_slot, slot), np.where(acc, w_cand, w_slot)

    def _retry_invalid(
        self,
        wk: WalkerBatch,
        deg: np.ndarray,
        start: np.ndarray,
        slot: np.ndarray,
        rounds: int = 6,
    ) -> np.ndarray:
        """Resample initial slots whose dynamic weight is zero (hard
        constraints, e.g. metapath type mismatch) — an initial sample in
        a zero-probability region would otherwise emit one invalid
        edge before the chain self-corrects."""
        w = self.model.dyn_weight(self.g, wk, start + slot)
        for _ in range(rounds):
            bad = w <= 0.0
            if not bad.any():
                break
            sub = wk.take(bad)
            d = deg[bad]
            retry = np.minimum((self.rng.random(len(sub)) * d).astype(np.int64), d - 1)
            w_retry = self.model.dyn_weight(self.g, sub, start[bad] + retry)
            better = w_retry > 0.0
            idx = np.where(bad)[0][better]
            slot[idx] = retry[better]
            w[idx] = w_retry[better]
        bad = w <= 0.0
        if bad.any():
            # Rare valid neighbors (e.g. one matching type among many):
            # uniform retries can miss them all — fall back to an exact
            # scan of the stubborn walkers' adjacency so a state with
            # any valid neighbor is never initialized invalid.
            from repro.samplers.segment import ragged_arange, segment_ids

            sub = wk.take(bad)
            lens = deg[bad]
            sid = segment_ids(lens)
            within = ragged_arange(lens)
            w_all = self.model.dyn_weight(
                self.g, sub.take(sid), start[bad][sid] + within
            )
            offs = np.concatenate([[0], np.cumsum(lens)])
            idx = np.where(bad)[0]
            for i in range(len(sub)):
                seg = w_all[offs[i] : offs[i + 1]]
                if seg.size and seg.max() > 0:
                    slot[idx[i]] = int(np.argmax(seg))
        return slot

    # ------------------------------------------------------------------
    def _initialize(self, wk: WalkerBatch, state: np.ndarray) -> None:
        """Lazily initialize first-touch states for the walkers ``wk``."""
        g = self.g
        deg = g.degree(wk.cur)
        start = g.indptr[wk.cur]
        k = len(wk)
        if self.init == "random":
            slot = np.minimum((self.rng.random(k) * deg).astype(np.int64), deg - 1)
            slot = self._retry_invalid(wk, deg, start, slot)
        elif self.init == "weight":
            # Approximate high-weight: argmax of dyn weight over
            # hw_samples uniform candidate slots per state (§III-C).
            K = self.hw_samples
            rep = wk.repeat(K)
            deg_rep = np.repeat(deg, K)
            slots = np.minimum(
                (self.rng.random(k * K) * deg_rep).astype(np.int64), deg_rep - 1
            )
            w = self.model.dyn_weight(g, rep, np.repeat(start, K) + slots)
            best = np.argmax(w.reshape(k, K), axis=1)
            slot = slots.reshape(k, K)[np.arange(k), best]
            slot = self._retry_invalid(wk, deg, start, slot)
        else:  # burn-in
            slot = np.minimum((self.rng.random(k) * deg).astype(np.int64), deg - 1)
            w_slot = self.model.dyn_weight(g, wk, start + slot)
            for _ in range(self.burn_in):
                slot, w_slot = self._mh_iterate(wk, slot, w_slot)
        self.manager.set(state, slot)

    # ------------------------------------------------------------------
    def sample(self, wk: WalkerBatch) -> np.ndarray:
        """Algorithm 1, batched: one M-H draw per walker; returns the
        chosen global edge slot (the state's updated LAST_x)."""
        if self.manager is None:
            self.prepare()
        g = self.g
        state = self.model.state_index(g, wk)
        need = self.manager.uninitialized(state)
        if need.any():
            self._initialize(wk.take(need), state[need])

        start = g.indptr[wk.cur]
        last = self.manager.get(state).astype(np.int64)
        w_last = self.model.dyn_weight(g, wk, start + last)
        new_slot, _ = self._mh_iterate(wk, last, w_last)
        self.manager.set(state, new_slot)
        return start + new_slot

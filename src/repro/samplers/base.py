"""Edge-sampler interface, memory-budget accounting, static sampler.

All samplers share one vectorized contract: ``prepare()`` does the
upfront work (table building, state allocation — the ``T_i`` column of
Table VI), then each ``sample(wk)`` call advances a batch of walkers by
one edge, returning the chosen **global CSR edge slot** per walker
(``-1`` for walkers with no valid move). Every uniform a sampler uses
comes from its own ``self.rng``, which ``reseed`` swaps; ``fork()``
gives each Spark task a copy with its own mutable state.

Memory accounting is *paper-normalized* (DESIGN.md §3): samplers charge
their table bytes at the paper's per-entry costs against a budget
scaled like the paper's 96 GB server vs. each dataset's true size, so
the same samplers fail (`*` in the tables) on the same stand-ins by the
same arithmetic, without really exhausting container RAM.
"""
from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers.segment import inverse_cdf

# Paper-normalized per-entry byte costs.
BYTES_TABLE_ENTRY = 12  # alias table entry: prob (f8) + alias (i4)
BYTES_STATIC_ALIAS_PER_EDGE = 12  # 1st-order alias over static weights
BYTES_MH_STATE = 4  # one LAST_x variable
#: Real (container) guardrail on flat table entries, independent of the
#: simulated budget — protects the driver from truly huge allocations.
REAL_ENTRY_CAP = 200_000_000


class MemoryBudgetExceeded(RuntimeError):
    """Raised when a sampler's simulated memory ledger exceeds budget —
    rendered as ``*`` (out of memory) in the reproduced tables."""


class MemoryBudget:
    """A simple byte ledger with an optional ceiling."""

    def __init__(self, budget_bytes: Optional[float] = None, label: str = ""):
        self.budget = budget_bytes
        self.label = label
        self.used = 0.0
        self.ledger: Dict[str, float] = {}

    def charge(self, item: str, nbytes: float) -> None:
        self.used += float(nbytes)
        self.ledger[item] = self.ledger.get(item, 0.0) + float(nbytes)
        if self.budget is not None and self.used > self.budget:
            raise MemoryBudgetExceeded(
                f"{self.label}: {item} pushes simulated memory to "
                f"{self.used / 2**30:.2f} GiB > budget {self.budget / 2**30:.2f} GiB"
            )


class EdgeSampler:
    """Common sampler contract (see module docstring)."""

    name = "abstract"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
    ):
        self.g = g
        self.model = model
        self.rng = rng
        self.budget = budget if budget is not None else MemoryBudget(None)
        self.stats: Dict[str, float] = {"proposals": 0, "accepts": 0}
        self._prepared = False

    def prepare(self) -> None:
        """Upfront initialization (tables, state allocation)."""
        self._prepared = True

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the random stream (per-batch seeding in the engine)."""
        self.rng = rng

    def fork(self) -> "EdgeSampler":
        """A copy for one Spark task. It shares the read-only prepared
        arrays (graph, tables, cumsums) and starts with fresh ``stats``;
        subclasses with more per-task state renew it too."""
        twin = copy.copy(self)
        twin.stats = {"proposals": 0, "accepts": 0}
        return twin

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        """Advance each walker one edge; returns global edge slots."""
        raise NotImplementedError

    @property
    def acceptance_ratio(self) -> float:
        p = self.stats.get("proposals", 0)
        return float(self.stats.get("accepts", 0)) / p if p else 1.0


def static_cum(g: CSRGraph) -> np.ndarray:
    """Global prefix sums of the static weights, ``float64[m + 1]``."""
    return np.concatenate([[0.0], np.cumsum(g.weights, dtype=np.float64)])


def static_choice(
    g: CSRGraph, wcum: np.ndarray, cur: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """One neighbor edge slot per node in ``cur`` ∝ static weight, from
    the uniforms ``u`` (``wcum`` is :func:`static_cum` of ``g``)."""
    return inverse_cdf(wcum, g.indptr[cur], g.indptr[cur + 1], u)


class StaticSampler(EdgeSampler):
    """Exact sampling proportional to **static** edge weights.

    O(log d) per draw via one global weight-prefix array. Serves as the
    proposal draw of the rejection-family samplers, which subclass it,
    and as the alias-equivalent first-order sampler of KnightKing
    (charged at alias memory cost by those subclasses).
    """

    name = "static"

    def prepare(self) -> None:
        self.wcum = static_cum(self.g)
        self._prepared = True

    def sample_nodes(self, cur: np.ndarray) -> np.ndarray:
        """Draw one neighbor edge slot per node in ``cur`` ∝ static w."""
        return static_choice(self.g, self.wcum, cur, self.rng.random(cur.shape[0]))

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        return self.sample_nodes(wk.cur)

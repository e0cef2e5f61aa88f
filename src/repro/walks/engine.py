"""Distributed random walk generation (paper Algorithm 2 over Spark).

UniNet parallelizes walk generation by assigning independent walkers to
threads (§IV-A); the distributed-dataflow translation assigns them to
Spark partitions. The walker population (start node × walk number) is a
DataFrame; ``mapInPandas`` runs the vectorized kernel per partition
against a **broadcast** read-only graph + prepared sampler. Each task
walks with its own ``fork()`` of the sampler, so sampler manager state
(``LAST_x``) and ``stats`` are task-local (DESIGN.md §7) even when a
Python worker runs many tasks.

Samplers with expensive ``prepare()`` (alias tables) are prepared once
on the driver and shipped via the broadcast, mirroring UniNet's threads
sharing one table set.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.abstraction import RandomWalkModel
from repro.graph.csr import CSRGraph
from repro.samplers import make_sampler
from repro.samplers.base import EdgeSampler, MemoryBudget
from repro.walks.kernel import simulate_walks, walks_to_lists

WALKS_SCHEMA = "walk_id long, start long, walk array<long>"


def walker_frame(
    spark: SparkSession,
    starts: np.ndarray,
    num_walks: int,
    num_partitions: int,
) -> DataFrame:
    """The walker population: one row per (start node, walk index)."""
    n = int(starts.shape[0]) * num_walks
    return spark.range(n).repartition(num_partitions)


def generate_walks(
    spark: SparkSession,
    g: CSRGraph,
    model: RandomWalkModel,
    *,
    num_walks: int = 10,
    walk_length: int = 80,
    sampler: str = "mh",
    sampler_kw: Optional[dict] = None,
    budget: Optional[MemoryBudget] = None,
    seed: int = 0,
    num_partitions: Optional[int] = None,
    prepared: Optional[EdgeSampler] = None,
) -> DataFrame:
    """Random walk corpus as a DataFrame ``(walk_id, start, walk)``.

    ``prepared`` lets callers pass an already-``prepare()``-ed sampler
    (so its init cost is timed separately, Table VI's ``T_i``);
    otherwise one is built and prepared on the driver here. The
    returned DataFrame is lazy — trigger with an action.
    """
    sc = spark.sparkContext
    parts = num_partitions or sc.defaultParallelism
    starts = model.start_nodes(g)
    if starts.shape[0] == 0:
        raise ValueError("model has no eligible start nodes on this graph")

    if prepared is None:
        rng0 = np.random.default_rng(seed)
        prepared = make_sampler(sampler, g, model, rng0, budget, **(sampler_kw or {}))
        prepared.prepare()
    bc = sc.broadcast((g, model, prepared, starts))

    def run(batches):
        gb, mb, sb, st = bc.value
        # Per-task mutable sampler state; read-only tables are shared
        # via the broadcast arrays.
        samp = sb.fork()
        for pdf in batches:
            ids = pdf["id"].to_numpy(np.int64)
            if ids.shape[0] == 0:
                continue
            samp.reseed(np.random.default_rng((seed, int(ids[0]), 0xC0FFEE)))
            batch_starts = st[ids % st.shape[0]]
            walks = simulate_walks(
                gb, mb, batch_starts, walk_length, samp, samp.rng
            )
            yield pd.DataFrame(
                {
                    "walk_id": ids,
                    "start": batch_starts,
                    "walk": walks_to_lists(walks),
                }
            )

    return walker_frame(spark, starts, num_walks, parts).mapInPandas(
        run, schema=WALKS_SCHEMA
    )


def count_walk_tokens(walks_df: DataFrame) -> int:
    """Action: total node tokens across the corpus (drives execution)."""
    from pyspark.sql import functions as F

    return int(
        walks_df.select(F.sum(F.size("walk")).alias("t")).collect()[0]["t"]
    )

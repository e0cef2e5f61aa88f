"""One pass of the pipeline, phase by phase, and the checks on its outputs.

graph -> sampler ``prepare()`` -> ``walks.engine.generate_walks`` ->
(Word2Vec -> F1). The walk phase persists and counts the corpus, so the
learning phase reads a materialized cache and never regenerates walks.
"""
from __future__ import annotations

import hashlib
import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from perfbench.workloads import EVAL, W2V, WALK, Workload, derive_seed
from repro.bench_utils import paper_budget
from repro.datasets import DATASETS
from repro.embedding.word2vec import train_embeddings, vectors_to_numpy
from repro.eval.classification import evaluate_embeddings
from repro.graph.csr import CSRGraph
from repro.models import make_model
from repro.samplers import make_sampler
from repro.walks.engine import count_walk_tokens, generate_walks


#: Word2Vec settings of the learning layer; the partition count stays at
#: ``train_embeddings``' default.
W2V_KW = {"dim": 48, "window": 5, "max_iter": 1}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def model_for(wl: Workload):
    return make_model(wl.model, **wl.model_kw)


def prepare(wl: Workload, g: CSRGraph, model, seed: int):
    """A freshly prepared sampler and its paper-scaled ledger; ``prepare_s``."""
    budget = paper_budget(DATASETS[wl.paper_dataset], g)
    sampler = make_sampler(
        wl.sampler, g, model, np.random.default_rng(derive_seed(seed, WALK)), budget
    )
    t0 = time.perf_counter()
    sampler.prepare()
    return sampler, budget, time.perf_counter() - t0


def walk(spark: SparkSession, wl: Workload, g, model, sampler, seed: int,
         num_partitions=None):
    """Persisted, counted corpus; ``(df, tokens, walk_s)``."""
    t0 = time.perf_counter()
    df = generate_walks(
        spark, g, model, num_walks=wl.num_walks, walk_length=wl.walk_length,
        prepared=sampler, seed=derive_seed(seed, WALK), num_partitions=num_partitions,
    ).persist()
    tokens = count_walk_tokens(df)
    return df, tokens, time.perf_counter() - t0


def cache_loaded(spark: SparkSession, df: DataFrame) -> bool:
    """True when ``df``'s cached column buffers are materialized."""
    cached = spark._jsparkSession.sharedState().cacheManager().lookupCachedData(df._jdf)
    return bool(
        cached.isDefined()
        and cached.get().cachedRepresentation().cacheBuilder().isCachedColumnBuffersLoaded()
    )


def learn(spark: SparkSession, df: DataFrame, n: int, seed: int):
    """``repro.embedding.word2vec`` on the persisted corpus:
    ``(vectors, vectors_df, spans)`` with spans for fit and vectors."""
    check(cache_loaded(spark, df), "corpus cache not materialized before learning")
    t0 = time.perf_counter()
    vectors_df = train_embeddings(df, seed=derive_seed(seed, W2V), **W2V_KW)
    t1 = time.perf_counter()
    vectors = vectors_to_numpy(vectors_df, n)
    t2 = time.perf_counter()
    return vectors, vectors_df, {"w2v.fit_s": t1 - t0, "w2v.vectors_s": t2 - t1}


def evaluate(vectors: np.ndarray, labels: np.ndarray, seed: int):
    t0 = time.perf_counter()
    res = evaluate_embeddings(vectors, labels, seed=derive_seed(seed, EVAL))
    return res, time.perf_counter() - t0


#: Per-walk check flags, set by :func:`_walk_checks`.
BAD_LENGTH, BAD_TOKEN, BAD_START, BAD_EDGE = 1, 2, 4, 8
_BAD_WHAT = {
    BAD_LENGTH: "walk length out of range",
    BAD_TOKEN: "token outside [0, n): padding leaked or bad id",
    BAD_START: "walk does not begin at its start node",
    BAD_EDGE: "consecutive tokens are not a graph edge",
}
_CHECKED_SCHEMA = "walk_id long, len long, h long, bad int"
#: Odd multiplier of the per-walk polynomial hash (arithmetic mod 2**64).
_HASH_K = np.uint64(0x9E3779B97F4A7C15)


def _walk_checks(g: CSRGraph, walk_length: int):
    """mapInArrow body: for every walk, its id, length, a 64-bit hash of
    its tokens and the ``BAD_*`` flags it fails."""
    pw = np.cumprod(np.full(walk_length + 1, _HASH_K, dtype=np.uint64))

    def run(batches):
        import pyarrow as pa

        for b in batches:
            walks = b.column("walk")
            offs = walks.offsets.to_numpy().astype(np.int64)
            offs -= offs[0]
            toks = walks.flatten().to_numpy().astype(np.int64)
            lens = np.diff(offs)
            nw = lens.shape[0]
            owner = np.repeat(np.arange(nw), lens)
            bad = np.where((lens < 1) | (lens > walk_length + 1), BAD_LENGTH, 0)
            out = (toks < 0) | (toks >= g.n)
            bad |= np.where(np.bincount(owner, out, minlength=nw) > 0, BAD_TOKEN, 0)
            first = np.append(toks, -1)[offs[:-1]]
            start_ok = (lens > 0) & (first == b.column("start").to_numpy())
            bad |= np.where(start_ok, 0, BAD_START)
            # Consecutive pairs within a walk (not across a walk boundary).
            pair = np.flatnonzero(owner[:-1] == owner[1:])
            ids = np.clip(toks, 0, g.n - 1)
            miss = g.edge_index(ids[pair], ids[pair + 1]) < 0
            bad |= np.where(np.bincount(owner[pair], miss, minlength=nw) > 0, BAD_EDGE, 0)
            pos = np.arange(toks.shape[0]) - np.repeat(offs[:-1], lens)
            hv = (toks.astype(np.uint64) + np.uint64(1)) * pw[np.minimum(pos, walk_length)]
            cs = np.concatenate([np.zeros(1, np.uint64), np.cumsum(hv, dtype=np.uint64)])
            h = (cs[offs[1:]] - cs[offs[:-1]]).view(np.int64)
            yield pa.RecordBatch.from_arrays(
                [b.column("walk_id"), pa.array(lens), pa.array(h), pa.array(bad.astype(np.int32))],
                names=["walk_id", "len", "h", "bad"],
            )

    return run


def check_corpus(df: DataFrame, g: CSRGraph, wl: Workload, n_starts: int) -> str:
    """Check the corpus; return its digest (ordered by ``walk_id``).

    The corpus is checked and hashed on the executors, so the driver only
    receives one small row per walk and its peak memory stays the
    program's own.
    """
    table = df.mapInArrow(_walk_checks(g, wl.walk_length), _CHECKED_SCHEMA).toArrow()
    ids = table.column("walk_id").to_numpy()
    check(ids.shape[0] == wl.num_walks * n_starts,
          f"{ids.shape[0]} walks, expected {wl.num_walks} x {n_starts}")
    check(np.unique(ids).shape[0] == ids.shape[0], "walk_id values not unique")
    bad = np.bitwise_or.reduce(table.column("bad").to_numpy(), initial=0)
    for flag, what in _BAD_WHAT.items():
        check(not bad & flag, what)
    # Walks in walk_id order, so the digest ignores row order.
    order = np.argsort(ids, kind="stable")
    h = hashlib.blake2b(digest_size=12)
    for name in ("walk_id", "len", "h"):
        h.update(np.ascontiguousarray(table.column(name).to_numpy()[order]).tobytes())
    return h.hexdigest()

"""The traced run: spans around calls into each layer, from benchmark code.

Spans are recorded here, around the program's public functions, never
inside the program. :class:`Spanned` wraps a sampler or model and times
the named methods; it draws no random numbers, so a traced corpus must
equal the untraced one whenever untraced runs agree with each other.
"""
from __future__ import annotations

import pickle
import time

import numpy as np
from pyspark.serializers import pickle_protocol
from pyspark.sql import SparkSession

from perfbench import pipeline
from perfbench.pipeline import check
from perfbench.workloads import GRAPH, WALK, Workload, derive_seed
from repro.embedding.word2vec import walks_as_sentences
from repro.synth_data import node_types
from repro.walks.kernel import simulate_walks, walks_to_lists

_OWN = ("inner", "methods", "spans")


class Spanned:
    """Forwards every attribute to ``inner``; counts and times calls to
    ``methods`` into ``spans[name] = [calls, seconds]``."""

    def __init__(self, inner, methods):
        self.inner = inner
        self.methods = frozenset(methods)
        self.spans = {m: [0, 0.0] for m in methods}

    def __getattr__(self, name):
        if name.startswith("__") or name in _OWN:
            raise AttributeError(name)
        attr = getattr(self.inner, name)
        if name not in self.methods:
            return attr
        span = self.spans[name]

        def timed(*args, **kw):
            t0 = time.perf_counter()
            try:
                return attr(*args, **kw)
            finally:
                span[0] += 1
                span[1] += time.perf_counter() - t0

        return timed


def serial_kernel(g, model, sampler, wl: Workload, starts, seed: int, batch: int):
    """The engine's per-batch work over the same walkers in one process:
    ``(simulate_s, walks_to_lists_s, steps)``."""
    ids = np.arange(starts.shape[0] * wl.num_walks, dtype=np.int64)
    sim_s = lists_s = 0.0
    steps = 0
    for lo in range(0, ids.shape[0], batch):
        chunk = ids[lo:lo + batch]
        sampler.reseed(np.random.default_rng((seed, lo)))
        t0 = time.perf_counter()
        walks = simulate_walks(g, model, starts[chunk % starts.shape[0]],
                               wl.walk_length, sampler, sampler.rng)
        t1 = time.perf_counter()
        rows = walks_to_lists(walks)
        t2 = time.perf_counter()
        sim_s += t1 - t0
        lists_s += t2 - t1
        steps += sum(len(r) - 1 for r in rows)
    return sim_s, lists_s, steps


def traced_run(spark: SparkSession, wl: Workload, seed: int, g, labels,
               build_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one workload, and an info dict (digests)."""
    m = {"graph.build_s": build_s,
         "graph.csr_bytes": sum(v.nbytes for v in vars(g).values()
                                if isinstance(v, np.ndarray))}
    model = pipeline.model_for(wl)
    starts = model.start_nodes(g)
    wseed = derive_seed(seed, WALK)
    batch = int(spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))

    # Untraced pass: prepare, walk, and the learning layers on its corpus.
    sampler, budget, m["sampler.prepare_s"] = pipeline.prepare(wl, g, model, seed)
    m["sampler.ledger_bytes"] = budget.used - budget.ledger.get("graph_csr", 0.0)
    df, _, walk_s = pipeline.walk(spark, wl, g, model, sampler, seed)
    try:
        digest = pipeline.check_corpus(df, g, wl, starts.shape[0])
        t0 = time.perf_counter()
        sents = walks_as_sentences(df).persist()
        sents.count()
        m["w2v.sentences_s"] = time.perf_counter() - t0
        sents.unpersist(blocking=True)
        vectors, vectors_df, spans = pipeline.learn(spark, df, g.n, seed)
        m.update(spans)
        m["w2v.vocab_size"] = vectors_df.count()
    finally:
        df.unpersist(blocking=True)
    if labels is None:
        # Unlabelled graph: time the layer against attribute-like labels;
        # the F1 itself means nothing here and is not reported.
        _, m["eval.s"] = pipeline.evaluate(
            vectors, node_types(n=g.n, n_types=10, seed=derive_seed(seed, GRAPH)), seed)
        f1 = None
    else:
        res, m["eval.s"] = pipeline.evaluate(vectors, labels, seed)
        check(min(res.micro_f1, res.macro_f1) > 1.0 / wl.n_communities,
              f"F1 {res} not above chance 1/{wl.n_communities}")
        f1 = {"micro_f1": res.micro_f1, "macro_f1": res.macro_f1}

    t0 = time.perf_counter()
    blob = pickle.dumps((g, model, sampler, starts), pickle_protocol)
    m["engine.broadcast_pickle_s"] = time.perf_counter() - t0
    m["engine.broadcast_bytes"] = len(blob)
    del blob

    # Traced Spark walk: the same walk with Spanned sampler and model.
    tmodel = Spanned(model, ["dyn_weight"])
    tsampler, _, _ = pipeline.prepare(wl, g, tmodel, seed)
    df, _, traced_walk_s = pipeline.walk(spark, wl, g, tmodel, Spanned(tsampler, ["sample"]), seed)
    try:
        traced_digest = pipeline.check_corpus(df, g, wl, starts.shape[0])
    finally:
        df.unpersist(blocking=True)
    m["engine.trace_overhead_s"] = traced_walk_s - walk_s
    digests = [digest, traced_digest]
    if traced_digest != digest:
        # Tracing may only be blamed when untraced runs agree.
        sampler2, _, _ = pipeline.prepare(wl, g, model, seed)
        df, _, _ = pipeline.walk(spark, wl, g, model, sampler2, seed)
        try:
            digests.append(pipeline.check_corpus(df, g, wl, starts.shape[0]))
        finally:
            df.unpersist(blocking=True)
        check(digests[2] != digest, "traced corpus differs from the untraced one")

    sampler1, _, _ = pipeline.prepare(wl, g, model, seed)
    df, _, m["engine.walk_1p_s"] = pipeline.walk(spark, wl, g, model, sampler1, seed,
                                                 num_partitions=1)
    df.unpersist(blocking=True)

    bare, _, _ = pipeline.prepare(wl, g, model, seed)
    sim_s, lists_s, steps = serial_kernel(g, model, bare, wl, starts, wseed, batch)
    m["kernel.serial_s"] = sim_s + lists_s
    m["kernel.walks_to_lists_s"] = lists_s
    m["kernel.steps"] = steps

    # Traced serial kernel: sample and dyn_weight spans (dyn_weight also
    # during prepare(), where the alias tables call it).
    tmodel = Spanned(model, ["dyn_weight"])
    tsampler, _, _ = pipeline.prepare(wl, g, tmodel, seed)
    spanned = Spanned(tsampler, ["sample"])
    sim_s, _, _ = serial_kernel(g, tmodel, spanned, wl, starts, wseed, batch)
    m["kernel.sample_s"] = spanned.spans["sample"][1]
    m["kernel.self_s"] = sim_s - m["kernel.sample_s"]
    m["model.dyn_weight_calls"], m["model.dyn_weight_s"] = tmodel.spans["dyn_weight"]
    stats = tsampler.stats
    m["mh.proposals"] = int(stats["proposals"])
    m["mh.accepts"] = int(stats["accepts"])
    m["mh.accept_ratio"] = tsampler.acceptance_ratio
    manager = getattr(tsampler, "manager", None)
    m["mh.states_initialized"] = manager.initialized_count if manager else 0
    m["mh.init_ratio"] = m["mh.states_initialized"] / model.num_states(g)

    m["engine.overhead_1p"] = m["engine.walk_1p_s"] / m["kernel.serial_s"] - 1.0
    m["engine.speedup"] = m["engine.walk_1p_s"] / walk_s
    return m, {"walk_s": walk_s, "traced_walk_s": traced_walk_s, "digests": digests,
               "f1": f1}

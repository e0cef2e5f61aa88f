"""The benchmark's workloads and the map from per-layer to end-to-end metrics.

Every input is generated from the workload seed: the graph (via the
repo's own generators and ``graph.csr.from_edges``) and the walk,
Word2Vec and evaluation seeds all derive from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, from_edges
from repro.synth_data import chung_lu_edges, planted_partition_edges


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    sampler: str
    #: ``chung_lu`` (power-law, unlabelled) or ``planted`` (communities).
    graph: str
    n: int
    avg_degree: float
    num_walks: int
    walk_length: int
    #: Registry dataset whose paper-scaled memory budget the ledger is
    #: checked against (``bench_utils.paper_budget``).
    paper_dataset: str
    model_kw: dict = field(default_factory=dict)
    beta: float = 0.6
    n_communities: int = 0
    p_in: float = 0.0

    def params(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "name"}


WORKLOADS = {
    w.name: w
    for w in [
        # The paper's contribution path: node2vec through the M-H sampler
        # on a twitter_sim-shaped power-law graph, scaled to 10K nodes
        # (~0.29M slots) so a run holds several passes. 2 x 80 walks make
        # about 5.5 M-H draws per initialized state, as on the 50K-node
        # graph. Time goes to the kernel, the M-H sampler and node2vec's
        # has_edge; prepare() is ~0 and nothing is learned.
        Workload(
            "n2v-mh-corpus", "node2vec", "mh", "chung_lu",
            n=10_000, avg_degree=30, beta=0.6, num_walks=2, walk_length=80,
            model_kw={"p": 0.25, "q": 4.0}, paper_dataset="twitter_sim",
        ),
        # "UniNet (Orig)": the same model through alias tables on a dense
        # 2K-node graph with 10 planted communities. Time goes to the
        # table build (prepare) and a walk with a ~41 MB broadcast; M-H is
        # bypassed, so an M-H change should not move it. The traced run
        # learns embeddings from its corpus and checks F1 against the
        # communities.
        Workload(
            "n2v-alias-corpus", "node2vec", "alias", "planted",
            n=2_000, avg_degree=50, num_walks=10, walk_length=80,
            n_communities=10, p_in=0.5,
            model_kw={"p": 0.25, "q": 4.0}, paper_dataset="flickr_lite",
        ),
    ]
}


def derive_seed(seed: int, *tags: int) -> int:
    """A 31-bit seed for one consumer (graph, walks, w2v, eval) of ``seed``."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0] >> 1)


GRAPH, WALK, W2V, EVAL = range(4)


def build_graph(wl: Workload, seed: int) -> tuple[CSRGraph, np.ndarray | None]:
    """The workload's graph (and community labels on planted graphs)."""
    gs = derive_seed(seed, GRAPH)
    if wl.graph == "chung_lu":
        src, dst, w = chung_lu_edges(
            n=wl.n, avg_degree=wl.avg_degree, beta=wl.beta, seed=gs
        )
        labels = None
    else:
        src, dst, w, labels = planted_partition_edges(
            n=wl.n, n_communities=wl.n_communities, avg_degree=wl.avg_degree,
            p_in=wl.p_in, seed=gs,
        )
    return from_edges(src, dst, w, n=wl.n), labels


#: End-to-end metrics every workload reports, with their units. A pass
#: also measures prepare_s, which is printed but not gated: on the M-H
#: workload it is a sub-millisecond allocation.
END_TO_END = {
    "setup_s": "s",
    "walk_s": "s",
    "walk_steps_per_s": "1/s",
    "total_s": "s",
    "driver_peak_rss_mb": "MB",
}
PASS_UNITS = {"prepare_s": "s", **END_TO_END}

#: Per-layer metric -> (unit, [(end-to-end metric, workload) it should
#: move]). "none" marks a workload where the prediction is no change.
#: Learning (w2v.*, eval.s) runs only in the traced run, so it moves no
#: end-to-end metric here.
PER_LAYER = {
    "graph.build_s": ("s", [("setup_s", "all")]),
    "graph.csr_bytes": ("B", [("setup_s", "all"), ("walk_s", "n2v-mh-corpus")]),
    "sampler.prepare_s": ("s", [("total_s", "n2v-alias-corpus")]),
    "sampler.ledger_bytes": ("B", [
        ("total_s", "n2v-alias-corpus"),
        ("driver_peak_rss_mb", "n2v-alias-corpus"),
    ]),
    "engine.broadcast_bytes": ("B", [
        ("walk_s", "n2v-alias-corpus"),
        ("walk_s", "n2v-mh-corpus"),
    ]),
    "engine.broadcast_pickle_s": ("s", [
        ("walk_s", "n2v-alias-corpus"),
        ("walk_s", "n2v-mh-corpus"),
    ]),
    "kernel.serial_s": ("s", [
        ("walk_s", "n2v-mh-corpus"),
        ("walk_steps_per_s", "n2v-mh-corpus"),
    ]),
    "kernel.steps": ("count", [("walk_steps_per_s", "n2v-mh-corpus")]),
    "kernel.sample_s": ("s", [
        ("walk_s", "n2v-mh-corpus"),
        ("walk_steps_per_s", "n2v-mh-corpus"),
    ]),
    "kernel.self_s": ("s", [
        ("walk_s", "n2v-mh-corpus"),
        ("walk_steps_per_s", "n2v-mh-corpus"),
    ]),
    "kernel.walks_to_lists_s": ("s", [
        ("walk_s", "n2v-mh-corpus"),
        ("walk_steps_per_s", "n2v-mh-corpus"),
    ]),
    "mh.proposals": ("count", [("walk_s", "n2v-mh-corpus"), ("none", "n2v-alias-corpus")]),
    "mh.accepts": ("count", [("walk_s", "n2v-mh-corpus"), ("none", "n2v-alias-corpus")]),
    "mh.accept_ratio": ("ratio", [
        ("walk_s", "n2v-mh-corpus"),
        ("none", "n2v-alias-corpus"),
    ]),
    "mh.states_initialized": ("count", [
        ("walk_s", "n2v-mh-corpus"),
        ("none", "n2v-alias-corpus"),
    ]),
    "mh.init_ratio": ("ratio", [("walk_s", "n2v-mh-corpus"), ("none", "n2v-alias-corpus")]),
    "model.dyn_weight_calls": ("count", [
        ("walk_s", "n2v-mh-corpus"),
        ("none", "n2v-alias-corpus"),
    ]),
    "model.dyn_weight_s": ("s", [
        ("walk_s", "n2v-mh-corpus"),
        ("none", "n2v-alias-corpus"),
    ]),
    "engine.walk_1p_s": ("s", [("walk_s", "n2v-mh-corpus")]),
    "engine.overhead_1p": ("ratio", [("walk_s", "n2v-mh-corpus")]),
    "engine.speedup": ("ratio", [("walk_s", "n2v-mh-corpus")]),
    "engine.trace_overhead_s": ("s", [("none", "all")]),
    "w2v.sentences_s": ("s", [("none", "all")]),
    "w2v.fit_s": ("s", [("none", "all")]),
    "w2v.vectors_s": ("s", [("none", "all")]),
    "w2v.vocab_size": ("count", [("none", "all")]),
    "eval.s": ("s", [("none", "all")]),
}

"""Seed-fixed walk digests for every sampler × model.

The expected digests pin the exact walks (and the proposal / accept
counters) that ``simulate_walks`` produces at fixed seeds, so a refactor
of the samplers that changes which uniforms are drawn, or in which
order, shows up here. Regenerate with
``PYTHONPATH=src python -m tests.test_walk_digests`` only when a change
to the walks is intended.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models import MODEL_INFO, make_model
from repro.samplers import SAMPLER_NAMES, make_sampler
from repro.walks.kernel import simulate_walks

from tests.util import small_graph

#: p < 1 makes node2vec's return edge an outlier, so KnightKing folds.
MODEL_KW = {"node2vec": {"p": 0.25, "q": 4.0}}


def _cases():
    g = small_graph()
    for name in SAMPLER_NAMES:
        for model_name in MODEL_INFO:
            if name == "memory_aware":
                if MODEL_INFO[model_name]["order"] != 2:
                    continue
                for tb in (0.0, 4.0 * g.m, 1e12):
                    yield name, model_name, tb
            else:
                yield name, model_name, None


def walk_digest(name: str, model_name: str, table_budget) -> str:
    """Two engine-style batches on one sampler, reseeded per batch."""
    g = small_graph()
    model = make_model(model_name, **MODEL_KW.get(model_name, {}))
    kw = {} if table_budget is None else {"table_budget_bytes": table_budget}
    s = make_sampler(name, g, model, np.random.default_rng(17), **kw)
    s.prepare()
    starts = model.start_nodes(g)
    h = hashlib.sha256()
    for batch in range(2):
        s.reseed(np.random.default_rng((17, batch)))
        h.update(simulate_walks(g, model, starts, 10, s, s.rng).tobytes())
    h.update(f"{int(s.stats['proposals'])}/{int(s.stats['accepts'])}".encode())
    return h.hexdigest()[:16]


#: Recorded before the samplers shared one inverse-CDF primitive and one
#: random stream; the refactor must reproduce them bit for bit.
EXPECTED = {
    "mh/deepwalk": "bdad60aecdb674b2",
    "mh/node2vec": "deb59915fbce5f3e",
    "mh/metapath2vec": "25280990ff37f475",
    "mh/edge2vec": "51052dce4b1856d4",
    "mh/fairwalk": "faf11b0ad17c9bb4",
    "mh-random/deepwalk": "b42ad98dd51ea0ef",
    "mh-random/node2vec": "156fcc85b2323ae1",
    "mh-random/metapath2vec": "5d4a7e68b320c9d1",
    "mh-random/edge2vec": "9020d676b7b7554a",
    "mh-random/fairwalk": "02641e3a1b28bbfb",
    "mh-weight/deepwalk": "bdad60aecdb674b2",
    "mh-weight/node2vec": "deb59915fbce5f3e",
    "mh-weight/metapath2vec": "25280990ff37f475",
    "mh-weight/edge2vec": "51052dce4b1856d4",
    "mh-weight/fairwalk": "faf11b0ad17c9bb4",
    "mh-burn/deepwalk": "e7a3ca4984f40652",
    "mh-burn/node2vec": "94a5783e9f310625",
    "mh-burn/metapath2vec": "566205f44d410140",
    "mh-burn/edge2vec": "d6aeb7b8f11105f0",
    "mh-burn/fairwalk": "0e3d0915a9648b33",
    "alias/deepwalk": "b4264c15ae9a0df2",
    "alias/node2vec": "7a937943e06f4b76",
    "alias/metapath2vec": "fa481a0f35eff1ec",
    "alias/edge2vec": "6843cb05151431c5",
    "alias/fairwalk": "dff3f999dedfc847",
    "direct/deepwalk": "b4264c15ae9a0df2",
    "direct/node2vec": "7a937943e06f4b76",
    "direct/metapath2vec": "fa481a0f35eff1ec",
    "direct/edge2vec": "6843cb05151431c5",
    "direct/fairwalk": "dff3f999dedfc847",
    "rejection/deepwalk": "508a0338625edc9e",
    "rejection/node2vec": "d08c0ab906729d73",
    "rejection/metapath2vec": "8038af2c85259e97",
    "rejection/edge2vec": "9fa148a599402edc",
    "rejection/fairwalk": "eb36fc86b1eee51e",
    "knightking/deepwalk": "b4264c15ae9a0df2",
    "knightking/node2vec": "71f5b17775913430",
    "knightking/metapath2vec": "9a45202e2f45d45d",
    "knightking/edge2vec": "9fa148a599402edc",
    "knightking/fairwalk": "eb36fc86b1eee51e",
    "memory_aware/node2vec/0": "7a937943e06f4b76",
    "memory_aware/node2vec/8896": "987866a30935c015",
    "memory_aware/node2vec/1e+12": "7a937943e06f4b76",
    "memory_aware/edge2vec/0": "6843cb05151431c5",
    "memory_aware/edge2vec/8896": "38e4c97ef9ea2ddf",
    "memory_aware/edge2vec/1e+12": "6843cb05151431c5",
    "memory_aware/fairwalk/0": "dff3f999dedfc847",
    "memory_aware/fairwalk/8896": "280e2b77f412b120",
    "memory_aware/fairwalk/1e+12": "dff3f999dedfc847",
}


@pytest.mark.parametrize("name,model_name,table_budget", list(_cases()))
def test_walk_digest_unchanged(name, model_name, table_budget):
    key = f"{name}/{model_name}" + ("" if table_budget is None else f"/{table_budget:g}")
    assert walk_digest(name, model_name, table_budget) == EXPECTED[key]


if __name__ == "__main__":
    for name, model_name, tb in _cases():
        key = f"{name}/{model_name}" + ("" if tb is None else f"/{tb:g}")
        print(f'    "{key}": "{walk_digest(name, model_name, tb)}",')

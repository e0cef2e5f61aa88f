"""Baseline edge samplers: exact distributions, budgets, comparator
behaviours (alias / direct / rejection / knightking / memory-aware /
static)."""
import numpy as np
import pytest

from repro.core.abstraction import WalkerBatch
from repro.core.theory import exact_transition, tv_distance
from repro.models import make_model
from repro.samplers import SAMPLER_NAMES, make_sampler
from repro.samplers.base import (
    MemoryBudget,
    MemoryBudgetExceeded,
    StaticSampler,
)
from repro.samplers.segment import ragged_arange, segment_ids, segmented_choice

from tests.util import (
    empirical_distribution_batched,
    good_state,
    small_graph,
    state_batch,
)

MODELS = [
    ("deepwalk", {}, dict()),
    ("node2vec", dict(p=0.25, q=4.0), dict(prev=True)),
    ("edge2vec", {}, dict(prev=True)),
    ("fairwalk", {}, dict(prev=True)),
    ("metapath2vec", {}, dict(req_type=1)),
]
BASELINES = ["alias", "direct", "rejection", "knightking"]


@pytest.fixture(scope="module")
def g():
    return small_graph()


def _probe(g, st):
    v, prev = good_state(g)
    return v, (prev if st.get("prev") else -1), st.get("req_type")


# ----------------------------------------------------------------------
# Exactness: every memoryless baseline matches the closed-form target
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sname", BASELINES)
@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_baseline_matches_exact_distribution(g, mname, kw, st, sname):
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    s = make_sampler(sname, g, model, np.random.default_rng(11))
    s.prepare()
    emp = empirical_distribution_batched(g, s, v, prev, req, 30000)
    pi = exact_transition(g, model, v, prev, req)
    assert tv_distance(pi, emp) < 0.03


@pytest.mark.parametrize("mname,kw,st", [("node2vec", dict(p=0.5, q=2.0), dict(prev=True))])
def test_memory_aware_matches_exact_distribution(g, mname, kw, st):
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    for budget_bytes in [0.0, 1e12]:  # all-direct and all-tables paths
        s = make_sampler(
            "memory_aware", g, model, np.random.default_rng(11),
            table_budget_bytes=budget_bytes,
        )
        s.prepare()
        emp = empirical_distribution_batched(g, s, v, prev, req, 30000)
        pi = exact_transition(g, model, v, prev, req)
        assert tv_distance(pi, emp) < 0.03


def test_static_sampler_matches_static_weights(g):
    s = StaticSampler(g, make_model("deepwalk"), np.random.default_rng(4))
    s.prepare()
    v, _ = good_state(g)
    emp = empirical_distribution_batched(g, s, v, -1, None, 30000)
    w = g.neighbor_weights(v)
    assert tv_distance(w / w.sum(), emp) < 0.03


# ----------------------------------------------------------------------
# Segmented helpers
# ----------------------------------------------------------------------
def test_ragged_arange():
    np.testing.assert_array_equal(
        ragged_arange(np.array([3, 0, 2])), [0, 1, 2, 0, 1]
    )
    assert ragged_arange(np.array([], dtype=np.int64)).shape == (0,)


def test_segment_ids():
    np.testing.assert_array_equal(segment_ids(np.array([2, 1, 0, 3])),
                                  [0, 0, 1, 3, 3, 3])


def test_segmented_choice_distribution():
    rng = np.random.default_rng(0)
    w = np.array([1.0, 3.0, 6.0] * 1000)
    lens = np.full(1000, 3)
    counts = np.zeros(3)
    for _ in range(30):
        off = segmented_choice(w, lens, rng.random(1000))
        np.add.at(counts, off, 1)
    np.testing.assert_allclose(counts / counts.sum(), [0.1, 0.3, 0.6], atol=0.02)


def test_segmented_choice_zero_total_returns_minus_one():
    off = segmented_choice(np.zeros(4), np.array([2, 2]), np.array([0.5, 0.5]))
    assert (off == -1).all()


# ----------------------------------------------------------------------
# Memory-budget behaviour — the paper's OOM (`*`) mechanism
# ----------------------------------------------------------------------
def test_alias_charges_full_table_bytes(g):
    b = MemoryBudget(None)
    s = make_sampler("alias", g, make_model("node2vec"), np.random.default_rng(0), b)
    s.prepare()
    expected = 12 * int(g.degree(g.indices.astype(np.int64)).sum())
    assert b.ledger["alias_tables"] == expected


def test_alias_oom_under_tight_budget(g):
    b = MemoryBudget(1000.0)
    s = make_sampler("alias", g, make_model("node2vec"), np.random.default_rng(0), b)
    with pytest.raises(MemoryBudgetExceeded):
        s.prepare()


def test_rejection_charges_proposal_alias(g):
    b = MemoryBudget(None)
    s = make_sampler("rejection", g, make_model("node2vec"), np.random.default_rng(0), b)
    s.prepare()
    assert b.ledger["rejection_proposal_alias"] == 12 * g.m


def test_mh_is_cheapest_in_ledger(g):
    model = make_model("node2vec")
    used = {}
    for name in ["mh", "alias", "rejection"]:
        b = MemoryBudget(None)
        make_sampler(name, g, model, np.random.default_rng(0), b).prepare()
        used[name] = b.used
    assert used["mh"] < used["rejection"] < used["alias"]


def test_budget_ledger_accumulates():
    b = MemoryBudget(100.0, label="x")
    b.charge("a", 40)
    b.charge("a", 40)
    assert b.ledger["a"] == 80
    with pytest.raises(MemoryBudgetExceeded):
        b.charge("b", 40)


# ----------------------------------------------------------------------
# Comparator behaviours from the paper
# ----------------------------------------------------------------------
def test_rejection_acceptance_drops_with_skewed_params(g):
    """Table II's mechanism: θ ~ 1 at (1,1), low at skewed (p,q)."""
    v, prev = good_state(g)
    acs = {}
    for p, q in [(1, 1), (0.25, 1), (1, 4)]:
        s = make_sampler(
            "rejection", g, make_model("node2vec", p=p, q=q),
            np.random.default_rng(0),
        )
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        acs[(p, q)] = s.acceptance_ratio
    assert acs[(1, 1)] > 0.95
    assert acs[(0.25, 1)] < acs[(1, 1)]
    assert acs[(1, 4)] < acs[(1, 1)]


def test_knightking_folding_beats_rejection_on_small_p(g):
    """Outlier folding pre-accepts the 1/p mass: higher acceptance than
    plain rejection when p << 1 (paper §V-E)."""
    v, prev = good_state(g)
    model = make_model("node2vec", p=0.05, q=1.0)
    ac = {}
    for name in ["rejection", "knightking"]:
        s = make_sampler(name, g, model, np.random.default_rng(0))
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        ac[name] = s.acceptance_ratio
    assert ac["knightking"] > ac["rejection"] * 1.5


def test_knightking_no_folding_gain_on_small_q(g):
    """q < 1 inflates the bound over many edges — folding cannot help
    (the paper's q-sensitivity asymmetry)."""
    v, prev = good_state(g)
    model = make_model("node2vec", p=1.0, q=0.1)
    ac = {}
    for name in ["rejection", "knightking"]:
        s = make_sampler(name, g, model, np.random.default_rng(0))
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        ac[name] = s.acceptance_ratio
    assert ac["knightking"] < ac["rejection"] * 1.25


def test_memory_aware_assignment_monotone_in_budget(g):
    model = make_model("node2vec")
    counts = []
    for budget_bytes in [0, 4 * g.m, 64 * g.m, 1e12]:
        s = make_sampler(
            "memory_aware", g, model, np.random.default_rng(0),
            table_budget_bytes=float(budget_bytes),
        )
        s.prepare()
        counts.append(s.assigned_states)
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == g.m


def test_memory_aware_rejects_first_order(g):
    with pytest.raises(ValueError):
        make_sampler("memory_aware", g, make_model("deepwalk"), np.random.default_rng(0))


def test_knightking_first_order_is_exact_static(g):
    s = make_sampler("knightking", g, make_model("deepwalk"), np.random.default_rng(0))
    s.prepare()
    assert s.acceptance_ratio == 1.0
    v, _ = good_state(g)
    emp = empirical_distribution_batched(g, s, v, -1, None, 20000)
    w = g.neighbor_weights(v)
    assert tv_distance(w / w.sum(), emp) < 0.03


def test_sampler_registry_unknown(g):
    with pytest.raises(KeyError):
        make_sampler("bogus", g, make_model("deepwalk"), np.random.default_rng(0))


def test_reseed_fixes_every_draw(g):
    """Every uniform a sampler uses comes from the stream ``reseed``
    installs: equal seeds give equal draws, different seeds differ."""
    cur = np.repeat(np.where(g.degrees > 0)[0], 3)
    prev = g.indices[g.indptr[cur]].astype(np.int64)
    wk = WalkerBatch(cur=cur, prev=prev, prev_eidx=g.edge_index(prev, cur))
    for name in SAMPLER_NAMES:
        s = make_sampler(name, g, make_model("node2vec", p=0.25, q=4.0),
                         np.random.default_rng(0))
        s.prepare()

        def draws(seed):
            f = s.fork()  # fresh LAST_x, so M-H starts from the same state
            f.reseed(np.random.default_rng(seed))
            return f.sample(wk)

        assert (draws(42) == draws(42)).all(), name
        assert (draws(42) != draws(43)).any(), name

"""Self-test of the benchmark at tiny sizes: every workload, untraced and
traced, plus ``BENCHMARK.json``'s metric names and a run in a directory
without the program.

Run from the repo root with ``src`` on ``PYTHONPATH``:
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import pipeline, run
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS
from repro.graph.csr import from_edges
from repro.walks.engine import WALKS_SCHEMA

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "n2v-mh-corpus": dict(n=600, avg_degree=10, walk_length=10),
    "n2v-alias-corpus": dict(n=300, avg_degree=10, n_communities=3, p_in=0.9,
                             num_walks=2, walk_length=10),
}


@pytest.fixture(scope="module")
def bench_spark(spark):
    """The session, with Python workers that can import ``perfbench``."""
    env = spark.sparkContext.environment
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    yield spark
    if old is None:
        env.pop("PYTHONPATH")
    else:
        env["PYTHONPATH"] = old


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_checks(bench_spark, name, trace):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    result, info = run.run_workload(bench_spark, wl, 3, 0, trace, run.build(wl, 3))
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for k, m in result["metrics"].items():
        assert m["unit"] == (expected[k][0] if trace else expected[k])
    if trace:
        assert info["digests"][0] == info["digests"][1]
        assert result["metrics"]["kernel.steps"]["value"] > 0
        if wl.graph == "planted":
            assert info["f1"]["micro_f1"] > 1 / wl.n_communities
    else:
        assert info["digests_distinct"] == 1


@pytest.mark.parametrize("bad_walk, what", [
    ([0, 2], "not a graph edge"),
    ([0, 1, -1], "padding leaked"),
    ([1, 2], "does not begin at its start"),
    ([0, 1, 2, 3, 0], "length out of range"),
])
def test_check_corpus_rejects_bad_walks(bench_spark, bad_walk, what):
    # Path 0-1-2-3, undirected; walks of length 3 (at most 4 tokens).
    g = from_edges(np.array([0, 1, 2]), np.array([1, 2, 3]), n=4)
    wl = dataclasses.replace(WORKLOADS["n2v-mh-corpus"], num_walks=1, walk_length=3)
    good = [(0, 0, [0, 1, 2, 3]), (1, 3, [3, 2])]
    df = bench_spark.createDataFrame(good, WALKS_SCHEMA)
    digest = pipeline.check_corpus(df, g, wl, 2)
    assert digest == pipeline.check_corpus(df.orderBy("walk_id", ascending=False), g, wl, 2)
    bad = bench_spark.createDataFrame(good[:1] + [(1, 0, bad_walk)], WALKS_SCHEMA)
    with pytest.raises(pipeline.CheckFailed, match=what):
        pipeline.check_corpus(bad, g, wl, 2)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n2v-mh-corpus",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""The benchmark's worker runs against the package in ``src/``.

``perfbench/worker.py`` imports names from ``kgrerank`` and reads the files of
a finished run directory, so a rename in ``src/`` can turn every benchmark run
into a failure without any other test noticing. This runs a small synthetic
pipeline and then the worker's ``setup`` and ``oracle`` steps on it, each in
a fresh interpreter, as the benchmark starts them. Synthetic profiles are
forests, so a second run on a small Last.fm-format corpus, whose profiles
have cycles, goes through the worker's traced ``run`` step (which also
probes the metrics the config leaves out) and its ``oracle`` step. Last,
each named workload's seed-1 run must reproduce the digests the benchmark
checks its runs against.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgrerank import induce_profile_subgraph, read_graph
from kgrerank.cli import main

from conftest import lastfm_run_config, write_config
from oracles import two_core

ROOT = Path(__file__).resolve().parents[1]


def _worker(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    config = work / "config.json"
    config.write_text(json.dumps({
        "dataset": {
            "kind": "synthetic",
            "synthetic": {"tracks": 40, "users": 4, "history": 8},
        },
        "recommender": "baseline",
        "rerank": {
            "metrics": ["betweenness", "closeness", "pagerank"],
            "orders": ["asc", "desc"],
            "mode": "closed",
            "top_n": 15,
        },
        "evaluation": {"k": 5},
        "seed": 1,
        "parallelism": 1,
        "output_dir": str(work / "out"),
    }))
    assert main(["run", "--config", str(config)]) == 0
    return config, work / "out"


def test_setup_loads_and_validates_the_config(finished_run):
    config, _ = finished_run
    result = _worker("setup", str(config))
    assert result["setup_s"] > 0
    assert result["reference_s"] > 0


def test_oracle_agrees_with_every_sampled_candidate(finished_run):
    _, run_dir = finished_run
    result = _worker("oracle", str(run_dir))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["mismatches"]


@pytest.fixture(scope="module")
def traced_lastfm_run(tmp_path_factory, lastfm_corpus):
    work = tmp_path_factory.mktemp("bench_lastfm")
    doc = lastfm_run_config(lastfm_corpus, work / "out", ["betweenness", "closeness"])
    config = write_config(work / "config.json", doc)
    spans = work / "spans.jsonl"
    return _worker("run", str(config), str(spans)), spans, work / "out"


def test_traced_run_probes_the_metrics_left_out(traced_lastfm_run):
    result, spans, _ = traced_lastfm_run
    assert result["exit_code"] == 0
    assert result["run_s"] > 0
    header, *lines = spans.read_text(encoding="utf-8").splitlines()
    probe = [json.loads(line)[0] for line in lines[json.loads(header)["probe_from"]:]]
    # the probe scores pagerank, in_degree and node_count through the
    # wrapped cli.evaluate_candidates
    assert probe.count("rerank.evaluate") >= 3


def test_oracle_agrees_on_profiles_with_cycles(traced_lastfm_run):
    _, _, run_dir = traced_lastfm_run
    catalog = read_graph(run_dir / "catalog_triples.tsv", run_dir / "catalog_nodes.tsv")
    profiles = json.loads((run_dir / "profiles.json").read_text(encoding="utf-8"))["users"]
    for profile in profiles.values():
        assert two_core(induce_profile_subgraph(catalog, profile["history"]).graph)
    result = _worker("oracle", str(run_dir))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["mismatches"]


# the tracer's targets that no longer exist in src/; a change that refreshes
# perfbench/tracer.py updates this list with it
STALE_TRACER_TARGETS = {
    "kgrerank.rerank.extension_delta",
    "kgrerank.rerank.OverlayView",
    "kgrerank.rerank.compute_metric",
    "kgrerank.cli.baseline_metric",
    "kgrerank.cli.rank_candidates",
    "kgrerank.metrics.centrality_to_shares",
    "kgrerank.metrics.hhi_normalized",
    "kgrerank.evaluation.cosine_distance",
    "kgrerank.cli.ild",
    "kgrerank.cli.unexpectedness",
    "kgrerank.cli.ndcg_at_k",
}


def test_tracer_still_sees_the_shapes_it_reads(traced_lastfm_run):
    # a refactor of src/ that moves a traced function or a field the
    # tracer's hooks read (ProfileSubgraph.graph.num_nodes, MergeResult.stats,
    # CandidateEvaluation.metric_value.value) would silently blind the
    # per-layer telemetry; these two checks make it fail here instead
    _, spans, _ = traced_lastfm_run
    header, *lines = spans.read_text(encoding="utf-8").splitlines()
    installed = json.loads(header)["installed"]
    assert {key for key, reason in installed.items() if reason} == STALE_TRACER_TARGETS
    spans = [json.loads(line) for line in lines]
    assert [span for span in spans if span[5] and "attrs_error" in span[5]] == []
    # the hooks ran, so the check above is not empty
    hooked = {span[0] for span in spans if span[5]}
    assert {"ingest.load", "graph.induce", "rerank.evaluate"} <= hooked


RECORDED = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


def _bench_module():
    """``perfbench/run.py``, imported without running it; it imports its
    sibling modules by their plain names."""
    name = "perfbench_run"
    if name not in sys.modules:
        here = str(ROOT / "perfbench")
        sys.path.insert(0, here)
        try:
            spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "run.py")
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their module up while the class body runs
            sys.modules[name] = module
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(here)
    return sys.modules[name]


@pytest.mark.parametrize("workload", sorted(RECORDED["workloads"]))
def test_seed_one_run_matches_the_recorded_digests(tmp_path, workload):
    bench = _bench_module()
    configs, _ = bench.prepare(bench.WORKLOADS[workload], RECORDED["seed"], tmp_path / "work")
    assert main(["run", "--config", str(configs["run"])]) == 0
    out = tmp_path / "work" / "out"
    expected = RECORDED["workloads"][workload]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected

import argparse
import concurrent.futures
import csv
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import kgrerank
from kgrerank import (
    MetricError,
    MetricKind,
    NeighborhoodMode,
    SortOrder,
    SyntheticProfileConfig,
    build_catalog,
    generate_profiles,
    induce_profile_subgraph,
    load_external_recommendations,
    load_netflix,
    make_synthetic_dataset,
    read_graph,
    write_recommendations,
)
from kgrerank import cli
from kgrerank.cli import (
    BASE_RUN,
    CATALOG_NODES,
    CATALOG_TRIPLES,
    FEATURES,
    INGEST_SUMMARY,
    INTERACTIONS,
    MANIFEST,
    PipelineError,
    PROFILES,
    QRELS,
    REPORT,
    REPORT_SUMMARY,
    STALE_FLAG,
    RunConfig,
    config_hash,
    main,
    rerank_run_name,
    run_pipeline,
    stage_ingest,
    stage_rerank,
    trec_run_name,
    validate_config,
    _add_common_arguments,
    _build_config,
    _read_features,
    _read_interactions,
    _read_profiles,
    _synthetic_config,
)
from kgrerank.evaluation import FEATURE_NAMES
from kgrerank.rerank import RecommendationList, evaluate_metrics

from conftest import (
    DATASET_KINDS,
    catalog_layout,
    lastfm_run_config,
    make_lastfm_corpus,
    pipeline_doc,
    record_group_stacks,
    write_config,
)
from oracles import (
    assert_matches_reference,
    reference_rerank,
    reference_values,
    two_core,
)


COMMANDS = ("ingest", "recommend", "rerank", "evaluate", "run")

# every flag, each set away from its default
ALL_FLAGS = [
    "--dataset", "lastfm", "--out", "elsewhere", "--seed", "5",
    "--parallelism", "3", "--recommender", "external",
    "--metric", "pagerank", "--metric", "closeness", "--order", "desc",
    "--mode", "edges", "--top-n", "11", "--k", "4",
    "--events", "e.tsv", "--features", "f.csv", "--genres", "g.csv",
    "--titles", "t.csv", "--external-recs", "x.run",
]


# the readers of a run's own files, as cli calls them
_RUN_READERS = (
    "read_graph", "_read_profiles", "_read_interactions", "_read_features",
    "load_external_recommendations",
)


def record_run_reads(monkeypatch):
    """([every Workspace made], [(reader name, path arguments) of every call
    of a workspace reader]), both filled while the patches last."""
    workspaces, reads = [], []
    for name in _RUN_READERS:
        def recording(*paths, _name=name, _real=getattr(cli, name)):
            reads.append((_name, tuple(map(str, paths))))
            return _real(*paths)

        monkeypatch.setattr(cli, name, recording)

    class RecordedWorkspace(cli.Workspace):
        def __init__(self, cfg):
            super().__init__(cfg)
            workspaces.append(self)

    monkeypatch.setattr(cli, "Workspace", RecordedWorkspace)
    return workspaces, reads


def synth_config(tmp_path, **overrides) -> RunConfig:
    cfg = RunConfig(
        dataset="synthetic",
        output_dir=str(tmp_path / "out"),
        seed=13,
        parallelism=1,
        synth_tracks=40,
        synth_users=4,
        synth_history=8,
        top_n_candidates=15,
        eval_k=5,
        metrics=["node_count"],
        orders=["asc"],
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestValidateConfig:
    def test_valid_config_has_no_findings(self, tmp_path):
        assert validate_config(synth_config(tmp_path)) == []

    def test_empty_metrics_is_a_finding(self, tmp_path):
        cfg = synth_config(tmp_path, metrics=[])
        assert any("metric" in f for f in validate_config(cfg))

    def test_unknown_metric_is_a_finding(self, tmp_path):
        cfg = synth_config(tmp_path, metrics=["bogus"])
        assert validate_config(cfg) == [
            "metrics must be one of ('node_count', 'edge_count', 'density', "
            "'average_degree', 'in_degree', 'out_degree', 'pagerank', "
            "'betweenness', 'closeness'), got 'bogus'"
        ]

    def test_repeated_metric_and_order_are_findings(self, tmp_path):
        cfg = synth_config(
            tmp_path,
            metrics=["pagerank", "node_count", "pagerank", "node_count", "pagerank"],
            orders=["asc", "desc", "asc"],
        )
        assert validate_config(cfg) == [
            "metrics repeats 'pagerank'",
            "metrics repeats 'node_count'",
            "orders repeats 'asc'",
        ]

    def test_repeated_entries_fail_the_run_before_any_file(self, tmp_path, capsys):
        # each (metric, order) pair names one file, so a repeat would write
        # rerank_pagerank_asc.txt more than once
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"rerank": {"metrics": ["pagerank", "pagerank"], "orders": ["asc", "asc"]}}
        ), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "config error: metrics repeats 'pagerank'\n"
            "config error: orders repeats 'asc'\n"
        )
        assert not (tmp_path / "x").exists()

    def test_repeated_flag_is_a_finding(self, tmp_path, capsys):
        argv = ["run", "--metric", "node_count", "--metric", "node_count",
                "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: metrics repeats 'node_count'\n"

    @pytest.mark.parametrize(
        "dataset, values, findings",
        [
            ("lastfm", {"events_path": None}, ["lastfm dataset requires the events path"]),
            ("lastfm", {"events_path": ""}, ["lastfm dataset requires the events path"]),
            ("lastfm", {"events_path": "nope"}, ["events path does not exist: {nope}"]),
            ("lastfm", {"features_path": None}, ["lastfm dataset requires the features path"]),
            ("lastfm", {"features_path": "nope"}, ["features path does not exist: {nope}"]),
            (
                "lastfm",
                {"events_path": "nope", "features_path": None},
                ["events path does not exist: {nope}", "lastfm dataset requires the features path"],
            ),
            ("lastfm", {"genres_path": "nope"}, ["genres path does not exist: {nope}"]),
            ("lastfm", {"genres_path": None}, []),
            ("netflix", {"titles_path": None}, ["netflix dataset requires the titles path"]),
            ("netflix", {"titles_path": "nope"}, ["titles path does not exist: {nope}"]),
            (
                "netflix",
                {"profile_min_items": 9, "profile_max_items": 3},
                ["need 1 <= profile_min_items <= profile_max_items, got [9, 3]"],
            ),
            (
                "netflix",
                {"profile_min_items": 0, "profile_max_items": 3},
                ["need 1 <= profile_min_items <= profile_max_items, got [0, 3]"],
            ),
            ("netflix", {"profile_min_items": 1, "profile_max_items": 1}, []),
            ("netflix", {"profile_min_items": 3, "profile_max_items": 3}, []),
            # another dataset's paths and bounds are not checked
            ("synthetic", {"events_path": "nope", "titles_path": "nope"}, []),
            ("synthetic", {"profile_min_items": 9, "profile_max_items": 3}, []),
            (
                "synthetic",
                {"recommender": "external", "external_recs_path": None},
                ["external recommender requires external_recs_path"],
            ),
            (
                "synthetic",
                {"recommender": "external", "external_recs_path": "nope"},
                ["external_recs_path does not exist: {nope}"],
            ),
            ("synthetic", {"external_recs_path": "nope"}, []),
            # the synthetic settings are checked for that dataset alone
            ("synthetic", {"synth_tracks": 3}, ["n_tracks must be >= 4"]),
            ("lastfm", {"synth_tracks": 3}, []),
            ("synthetic", {"output_dir": ""}, ["output_dir must be set"]),
        ],
    )
    def test_each_dataset_rule_is_one_exact_finding(self, tmp_path, dataset, values, findings):
        # every path exists unless ``values`` says otherwise; "nope" names a
        # file that does not
        existing, nope = tmp_path / "input.txt", tmp_path / "nope.txt"
        existing.write_text("x", encoding="utf-8")
        paths = ("events_path", "features_path", "genres_path", "titles_path",
                 "external_recs_path")
        cfg = synth_config(tmp_path, dataset=dataset, **dict.fromkeys(paths, str(existing)))
        for name, value in values.items():
            setattr(cfg, name, str(nope) if value == "nope" else value)
        assert validate_config(cfg) == [f.format(nope=nope) for f in findings]

    def test_all_findings_reported_at_once(self, tmp_path):
        cfg = synth_config(
            tmp_path, metrics=[], orders=[], top_n_candidates=0, eval_k=0
        )
        assert len(validate_config(cfg)) >= 4

class TestRunConfigParsing:
    def test_nested_document(self, tmp_path):
        doc = {
            "dataset": {
                "kind": "netflix",
                "titles": "titles.csv",
                "profiles": {"count": 12, "min_items": 2, "max_items": 6},
                "prune": {"degree_one": False},
            },
            "recommender": {"kind": "external", "external_path": "recs.run"},
            "rerank": {
                "metrics": ["betweenness", "node_count"],
                "orders": ["asc", "desc"],
                "mode": "edges",
                "top_n": 50,
            },
            "evaluation": {"k": 5},
            "seed": 99,
            "parallelism": 2,
            "output_dir": "somewhere",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = RunConfig.from_file(path)
        assert cfg.dataset == "netflix"
        assert cfg.titles_path == "titles.csv"
        assert cfg.profile_count == 12
        assert cfg.prune_degree_one is False
        assert cfg.recommender == "external"
        assert cfg.external_recs_path == "recs.run"
        assert cfg.metrics == ["betweenness", "node_count"]
        assert cfg.orders == ["asc", "desc"]
        assert cfg.mode == "edges"
        assert cfg.top_n_candidates == 50
        assert cfg.eval_k == 5
        assert cfg.seed == 99
        assert cfg.parallelism == 2
        assert cfg.output_dir == "somewhere"

    def test_flat_kind_spellings(self):
        cfg = RunConfig.from_dict({"dataset": "synthetic", "recommender": "baseline"})
        assert (cfg.dataset, cfg.recommender) == ("synthetic", "baseline")
        cfg = RunConfig.from_dict({"dataset": "netflix", "recommender": "external"})
        assert (cfg.dataset, cfg.recommender) == ("netflix", "external")

    def test_every_field_round_trips_through_its_path(self):
        doc = {
            "dataset": {
                "kind": "lastfm",
                "events": "e.tsv",
                "features": "f.csv",
                "genres": "g.csv",
                "titles": "t.csv",
                "sample_users": 7,
                "min_unique_tracks": 3,
                "profiles": {"count": 9, "min_items": 2, "max_items": 4},
                "prune": {"degree_one": False},
                "synthetic": {
                    "tracks": 30, "users": 5, "history": 6, "minority_share": 0.3,
                },
            },
            "recommender": {"kind": "external", "external_path": "x.run"},
            "rerank": {
                "metrics": ["pagerank"],
                "orders": ["desc"],
                "mode": "edges",
                "top_n": 11,
            },
            "evaluation": {"k": 4},
            "seed": 5,
            "parallelism": 3,
            "output_dir": "elsewhere",
        }
        expected = {
            "dataset": "lastfm",
            "events_path": "e.tsv",
            "features_path": "f.csv",
            "genres_path": "g.csv",
            "titles_path": "t.csv",
            "sample_users": 7,
            "min_unique_tracks": 3,
            "profile_count": 9,
            "profile_min_items": 2,
            "profile_max_items": 4,
            "prune_degree_one": False,
            "synth_tracks": 30,
            "synth_users": 5,
            "synth_history": 6,
            "synth_minority_share": 0.3,
            "recommender": "external",
            "external_recs_path": "x.run",
            "metrics": ["pagerank"],
            "orders": ["desc"],
            "mode": "edges",
            "top_n_candidates": 11,
            "eval_k": 4,
            "seed": 5,
            "parallelism": 3,
            "output_dir": "elsewhere",
        }
        defaults = RunConfig().to_dict()
        assert set(expected) == set(defaults)
        assert all(expected[name] != defaults[name] for name in expected)
        assert RunConfig.from_dict(doc).to_dict() == expected

    def test_every_flag_sets_its_field(self, tmp_path):
        parser = argparse.ArgumentParser()
        _add_common_arguments(parser)
        args = parser.parse_args(ALL_FLAGS)
        flags = {
            "dataset": "lastfm",
            "output_dir": "elsewhere",
            "seed": 5,
            "parallelism": 3,
            "recommender": "external",
            "metrics": ["pagerank", "closeness"],
            "orders": ["desc"],
            "mode": "edges",
            "top_n_candidates": 11,
            "eval_k": 4,
            "events_path": "e.tsv",
            "features_path": "f.csv",
            "genres_path": "g.csv",
            "titles_path": "t.csv",
            "external_recs_path": "x.run",
        }
        assert vars(args) == {"config": None, **flags}
        # flags win over the config file; fields without a flag keep its value
        config = tmp_path / "cfg.json"
        doc = {"seed": 1, "rerank": {"top_n": 2}, "dataset": {"sample_users": 6}}
        config.write_text(json.dumps(doc), encoding="utf-8")
        args.config = str(config)
        cfg = _build_config(args)
        assert {name: getattr(cfg, name) for name in flags} == flags
        assert cfg.sample_users == 6

    def test_config_hash_tracks_content(self, tmp_path):
        a = synth_config(tmp_path)
        b = synth_config(tmp_path)
        assert config_hash(a) == config_hash(b)
        b.seed += 1
        assert config_hash(a) != config_hash(b)


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        out = tmp_path / "out"
        for name in (
            CATALOG_TRIPLES, CATALOG_NODES, INTERACTIONS, PROFILES,
            INGEST_SUMMARY, BASE_RUN, rerank_run_name("node_count", "asc"),
            QRELS, trec_run_name("node_count", "asc"), REPORT,
            REPORT_SUMMARY, MANIFEST,
        ):
            assert (out / name).exists(), name
        assert not (out / "_STALE").exists()
        report = (out / REPORT).read_text(encoding="utf-8").splitlines()
        # the nDCG column is named for the run's k, here 5
        assert report[0] == "user,metric,order,ild,unexpectedness,ndcg5"
        summary = (out / REPORT_SUMMARY).read_text(encoding="utf-8").splitlines()
        assert summary[0] == "metric,order,ild,unexpectedness,ndcg5"
        # 4 users x (1 metric-order + base + profile rows)
        assert len(report) == 1 + 4 * 3
        manifest = json.loads((out / MANIFEST).read_text(encoding="utf-8"))
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["version"]
        # the numeric environment, on which a metric's last bits may depend
        numeric = manifest["numeric"]
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        assert set(numeric) == {"numpy", "blas", *threads}
        assert numeric["numpy"] == np.__version__
        assert numeric["blas"] is None or set(numeric["blas"]) == {"name", "version"}
        assert [numeric[name] for name in threads] == [os.environ.get(name) for name in threads]
        profiles = json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"]
        assert [list(profile) for profile in profiles.values()] == [["history"]] * 4

    def test_synthetic_candidates_share_path_kernels(self, tmp_path, bfs_calls):
        # a synthetic track brings its own artist and links to one genre, so
        # every extension of a synthetic profile is a forest: its 2-core is
        # empty, and betweenness and closeness run no BFS at all
        cfg = synth_config(tmp_path, metrics=["betweenness", "closeness"])
        run_pipeline(cfg)
        lines = (tmp_path / "out" / BASE_RUN).read_text(encoding="utf-8").splitlines()
        users = {line.split()[0] for line in lines}
        assert len(lines) > 2 * len(users)
        for metric in cfg.metrics:
            assert (tmp_path / "out" / rerank_run_name(metric, "asc")).exists()
        assert bfs_calls == []

    def test_lastfm_rankings_equal_the_reference(self, tmp_path, lastfm_corpus):
        # every metric and order of a run on profiles with cycles, against
        # the paper's method on the brute-force oracles
        metrics = [kind.value for kind in MetricKind]
        out = tmp_path / "out"
        doc = lastfm_run_config(lastfm_corpus, out, metrics)
        assert main(["run", "--config", str(write_config(tmp_path / "c.json", doc))]) == 0
        catalog = read_graph(out / CATALOG_TRIPLES, out / CATALOG_NODES)
        profiles = json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"]
        base = load_external_recommendations(out / BASE_RUN)
        assert len(base) == 3
        mode = NeighborhoodMode.CLOSED_NEIGHBORHOOD
        for user, recs in base.items():
            history = profiles[user]["history"]
            sg = induce_profile_subgraph(catalog, history, user=user)
            assert two_core(sg.graph)
            # the library's own values, for the check of its tie-break
            (evaluated,) = evaluate_metrics(catalog, [(sg, recs)], list(MetricKind), mode)
            for kind in MetricKind:
                values = reference_values(catalog, history, recs, kind, mode)
                own = {e.item: (e.metric_value.value, e.base_score) for e in evaluated[kind]}
                for order in SortOrder:
                    path = out / rerank_run_name(kind.value, order.value)
                    got = load_external_recommendations(path)[user].item_ids()
                    expected = reference_rerank(
                        catalog, history, recs, kind, order, mode, len(recs)
                    )
                    triples = [(item, *own[item]) for item in got]
                    assert_matches_reference(triples, expected, values, kind)

    def test_netflix_run_over_a_lastfm_run_drops_its_features(self, tmp_path, request):
        # the Last.fm run leaves a features.csv that names none of the titles
        lastfm = write_config(tmp_path / "lastfm.json", pipeline_doc(request, "lastfm"))
        netflix = write_config(tmp_path / "netflix.json", pipeline_doc(request, "netflix"))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["run", "--config", str(lastfm), "--out", str(reused)]) == 0
        assert (reused / FEATURES).exists()
        assert main(["run", "--config", str(netflix), "--out", str(reused)]) == 0
        assert main(["run", "--config", str(netflix), "--out", str(fresh)]) == 0
        assert not (reused / FEATURES).exists()
        assert (reused / REPORT).read_bytes() == (fresh / REPORT).read_bytes()

    @pytest.mark.parametrize("dataset", DATASET_KINDS)
    def test_staged_invocation_matches_run(self, tmp_path, request, dataset):
        # a run hands its artifacts on in memory, the stages alone read them
        # from files: every file of the two run directories must agree
        cfg_path = write_config(tmp_path / "cfg.json", pipeline_doc(request, dataset))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        for command in ("ingest", "recommend", "rerank", "evaluate"):
            assert main(
                [command, "--config", str(cfg_path), "--out", str(out_b)]
            ) == 0
        names = sorted(path.name for path in out_a.iterdir())
        assert names == sorted(path.name for path in out_b.iterdir())
        assert REPORT in names and (FEATURES in names) == (dataset != "netflix")
        for name in names:
            a, b = (out / name for out in (out_a, out_b))
            if name == MANIFEST:
                a, b = (json.loads(m.read_text(encoding="utf-8")) for m in (a, b))
                for manifest in (a, b):
                    del manifest["config_hash"], manifest["config"]["output_dir"]
                assert a == b
            else:
                assert a.read_bytes() == b.read_bytes(), name

    @pytest.mark.parametrize("dataset", DATASET_KINDS)
    def test_run_reads_none_of_its_own_files(self, tmp_path, request, monkeypatch, dataset):
        cfg = RunConfig.from_dict(pipeline_doc(request, dataset))
        cfg.output_dir = str(tmp_path / "out")
        workspaces, reads = record_run_reads(monkeypatch)
        run_pipeline(cfg)
        assert reads == []
        (ws,) = workspaces
        out = Path(cfg.output_dir)
        monkeypatch.undo()

        def held(*names):
            return ws.read(lambda *paths: pytest.fail(f"{names} not held"), *names)

        catalog = held(CATALOG_TRIPLES, CATALOG_NODES)
        loaded = read_graph(out / CATALOG_TRIPLES, out / CATALOG_NODES)
        assert catalog_layout(catalog) == catalog_layout(loaded)
        assert held(INTERACTIONS) == _read_interactions(out / INTERACTIONS)
        profiles = _read_profiles(out / PROFILES)
        assert list(held(PROFILES).items()) == list(profiles.items())
        if dataset == "netflix":
            assert not (out / FEATURES).exists()
        else:
            features, rows = _read_features(out / FEATURES), held(FEATURES)
            assert list(rows) == list(features)
            for item, row in rows.items():
                assert row.tobytes() == features[item].tobytes()
                assert row.dtype == features[item].dtype and not row.flags.writeable
        runs = [BASE_RUN] + [
            rerank_run_name(metric, order) for metric in cfg.metrics for order in cfg.orders
        ]
        for name in runs:
            lists = load_external_recommendations(out / name)
            assert list(held(name).items()) == list(lists.items()), name

    def test_external_run_reads_the_external_file_once(self, tmp_path, monkeypatch):
        cfg = synth_config(tmp_path, recommender="external")
        stage_ingest(cfg)
        profiles = json.loads((tmp_path / "out" / PROFILES).read_text(encoding="utf-8"))
        external = tmp_path / "external_run.txt"
        write_recommendations(
            {user: RecommendationList(user=user, items=(("t_b0001", 1.0),))
             for user in profiles["users"]},
            external,
        )
        cfg.external_recs_path = str(external)
        cfg.output_dir = str(tmp_path / "run")
        _, reads = record_run_reads(monkeypatch)
        run_pipeline(cfg)
        assert reads == [("load_external_recommendations", (str(external),))]

    def test_rerank_files_are_valid_run_files(self, tmp_path):
        cfg = synth_config(tmp_path, metrics=["node_count", "edge_count"],
                           orders=["asc", "desc"])
        run_pipeline(cfg)
        out = tmp_path / "out"
        base = load_external_recommendations(out / BASE_RUN)
        for metric in cfg.metrics:
            for order in cfg.orders:
                reranked = load_external_recommendations(
                    out / rerank_run_name(metric, order)
                )
                assert set(reranked) == set(base)
                for user in base:
                    assert sorted(reranked[user].item_ids()) == sorted(
                        base[user].item_ids()
                    )

    def test_report_quotes_a_user_id_with_a_comma(self, tmp_path, lastfm_corpus):
        # a Last.fm user id is any tab-free field of the events file
        inputs = tmp_path / "inputs"
        shutil.copytree(lastfm_corpus, inputs)
        events = inputs / "events.tsv"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        user = lines[0].split("\t")[0]
        events.write_text(
            "".join(line.replace(f"{user}\t", "a,b\t", 1) for line in lines),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        doc = lastfm_run_config(inputs, out, ["node_count"])
        doc["dataset"]["sample_users"] = None
        assert main(["run", "--config", str(write_config(tmp_path / "c.json", doc))]) == 0
        for name, width in ((REPORT, 6), (REPORT_SUMMARY, 5)):
            with open(out / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {width}, name
        with open(out / REPORT, encoding="utf-8", newline="") as fh:
            users = [row[0] for row in csv.reader(fh)]
        # the profile row, the base list and both orders
        assert users.count("a,b") == 4
        assert '\n"a,b",profile,-,' in (out / REPORT).read_text(encoding="utf-8")

    def test_parallelism_changes_no_file_and_starts_no_process(self, tmp_path, request):
        """``parallelism`` has no effect: runs at 1, 2 and null write the same
        files, and their manifests differ only in the field and the config
        hash that covers it. A run at 2 loads no process-pool module."""
        doc = pipeline_doc(request, "synthetic")
        doc["rerank"] = {
            **doc["rerank"], "metrics": ["pagerank", "betweenness"], "orders": ["asc", "desc"],
        }
        out = tmp_path / "out"
        modules = ("concurrent.futures", "multiprocessing")
        files, manifests = [], []
        for parallelism in (1, 2, None):
            config = write_config(tmp_path / "cfg.json", {**doc, "parallelism": parallelism})
            argv = ["run", "--config", str(config), "--out", str(out)]
            if parallelism == 2:
                # in a fresh interpreter: this one has imported them for other tests
                script = (
                    f"import sys; from kgrerank.cli import main; code = main({argv!r}); "
                    f"print(code, [m for m in {modules!r} if m in sys.modules])"
                )
                result = subprocess.run(
                    [sys.executable, "-c", script],
                    env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                    capture_output=True, text=True, timeout=120,
                )
                assert result.returncode == 0, result.stderr
                assert result.stdout == "0 []\n"
            else:
                assert main(argv) == 0
            manifests.append(json.loads((out / MANIFEST).read_text(encoding="utf-8")))
            files.append({
                path.name: path.read_bytes() for path in sorted(out.iterdir())
                if path.name != MANIFEST
            })
            shutil.rmtree(out)
        assert REPORT in files[0]
        assert files[0] == files[1] == files[2]
        assert [m["config"].pop("parallelism") for m in manifests] == [1, 2, None]
        assert len({m.pop("config_hash") for m in manifests}) == 3
        assert manifests[0] == manifests[1] == manifests[2]

    def test_one_user_starts_no_pool(self, tmp_path, monkeypatch):
        """A base run of one user, at ``parallelism: 2``, is reranked in this
        process and written with that user's list."""
        cfg = synth_config(tmp_path, recommender="external", parallelism=2)
        stage_ingest(cfg)
        user = sorted(_read_profiles(tmp_path / "out" / PROFILES))[0]
        external = tmp_path / "external_run.txt"
        items = (("t_a0001", 1.0), ("t_b0001", 0.5))
        write_recommendations({user: RecommendationList(user=user, items=items)}, external)
        cfg.external_recs_path = str(external)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        run_pipeline(cfg)
        path = tmp_path / "out" / rerank_run_name("node_count", "asc")
        reranked = load_external_recommendations(path)
        assert list(reranked) == [user]
        assert sorted(reranked[user].item_ids()) == ["t_a0001", "t_b0001"]

    @pytest.mark.parametrize("dataset", ["synthetic", "lastfm"])
    def test_group_bound_changes_no_file(self, tmp_path, request, monkeypatch, dataset):
        """Every run-directory file is the same whether each user is scored
        alone, in groups under the default cell bound, or all in one group."""
        config = write_config(tmp_path / "cfg.json", pipeline_doc(request, dataset))
        out = tmp_path / "out"
        module = sys.modules["kgrerank.rerank"]
        files, groups = [], []
        for cells in (1, module._GROUP_CELLS, 2**40):
            with monkeypatch.context() as patch:
                patch.setattr(module, "_GROUP_CELLS", cells)
                stacks = record_group_stacks(patch)
                assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            groups.append(len(stacks))
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            shutil.rmtree(out)
        assert files[0] == files[1] == files[2]
        # every user alone, then fewer groups, then one
        assert groups[0] > groups[2] == 1

    def test_external_recommender_flow(self, tmp_path):
        # seed a workspace from the synthetic ingest, then feed external lists
        cfg = synth_config(tmp_path, recommender="external")
        from kgrerank.cli import stage_ingest, stage_recommend

        stage_ingest(cfg)
        out = tmp_path / "out"
        profiles = json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"]
        lists = {}
        for user, payload in profiles.items():
            unseen = [f"t_a{i:04d}" for i in range(20, 26)]
            items = tuple(
                (item, float(10 - k))
                for k, item in enumerate(i for i in unseen if i not in payload["history"])
            )
            lists[user] = RecommendationList(user=user, items=items)
        external = tmp_path / "external_run.txt"
        write_recommendations(lists, external)
        cfg.external_recs_path = str(external)
        stage_recommend(cfg)
        loaded = load_external_recommendations(out / BASE_RUN)
        assert set(loaded) == set(profiles)

    def test_users_without_external_lists_share_one_warning(self, tmp_path, caplog):
        from kgrerank.cli import stage_ingest, stage_recommend

        cfg = synth_config(tmp_path, recommender="external", synth_users=8)
        stage_ingest(cfg)
        out = tmp_path / "out"
        users = sorted(json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"])
        kept = users[0]
        external = tmp_path / "external_run.txt"
        write_recommendations(
            {kept: RecommendationList(user=kept, items=(("t_a0020", 1.0),))}, external
        )
        cfg.external_recs_path = str(external)
        with caplog.at_level("WARNING", logger="kgrerank.cli"):
            stage_recommend(cfg)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        skipped = users[1:]
        assert len(skipped) == 7
        assert warnings == [
            f"no external recommendations for 7 user(s); skipped: "
            f"{', '.join(skipped[:5])} and 2 more"
        ]
        assert set(load_external_recommendations(out / BASE_RUN)) == {kept}

    def test_failing_candidate_names_stage_user_item_and_metric(self, tmp_path, capsys):
        from kgrerank.cli import stage_ingest, stage_recommend

        cfg = synth_config(tmp_path, recommender="external", metrics=["closeness"])
        stage_ingest(cfg)
        out = tmp_path / "out"
        user = sorted(json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"])[0]
        external = tmp_path / "external_run.txt"
        write_recommendations(
            {user: RecommendationList(user=user, items=(("no_such_item", 1.0),))}, external
        )
        cfg.external_recs_path = str(external)
        stage_recommend(cfg)
        code = main(
            ["rerank", "--dataset", "synthetic", "--out", str(out),
             "--metric", "closeness", "--parallelism", "1"]
        )
        assert code == 2
        assert (
            f"stage rerank failed: closeness evaluation failed for user {user!r}, "
            "item 'no_such_item'"
        ) in capsys.readouterr().err

    def test_failing_row_of_a_groups_second_user_names_stage_user_and_item(
        self, tmp_path, monkeypatch
    ):
        cfg = synth_config(tmp_path, metrics=["pagerank"])
        run_pipeline(cfg)
        base = load_external_recommendations(tmp_path / "out" / BASE_RUN)
        first, second = sorted(base)[:2]
        # the second user's third candidate, after the first user's rows
        row = len(base[first]) + 2
        item = base[second].item_ids()[2]
        module = sys.modules["kgrerank.rerank"]
        real = module.score_stack
        groups = []

        def failing(stack, kinds):
            groups.append(len(stack))
            if len(stack) > row:
                raise MetricError("injected failure", row)
            return real(stack, kinds)

        monkeypatch.setattr(module, "score_stack", failing)
        with pytest.raises(PipelineError) as info:
            cli._run_stage("rerank", cfg)
        assert str(info.value) == (
            f"stage rerank failed: pagerank evaluation failed for user {second!r}, "
            f"item {item!r}: injected failure"
        )
        # all four users were one group
        assert groups == [sum(len(recs) for recs in base.values())]

    def test_netflix_pipeline(self, tmp_path, netflix_csv):
        cfg = RunConfig(
            dataset="netflix",
            titles_path=str(netflix_csv),
            output_dir=str(tmp_path / "out"),
            seed=3,
            parallelism=1,
            profile_count=5,
            profile_min_items=2,
            profile_max_items=4,
            prune_degree_one=False,
            metrics=["node_count"],
            orders=["asc"],
            top_n_candidates=5,
            eval_k=3,
        )
        assert validate_config(cfg) == []
        run_pipeline(cfg)
        out = tmp_path / "out"
        report = (out / REPORT).read_text(encoding="utf-8").splitlines()
        # no features for this dataset: ild and unexpectedness cells are empty
        assert all(",,," in line or line.startswith("user,") for line in report[:2])
        assert (out / rerank_run_name("node_count", "asc")).exists()
        # each profile is one generated history, whole, and nothing else
        triples, titles = load_netflix(netflix_csv)
        histories = generate_profiles(
            build_catalog(triples, nodes=titles),
            SyntheticProfileConfig(n_profiles=5, min_items=2, max_items=4, seed=3),
        )
        profiles = json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"]
        assert profiles == {
            f"p{i:03d}": {"history": sorted(history)}
            for i, history in enumerate(histories)
        }


class TestWorkspace:
    def test_writers_return_what_their_readers_read(self, tmp_path):
        # inputs out of order, and an empty list, which the run file omits
        merged = make_synthetic_dataset(_synthetic_config(synth_config(tmp_path)))
        interactions = merged.interactions[::-1]
        features = dict(reversed(merged.features.items()))
        profiles = {"u2": {"history": ["b", "c"]}, "u1": {"history": ["a"]}}
        lists = {
            "u2": RecommendationList(user="u2", items=(("b", 2.0), ("a", -0.0))),
            "u3": RecommendationList(user="u3", items=()),
            "u1": RecommendationList(user="u1", items=(("c", float("inf")),)),
        }
        cases = [
            (cli._write_interactions, _read_interactions, interactions),
            (cli._write_profiles, _read_profiles, profiles),
            (write_recommendations, load_external_recommendations, lists),
        ]
        for writer, reader, value in cases:
            path = tmp_path / writer.__name__
            held, read = writer(value, path), reader(path)
            assert held == read and list(held) == list(read), writer.__name__
        held = cli._write_features(features, tmp_path / "features.csv")
        read = _read_features(tmp_path / "features.csv")
        assert list(held) == list(read) == sorted(features)
        for item, row in held.items():
            assert row.tobytes() == read[item].tobytes() == features[item].tobytes()
            assert row.dtype == read[item].dtype and not row.flags.writeable


class TestMetamorphicRelations:
    """Relations between two runs, where no oracle gives the expected output.

    Each compares ``base_run.txt``, ``report.csv`` and all 18 ``rerank_*.txt``
    of a run of every metric on the original inputs with those of a run on
    transformed ones; the disjoint user's relation compares the qrels and
    TREC runs too, line by line for every other user.
    """

    @staticmethod
    def _outputs(inputs, out) -> dict[str, bytes]:
        metrics = [kind.value for kind in MetricKind]
        config = write_config(
            out.with_suffix(".json"), lastfm_run_config(inputs, out, metrics)
        )
        assert main(["run", "--config", str(config)]) == 0
        names = [BASE_RUN, REPORT, *sorted(p.name for p in out.glob("rerank_*.txt"))]
        assert len(names) == 2 + 2 * len(metrics)
        return {name: (out / name).read_bytes() for name in names}

    @staticmethod
    def _transform(inputs, out_dir, edit):
        """Write each input file through ``edit(name, lines)``."""
        out_dir.mkdir()
        for name in ("events.tsv", "features.csv", "genres.csv"):
            lines = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
            (out_dir / name).write_text("".join(edit(name, lines)), encoding="utf-8")
        return out_dir

    def test_shuffled_input_rows_change_no_ranking_or_report(self, tmp_path, lastfm_corpus):
        rng = random.Random(7)

        def shuffle(name, lines):
            # events.tsv has no header row
            header = 0 if name == "events.tsv" else 1
            rows = lines[header:]
            rng.shuffle(rows)
            assert rows != lines[header:], name
            return lines[:header] + rows

        shuffled = self._transform(lastfm_corpus, tmp_path / "shuffled", shuffle)
        assert self._outputs(shuffled, tmp_path / "b") == self._outputs(
            lastfm_corpus, tmp_path / "a"
        )

    def test_order_preserving_track_rename_changes_no_ranking_or_report(
        self, tmp_path, lastfm_corpus
    ):
        # trkNNNNN -> trkxNNNNN keeps the order of track ids, the last
        # tie-break, so mapping the ids back gives the same files
        def rename(name, lines):
            return [line.replace("trk", "trkx") for line in lines]

        renamed = self._transform(lastfm_corpus, tmp_path / "renamed", rename)
        got = {
            name: data.replace(b"t_trkx", b"t_trk")
            for name, data in self._outputs(renamed, tmp_path / "b").items()
        }
        assert got == self._outputs(lastfm_corpus, tmp_path / "a")

    @pytest.mark.parametrize(
        "seed",
        [
            3,
            pytest.param(2, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
        ],
    )
    def test_artist_and_genre_relabel_changes_no_ranking_or_report(self, tmp_path, seed):
        # at seed 2 the relabelling moves betweenness and closeness lists
        def relabel(name, lines):
            # the artist is field 2 of an event, the genre field 2 of genres.csv
            if name == "features.csv":
                return lines
            sep, header = ("\t", 0) if name == "events.tsv" else (",", 1)
            relabelled = []
            for line in lines[header:]:
                fields = line.split(sep)
                fields[1] = "zz" + fields[1]
                relabelled.append(sep.join(fields))
            return lines[:header] + relabelled

        inputs = make_lastfm_corpus(tmp_path / "inputs", seed)
        relabelled = self._transform(inputs, tmp_path / "relabelled", relabel)
        assert self._outputs(relabelled, tmp_path / "b") == self._outputs(
            inputs, tmp_path / "a"
        )

    def test_disjoint_user_changes_no_other_users_lines(self, tmp_path, lastfm_corpus):
        # the new user's tracks, artist and genre join the catalog as a
        # component of their own, and its tempos lie inside the corpus's
        # range, so no other track's scaled features move; every user runs,
        # so the sample cannot move
        new_user, tracks = "user0007b", ("newtrk1", "newtrk2", "newtrk3")

        def add_user(name, lines):
            if name == "events.tsv":
                added = [f"{new_user}\tnewartist\t{t}\t1600000000\n" for t in tracks]
            elif name == "features.csv":
                added = [
                    f"{t},0.3,0.4,0.5,0.6,0.7,0.2,0.1,{tempo}\n"
                    for t, tempo in zip(tracks, (100, 120, 140))
                ]
            else:
                added = [f"{t},newgenre\n" for t in tracks]
            return lines + added

        def run(inputs, out, recommender):
            doc = lastfm_run_config(inputs, out, [kind.value for kind in MetricKind])
            doc["dataset"]["sample_users"] = None
            doc["recommender"] = recommender
            config = write_config(out.with_suffix(".json"), doc)
            assert main(["run", "--config", str(config)]) == 0
            names = [
                BASE_RUN, REPORT, QRELS,
                *sorted(p.name for p in out.glob("rerank_*.txt")),
                *sorted(p.name for p in out.glob("trec_*.run")),
            ]
            return {
                name: (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
                for name in names
            }

        # both runs read the baseline's lists on the original inputs, whose
        # biases a new user would move; the new user gets user0000's list
        base = run(lastfm_corpus, tmp_path / "base", "baseline")[BASE_RUN]
        external = tmp_path / "external.txt"
        external.write_text("".join(
            base + [line.replace("user0000", new_user)
                    for line in base if line.startswith("user0000 ")]
        ), encoding="utf-8")
        recommender = {"kind": "external", "external_path": str(external)}
        extended = self._transform(lastfm_corpus, tmp_path / "extended", add_user)
        a = run(lastfm_corpus, tmp_path / "a", recommender)
        b = run(extended, tmp_path / "b", recommender)
        assert len(a) == 3 + 4 * len(MetricKind)
        for name, lines in b.items():
            others = [line for line in lines if not line.startswith(new_user)]
            assert len(others) < len(lines), name
            assert others == a[name], name


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path, capsys):
        # an unknown metric flag is rejected while parsing, before any config
        with pytest.raises(SystemExit) as info:
            main(
                ["run", "--dataset", "synthetic", "--metric", "bogus",
                 "--out", str(tmp_path / "x")]
            )
        assert info.value.code == 1
        assert "argument --metric: invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rerank_section, finding",
        [
            ({"top_n": "5"}, "top_n_candidates must be an integer, got '5'"),
            ({"metrics": "pagerank"}, "metrics must be a list of strings, got 'pagerank'"),
        ],
        ids=["top_n-string", "metrics-string"],
    )
    def test_wrong_typed_config_value_is_one(self, tmp_path, capsys, rerank_section, finding):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rerank": rerank_section}), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {finding}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "text, finding",
        [
            ('{"rerank": 5}', "rerank must be an object, got 5"),
            ('{"dataset": null}', "dataset must be an object, got None"),
            ('{"dataset": {"profiles": 3}}', "dataset.profiles must be an object, got 3"),
            ("[1, 2]", "config must be a JSON object, got [1, 2]"),
            ('{"seed": 1,', "cannot parse "),
            (None, "cannot read "),
        ],
        ids=["section-int", "section-null", "subsection-int", "list-document",
             "malformed-json", "missing-file"],
    )
    def test_unloadable_config_is_one(self, tmp_path, capsys, text, finding):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {finding}")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_config_keys_are_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({
                "rerank": {"topn": 5},
                "bogus": 1,
                "dataset": {"kind": "synthetic", "synthetic": {"trakcs": 3}},
            }),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown config key rerank.topn\n"
            "config error: unknown config key bogus\n"
            "config error: unknown config key dataset.synthetic.trakcs\n"
        )
        assert not (tmp_path / "x").exists()

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["not-a-command", "--metric", "pagerank"])
        assert info.value.code == 1
        # the one parser's error names the command and lists every choice
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(
            "kgrerank: error: argument command: invalid choice: 'not-a-command'"
        )
        assert all(f"'{command}'" in error for command in COMMANDS)

    def test_runtime_failure_is_two(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("garbage with no tabs\n", encoding="utf-8")
        features = tmp_path / "features.csv"
        features.write_text("also garbage\n", encoding="utf-8")
        code = main(
            ["run", "--dataset", "lastfm",
             "--events", str(events), "--features", str(features),
             "--out", str(tmp_path / "x"), "--metric", "node_count"]
        )
        assert code == 2
        assert "stage ingest failed" in capsys.readouterr().err

    def test_track_id_with_a_space_fails_recommend_by_name(
        self, tmp_path, capsys, lastfm_corpus
    ):
        # ids are tab- or comma-separated in the inputs, but the run format
        # splits on whitespace: the base run must not be written at all
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("events.tsv", "features.csv", "genres.csv"):
            text = (lastfm_corpus / name).read_text(encoding="utf-8")
            (inputs / name).write_text(text.replace("trk", "my trk"), encoding="utf-8")
        out = tmp_path / "out"
        doc = lastfm_run_config(inputs, out, ["node_count"])
        config = write_config(tmp_path / "config.json", doc)
        assert main(["run", "--config", str(config)]) == 2
        assert re.search(
            rf"stage recommend failed: {re.escape(str(out / BASE_RUN))}: "
            r"user 'user\d{4}', item 't_my trk\d{5}': "
            r"an id must be non-empty and hold no whitespace\n",
            capsys.readouterr().err,
        )
        assert not (out / BASE_RUN).exists()

    def test_stale_flag_left_behind_on_failure(self, tmp_path):
        events = tmp_path / "events.tsv"
        events.write_text("bad\n", encoding="utf-8")
        features = tmp_path / "features.csv"
        features.write_text("bad\n", encoding="utf-8")
        out = tmp_path / "x"
        main(
            ["run", "--dataset", "lastfm",
             "--events", str(events), "--features", str(features),
             "--out", str(out), "--metric", "node_count"]
        )
        assert (out / "_STALE").exists()

    def test_rerank_failure_leaves_the_finished_runs_manifest(
        self, tmp_path, request, monkeypatch
    ):
        """The manifest is written after every stage that completes: a run
        that fails in rerank leaves the manifest a finished run writes."""
        config = write_config(tmp_path / "cfg.json", pipeline_doc(request, "synthetic"))
        out = tmp_path / "out"
        argv = ["run", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        finished = (out / MANIFEST).read_bytes()
        (out / MANIFEST).unlink()

        def with_unknown_item(catalog, users, *args):
            # the external-run case: a base list names an item the catalog lacks
            def lead(recs):
                top = recs.items[0][1] if recs.items else 1.0
                return RecommendationList(recs.user, (("no_such_item", top), *recs.items))

            return real_rerank(catalog, [(sg, lead(recs)) for sg, recs in users], *args)

        real_rerank = cli.rerank
        monkeypatch.setattr(cli, "rerank", with_unknown_item)
        assert main(argv) == 2
        assert "stage rerank" in (out / STALE_FLAG).read_text(encoding="utf-8")
        assert (out / MANIFEST).read_bytes() == finished

    @staticmethod
    def _evaluate_with_features(tmp_path, capsys, edit, metric="node_count"):
        """Run the pipeline, pass features.csv's lines through ``edit``, then
        run evaluate again; returns its exit code and standard error."""
        cfg = synth_config(tmp_path, metrics=[metric])
        run_pipeline(cfg)
        out = tmp_path / "out"
        path = out / "features.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["evaluate", "--dataset", "synthetic", "--out", str(out),
             "--metric", metric, "--order", "asc", "--k", "5"]
        )
        return code, capsys.readouterr().err

    def test_missing_feature_vector_names_user_and_item(self, tmp_path, capsys):
        found = {}

        def drop_first_recommended(lines):
            first = (tmp_path / "out" / BASE_RUN).read_text(encoding="utf-8").split()
            found.update(user=first[0], item=first[2])
            return [line for line in lines if not line.startswith(first[2] + ",")]

        code, err = self._evaluate_with_features(tmp_path, capsys, drop_first_recommended)
        assert code == 2
        assert (
            f"stage evaluate failed: user {found['user']!r}: "
            f"no feature vector for item {found['item']!r}\n"
        ) in err

    def test_of_two_missing_items_the_base_list_item_is_named(self, tmp_path, capsys):
        # the first user looks up its history, then its base top 5, then its
        # pagerank list's top 5; the base's fifth item is named ahead of an
        # item that leads the pagerank list but sits below the base's top 5
        found = {}

        def drop_two(lines):
            out = tmp_path / "out"
            user = min(load_external_recommendations(out / BASE_RUN))
            base = load_external_recommendations(out / BASE_RUN)[user].top(5)
            ranked = load_external_recommendations(
                out / rerank_run_name("pagerank", "asc")
            )[user].top(5)
            lead = next(item for item in ranked if item not in base)
            assert ranked.index(lead) < 4
            history = _read_profiles(out / PROFILES)[user]["history"]
            assert {base[-1], lead}.isdisjoint(history)
            found.update(user=user, item=base[-1])
            dropped = (f"{base[-1]},", f"{lead},")
            return [line for line in lines if not line.startswith(dropped)]

        code, err = self._evaluate_with_features(tmp_path, capsys, drop_two, "pagerank")
        assert code == 2
        assert err.endswith(
            f"stage evaluate failed: user {found['user']!r}: "
            f"no feature vector for item {found['item']!r}\n"
        )

    def test_item_below_k_in_every_list_needs_no_features(self, tmp_path, capsys):
        # an item without a feature row at the bottom of one user's base and
        # reranked lists changes no report cell
        run_pipeline(synth_config(tmp_path))
        out = tmp_path / "out"
        report = (out / REPORT).read_bytes()
        user = min(load_external_recommendations(out / BASE_RUN))
        for name in (BASE_RUN, rerank_run_name("node_count", "asc")):
            lists = load_external_recommendations(out / name)
            items = lists[user].items
            lists[user] = RecommendationList(
                user=user, items=(*items, ("t_unfeatured", items[-1][1]))
            )
            write_recommendations(lists, out / name)
        assert "t_unfeatured" not in _read_features(out / FEATURES)
        code = main(
            ["evaluate", "--dataset", "synthetic", "--out", str(out),
             "--metric", "node_count", "--order", "asc", "--k", "5"]
        )
        assert code == 0, capsys.readouterr().err
        assert (out / REPORT).read_bytes() == report

    @pytest.mark.parametrize(
        "values, reason",
        [
            ("0.0," * 7 + "0.0", "all-zero vector has no cosine distance"),
            ("nan," + "0.5," * 6 + "0.5", "feature danceability = nan outside [0, 1]"),
            ("0.5", "missing value(s) for " + ", ".join(FEATURE_NAMES[1:])),
            ("0.5," * 9 + "0.5", "2 value(s) beyond the 9 columns"),
            (
                "0.5,loud," + "0.5," * 5 + "0.5",
                "could not convert string to float: 'loud'",
            ),
            ("0.5,1.5," + "0.5," * 5 + "0.5", "feature energy = 1.5 outside [0, 1]"),
            ("0.5," * 7 + "-0.25", "feature tempo = -0.25 outside [0, 1]"),
        ],
    )
    def test_bad_feature_row_names_line_and_item(self, tmp_path, capsys, values, reason):
        found = {}

        def replace_third_row(lines):
            found["item"] = lines[3].split(",")[0]
            return [*lines[:3], f"{found['item']},{values}\n", *lines[4:]]

        code, err = self._evaluate_with_features(tmp_path, capsys, replace_third_row)
        features = tmp_path / "out" / "features.csv"
        assert code == 2
        assert (
            f"stage evaluate failed: {features}:4: item {found['item']!r}: {reason}\n"
        ) in err

    def test_first_bad_feature_line_is_named(self, tmp_path, capsys):
        found = {}

        def break_two_rows(lines):
            # a range error on line 5 comes before a repeat and a short row
            found["item"] = lines[4].split(",")[0]
            return [
                *lines[:4], f"{found['item']},{'0.5,' * 7}2.0\n", *lines[5:],
                lines[1], "x,0.5\n",
            ]

        code, err = self._evaluate_with_features(tmp_path, capsys, break_two_rows)
        features = tmp_path / "out" / "features.csv"
        assert code == 2
        assert (
            f"stage evaluate failed: {features}:5: item {found['item']!r}: "
            "feature tempo = 2.0 outside [0, 1]\n"
        ) in err

    @pytest.mark.parametrize(
        "later", ["0.5," * 7 + "1.5", "0.5", "0.5,loud," + "0.5," * 5 + "0.5"],
        ids=["range", "short", "non-numeric"],
    )
    def test_earlier_all_zero_row_is_named_first(self, tmp_path, capsys, later):
        found = {}

        def break_two_rows(lines):
            # an all-zero row on line 3 comes before an error on line 6
            found["item"] = lines[2].split(",")[0]
            other = lines[5].split(",")[0]
            return [
                *lines[:2], f"{found['item']},{'0.0,' * 7}0.0\n", *lines[3:5],
                f"{other},{later}\n", *lines[6:],
            ]

        code, err = self._evaluate_with_features(tmp_path, capsys, break_two_rows)
        features = tmp_path / "out" / "features.csv"
        assert code == 2
        assert (
            f"stage evaluate failed: {features}:3: item {found['item']!r}: "
            "all-zero vector has no cosine distance\n"
        ) in err

    def test_features_read_back_as_written(self, tmp_path):
        cfg = synth_config(tmp_path)
        stage_ingest(cfg)
        merged = make_synthetic_dataset(_synthetic_config(cfg))
        features = _read_features(tmp_path / "out" / "features.csv")
        assert list(features) == sorted(merged.features)
        for item, row in features.items():
            assert row.tobytes() == merged.features[item].tobytes()
            assert row.shape == (len(FEATURE_NAMES),) and not row.flags.writeable

    def test_repeated_feature_item_names_both_lines(self, tmp_path, capsys):
        found = {}

        def repeat_first_row(lines):
            found["item"], found["line"] = lines[1].split(",")[0], len(lines) + 1
            return [*lines, lines[1]]

        code, err = self._evaluate_with_features(tmp_path, capsys, repeat_first_row)
        features = tmp_path / "out" / "features.csv"
        assert code == 2
        assert (
            f"stage evaluate failed: {features}:{found['line']}: "
            f"repeated item {found['item']!r}, first on line 2\n"
        ) in err

    def test_missing_feature_column_names_path_and_column(self, tmp_path, capsys):
        def drop_tempo(lines):
            header = lines[0].rstrip("\n").split(",")
            keep = [i for i, name in enumerate(header) if name != "tempo"]
            return [
                ",".join(line.rstrip("\n").split(",")[i] for i in keep) + "\n"
                for line in lines
            ]

        code, err = self._evaluate_with_features(tmp_path, capsys, drop_tempo)
        features = tmp_path / "out" / "features.csv"
        assert code == 2
        assert (
            f"stage evaluate failed: {features}: missing required columns: ['tempo']\n"
        ) in err

    @pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
    def test_repeated_feature_column_reads_its_last_column(
        self, tmp_path, capsys, first
    ):
        # evaluate reads the header as ingest does: a repeated name stands
        # for its last column, so a stray tempo of 7 matters only when last
        found = {}

        def repeat_tempo(lines):
            found["item"] = lines[1].split(",")[0]
            rows = [line.rstrip("\n").split(",") for line in lines]
            for row in rows:
                value = "tempo" if row is rows[0] else "7"
                row.insert(1 if first else len(row), value)
            return [",".join(row) + "\n" for row in rows]

        code, err = self._evaluate_with_features(tmp_path, capsys, repeat_tempo)
        features = tmp_path / "out" / "features.csv"
        if first:
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert (
                f"stage evaluate failed: {features}:2: item {found['item']!r}: "
                "feature tempo = 7.0 outside [0, 1]\n"
            ) in err

    def test_base_run_user_without_profile_fails_rerank(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        base_run = tmp_path / "out" / BASE_RUN
        first = base_run.read_text(encoding="utf-8").splitlines()[0].split()
        with open(base_run, "a", encoding="utf-8") as fh:
            fh.write(" ".join(["u999", *first[1:]]) + "\n")
        capsys.readouterr()
        code = main(
            ["rerank", "--dataset", "synthetic", "--out", str(tmp_path / "out"),
             "--metric", "node_count", "--order", "asc", "--parallelism", "1"]
        )
        assert code == 2
        assert (
            f"stage rerank failed: {base_run}: user 'u999' has no profile in "
            f"{PROFILES}\n"
        ) in capsys.readouterr().err

    def test_base_run_user_without_profile_fails_evaluate(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        base_run = tmp_path / "out" / BASE_RUN
        first = base_run.read_text(encoding="utf-8").splitlines()[0].split()
        with open(base_run, "a", encoding="utf-8") as fh:
            fh.write(" ".join(["u999", *first[1:]]) + "\n")
        capsys.readouterr()
        code = main(
            ["evaluate", "--dataset", "synthetic", "--out", str(tmp_path / "out"),
             "--metric", "node_count", "--order", "asc", "--k", "5"]
        )
        assert code == 2
        assert (
            f"stage evaluate failed: {base_run}: user 'u999' has no profile in "
            f"{PROFILES}\n"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, edit, reason",
        [
            ("rerank", lambda doc, user: json.dumps({"people": doc["users"]}),
             "missing key 'users'"),
            ("rerank", lambda doc, user: json.dumps(
                {"users": {**doc["users"], user: {"test": []}}}),
             "user {user!r}: missing key 'history'"),
            ("evaluate", lambda doc, user: "[1, 2]", "expected a JSON object, got list"),
            ("recommend", lambda doc, user: '{"users": ',
             "Expecting value: line 1 column 11 (char 10)"),
        ],
        ids=["no-users-key", "user-without-history", "list-document", "malformed-json"],
    )
    def test_bad_profiles_file_names_path(self, tmp_path, capsys, stage, edit, reason):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        path = tmp_path / "out" / PROFILES
        doc = json.loads(path.read_text(encoding="utf-8"))
        user = sorted(doc["users"])[0]
        path.write_text(edit(doc, user), encoding="utf-8")
        capsys.readouterr()
        code = main(
            [stage, "--dataset", "synthetic", "--out", str(tmp_path / "out"),
             "--metric", "node_count", "--order", "asc", "--parallelism", "1"]
        )
        assert code == 2
        assert (
            f"stage {stage} failed: {path}: {reason.format(user=user)}\n"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("stage", ["rerank", "evaluate"])
    def test_repeated_history_item_names_path_user_and_item(self, tmp_path, capsys, stage):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        path = tmp_path / "out" / PROFILES
        doc = json.loads(path.read_text(encoding="utf-8"))
        user = sorted(doc["users"])[0]
        history = doc["users"][user]["history"]
        history.append(history[0])
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(
            [stage, "--dataset", "synthetic", "--out", str(tmp_path / "out"),
             "--metric", "node_count", "--order", "asc", "--parallelism", "1"]
        )
        assert code == 2
        assert (
            f"stage {stage} failed: {path}: user {user!r}: "
            f"repeated history item {history[0]!r}\n"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("u000\tt_a0001", "not enough values to unpack (expected 3, got 2)"),
            ("u000\tt_a0001\tmany", "invalid literal for int() with base 10: 'many'"),
            ("u000\tt_a0001\t0", "interaction count must be >= 1, got 0"),
        ],
        ids=["short-row", "non-integer-count", "zero-count"],
    )
    def test_bad_interaction_row_names_path_and_line(self, tmp_path, capsys, row, reason):
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        path = tmp_path / "out" / INTERACTIONS
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([*lines[:2], row + "\n", *lines[3:]]), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["recommend", "--dataset", "synthetic", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert f"stage recommend failed: {path}:3: {reason}\n" in capsys.readouterr().err

    def test_successful_run_is_zero(self, tmp_path):
        code = main(
            ["run", "--dataset", "synthetic", "--out", str(tmp_path / "ok"),
             "--metric", "node_count", "--order", "asc", "--top-n", "10",
             "--k", "5", "--seed", "1", "--parallelism", "1"]
        )
        assert code == 0


class TestParser:
    """One parser reads a command and every flag, in either order."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_parses_every_flag(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        assert main([command, "--config", missing, *ALL_FLAGS]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read {missing}")
        assert main([command, "--config", missing, "--metric", "pagerank"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read {missing}")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_may_come_before_the_command(self, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "validate_config", lambda cfg: [])
        monkeypatch.setattr(cli, "run_pipeline", lambda cfg: calls.append(("run", cfg)))
        monkeypatch.setattr(
            cli, "_run_stage", lambda name, cfg: calls.append((name, cfg))
        )
        half = len(ALL_FLAGS) // 2
        for argv in (
            [command, *ALL_FLAGS],
            [*ALL_FLAGS, command],
            [*ALL_FLAGS[:half], command, *ALL_FLAGS[half:]],
        ):
            assert main(argv) == 0
        assert [name for name, _ in calls] == [command] * 3
        first = calls[0][1].to_dict()
        assert first["top_n_candidates"] == 11 and first["metrics"] == ["pagerank", "closeness"]
        assert all(cfg.to_dict() == first for _, cfg in calls)

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out


def test_importing_the_cli_loads_no_pool_or_typing_module():
    # in a fresh interpreter: this one has imported them for other tests
    modules = ("numpy.typing", "concurrent.futures", "multiprocessing")
    loaded = f"import sys, kgrerank.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", loaded],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _nested(path: str, value) -> dict:
    """The config document that sets only the dotted ``path`` to ``value``."""
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


class TestDeclaredBounds:
    # (field, out-of-range value, the finding it gives)
    OUT_OF_RANGE = [
        ("dataset", "imdb",
         "dataset must be one of ('lastfm', 'netflix', 'synthetic'), got 'imdb'"),
        ("parallelism", 0, "parallelism must be >= 1, got 0"),
        ("sample_users", 0, "sample_users must be >= 1, got 0"),
        ("profile_count", 0, "profile_count must be >= 1, got 0"),
        ("recommender", "svd",
         "recommender must be one of ('external', 'baseline'), got 'svd'"),
        # the removed item-kNN choice fails like any unknown one
        ("recommender", "itemknn",
         "recommender must be one of ('external', 'baseline'), got 'itemknn'"),
        ("metrics", ["betweenness", "bogus"],
         "metrics must be one of ('node_count', 'edge_count', 'density', "
         "'average_degree', 'in_degree', 'out_degree', 'pagerank', "
         "'betweenness', 'closeness'), got 'bogus'"),
        ("orders", ["asc", "sideways"],
         "orders must be one of ('asc', 'desc'), got 'sideways'"),
        ("mode", "open", "mode must be one of ('closed', 'edges'), got 'open'"),
        ("top_n_candidates", 0, "top_n_candidates must be >= 1, got 0"),
        ("eval_k", -3, "eval_k must be >= 1, got -3"),
    ]

    def test_table_covers_every_declared_bound(self):
        declared = [
            f.name for f in fields(RunConfig)
            if f.metadata["choices"] is not None or f.metadata["minimum"] is not None
        ]
        assert declared == list(dict.fromkeys(name for name, _, _ in self.OUT_OF_RANGE))

    def test_every_field_is_read_by_the_package(self):
        # a setting that no code reads loads and validates but changes nothing
        package = Path(kgrerank.__file__).parent
        source = "\n".join(p.read_text(encoding="utf-8") for p in package.glob("*.py"))
        unread = [
            f.name for f in fields(RunConfig)
            if not re.search(rf"\bcfg\.{f.name}\b", source)
        ]
        # the one exception: parallelism has had no effect since the rerank
        # stage lost its process pool, and stays only because the benchmark's
        # configs set it; ROADMAP item 7 deletes it, and this exception with it
        assert unread == ["parallelism"]

    @pytest.mark.parametrize(
        "name, value, finding", OUT_OF_RANGE,
        ids=[f"{name}-{value}" if value == "itemknn" else name
             for name, value, _ in OUT_OF_RANGE],
    )
    def test_out_of_range_config_value_is_one(self, tmp_path, capsys, name, value, finding):
        # the synthetic default dataset: sample_users and profile_count are
        # checked whatever the dataset
        path = next(f.metadata["path"] for f in fields(RunConfig) if f.name == name)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_nested(path, value)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"config error: {finding}\n"
        assert not (tmp_path / "x").exists()

    def test_flag_choices_are_the_field_choices(self):
        parser = argparse.ArgumentParser()
        _add_common_arguments(parser)
        by_dest = {action.dest: action for action in parser._actions}
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                assert by_dest[f.name].choices == f.metadata["choices"], f.name

    @pytest.mark.parametrize(
        "key",
        [
            "dataset.prune.label_entities", "dataset.prune.schema",
            "recommender.knn_k", "dataset.split_ratio",
        ],
        ids=lambda key: key.rsplit(".", 1)[-1],
    )
    def test_removed_prune_keys_are_unknown(self, tmp_path, capsys, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_nested(key, True)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"config error: unknown config key {key}\n"

    @pytest.mark.parametrize("degree_one", [False, True])
    def test_netflix_ingest_prunes_degree_one_nodes_only_when_set(
        self, tmp_path, netflix_csv, degree_one
    ):
        triples, titles = load_netflix(netflix_csv)
        catalog = build_catalog(triples, nodes=titles)
        degree = dict.fromkeys(catalog.node_ids(), 0)
        for source, _, target in catalog.edges():
            degree[source] += 1
            degree[target] += 1
        leaves = {v for v, d in degree.items() if d == 1}
        assert leaves
        cfg = RunConfig(
            dataset="netflix", titles_path=str(netflix_csv),
            output_dir=str(tmp_path / "out"), profile_count=3,
            profile_min_items=1, profile_max_items=2, prune_degree_one=degree_one,
        )
        assert validate_config(cfg) == []
        stage_ingest(cfg)
        out = tmp_path / "out"
        kept = set(read_graph(out / CATALOG_TRIPLES, out / CATALOG_NODES).node_ids())
        summary = [
            json.loads(line)
            for line in (out / INGEST_SUMMARY).read_text(encoding="utf-8").splitlines()
        ]
        pruned = next(row["count"] for row in summary if row["reason"] == "nodes pruned")
        if degree_one:
            assert kept == set(catalog.node_ids()) - leaves
            assert pruned == len(leaves)
        else:
            assert kept == set(catalog.node_ids())
            assert pruned == 0

import json

import pytest

from kgrerank import load_external_recommendations, write_recommendations
from kgrerank.cli import (
    BASE_RUN,
    CATALOG_NODES,
    CATALOG_TRIPLES,
    INGEST_SUMMARY,
    INTERACTIONS,
    MANIFEST,
    PROFILES,
    QRELS,
    REPORT,
    REPORT_SUMMARY,
    RunConfig,
    config_hash,
    main,
    rerank_run_name,
    run_pipeline,
    trec_run_name,
    validate_config,
)
from kgrerank.rerank import RecommendationList


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
        assert any("unknown metric" in f for f in validate_config(cfg))

    def test_profile_bounds_finding(self, tmp_path):
        titles = tmp_path / "titles.csv"
        titles.write_text("x", encoding="utf-8")
        cfg = synth_config(
            tmp_path,
            dataset="netflix",
            titles_path=str(titles),
            profile_min_items=9,
            profile_max_items=3,
        )
        assert any("profile_min_items" in f for f in validate_config(cfg))

    def test_all_findings_reported_at_once(self, tmp_path):
        cfg = synth_config(
            tmp_path, metrics=[], orders=[], top_n_candidates=0, eval_k=0
        )
        assert len(validate_config(cfg)) >= 4

    def test_missing_paths_reported(self, tmp_path):
        cfg = synth_config(
            tmp_path, dataset="lastfm",
            events_path=str(tmp_path / "nope.tsv"),
            features_path=None,
        )
        findings = validate_config(cfg)
        assert any("does not exist" in f for f in findings)
        assert any("features" in f for f in findings)


class TestRunConfigParsing:
    def test_nested_document(self, tmp_path):
        doc = {
            "dataset": {
                "kind": "netflix",
                "titles": "titles.csv",
                "profiles": {"count": 12, "min_items": 2, "max_items": 6},
                "split_ratio": 0.8,
                "prune": {"degree_one": False},
            },
            "recommender": {"kind": "itemknn", "knn_k": 7},
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
        assert cfg.split_ratio == 0.8
        assert cfg.prune_degree_one is False
        assert cfg.recommender == "itemknn"
        assert cfg.knn_k == 7
        assert cfg.metrics == ["betweenness", "node_count"]
        assert cfg.orders == ["asc", "desc"]
        assert cfg.mode == "edges"
        assert cfg.top_n_candidates == 50
        assert cfg.eval_k == 5
        assert cfg.seed == 99
        assert cfg.parallelism == 2
        assert cfg.output_dir == "somewhere"

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
        assert report[0] == "user,metric,order,ild,unexpectedness,ndcg10"
        # 4 users x (1 metric-order + base + profile rows)
        assert len(report) == 1 + 4 * 3
        manifest = json.loads((out / MANIFEST).read_text(encoding="utf-8"))
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["version"]

    def test_staged_invocation_matches_run(self, tmp_path):
        doc = {
            "dataset": {
                "kind": "synthetic",
                "synthetic": {"tracks": 40, "users": 4, "history": 8},
            },
            "rerank": {"metrics": ["node_count"], "orders": ["asc"], "top_n": 15},
            "evaluation": {"k": 5},
            "seed": 13,
            "parallelism": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        for command in ("ingest", "recommend", "rerank", "evaluate"):
            assert main(
                [command, "--config", str(cfg_path), "--out", str(out_b)]
            ) == 0
        for name in (BASE_RUN, rerank_run_name("node_count", "asc"),
                     REPORT, REPORT_SUMMARY, QRELS):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

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

    def test_parallel_equals_serial(self, tmp_path):
        serial = synth_config(tmp_path / "serial", parallelism=1)
        parallel = synth_config(tmp_path / "parallel", parallelism=2)
        run_pipeline(serial)
        run_pipeline(parallel)
        name = rerank_run_name("node_count", "asc")
        assert (tmp_path / "serial" / "out" / name).read_bytes() == (
            tmp_path / "parallel" / "out" / name
        ).read_bytes()
        assert (tmp_path / "serial" / "out" / REPORT).read_bytes() == (
            tmp_path / "parallel" / "out" / REPORT
        ).read_bytes()

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


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path, capsys):
        assert main(
            ["run", "--dataset", "synthetic", "--metric", "bogus",
             "--out", str(tmp_path / "x")]
        ) == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as info:
            main(["not-a-command"])
        assert info.value.code == 1

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

    def test_successful_run_is_zero(self, tmp_path):
        code = main(
            ["run", "--dataset", "synthetic", "--out", str(tmp_path / "ok"),
             "--metric", "node_count", "--order", "asc", "--top-n", "10",
             "--k", "5", "--seed", "1", "--parallelism", "1"]
        )
        assert code == 0

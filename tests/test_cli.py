import argparse
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
    _add_common_arguments,
    _build_config,
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

    def test_flat_kind_spellings(self):
        cfg = RunConfig.from_dict({"dataset": "synthetic", "recommender": "baseline"})
        assert (cfg.dataset, cfg.recommender) == ("synthetic", "baseline")
        cfg = RunConfig.from_dict({"dataset": "netflix", "recommender": "itemknn"})
        assert (cfg.dataset, cfg.recommender) == ("netflix", "itemknn")

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
                "split_ratio": 0.5,
                "prune": {"degree_one": False, "label_entities": True, "schema": True},
                "synthetic": {
                    "tracks": 30, "users": 5, "history": 6, "minority_share": 0.3,
                },
            },
            "recommender": {"kind": "external", "external_path": "x.run", "knn_k": 8},
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
            "split_ratio": 0.5,
            "prune_degree_one": False,
            "prune_label_entities": True,
            "prune_schema_nodes": True,
            "synth_tracks": 30,
            "synth_users": 5,
            "synth_history": 6,
            "synth_minority_share": 0.3,
            "recommender": "external",
            "external_recs_path": "x.run",
            "knn_k": 8,
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
        args = parser.parse_args([
            "--dataset", "lastfm", "--out", "elsewhere", "--seed", "5",
            "--parallelism", "3", "--recommender", "external",
            "--metric", "pagerank", "--metric", "closeness", "--order", "desc",
            "--mode", "edges", "--top-n", "11", "--k", "4",
            "--events", "e.tsv", "--features", "f.csv", "--genres", "g.csv",
            "--titles", "t.csv", "--external-recs", "x.run", "--knn-k", "8",
        ])
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
            "knn_k": 8,
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

    @staticmethod
    def _evaluate_with_features(tmp_path, capsys, edit):
        """Run the pipeline, pass features.csv's lines through ``edit``, then
        run evaluate again; returns its exit code and standard error."""
        cfg = synth_config(tmp_path)
        run_pipeline(cfg)
        out = tmp_path / "out"
        path = out / "features.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["evaluate", "--dataset", "synthetic", "--out", str(out),
             "--metric", "node_count", "--order", "asc", "--k", "5"]
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

    @pytest.mark.parametrize(
        "values, reason",
        [
            ("0.0," * 7 + "0.0", "all-zero vector has no cosine distance"),
            ("nan," + "0.5," * 6 + "0.5", "feature danceability = nan outside [0, 1]"),
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

    def test_successful_run_is_zero(self, tmp_path):
        code = main(
            ["run", "--dataset", "synthetic", "--out", str(tmp_path / "ok"),
             "--metric", "node_count", "--order", "asc", "--top-n", "10",
             "--k", "5", "--seed", "1", "--parallelism", "1"]
        )
        assert code == 0

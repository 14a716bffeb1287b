"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test results.
"""

import json
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from kgrerank import (
    BaselineRecommender,
    MetricKind,
    NeighborhoodMode,
    RecommendationList,
    RerankConfig,
    SortOrder,
    SyntheticConfig,
    betweenness,
    build_catalog,
    closeness,
    compute_metric,
    evaluate_candidates,
    extend_subgraph,
    hhi_normalized,
    ild,
    induce_profile_subgraph,
    load_netflix,
    lookup_features,
    make_synthetic_dataset,
    merge_lastfm,
    ndcg_at_k,
    pagerank,
    rerank,
    scale_ratings,
    split_interactions,
    unexpectedness,
)
from kgrerank.cli import BASE_RUN, REPORT, REPORT_SUMMARY, rerank_run_name, main

from conftest import DVS_EXPECTED
from oracles import (
    brute_betweenness,
    brute_harmonic_closeness,
    brute_ild,
    brute_ndcg,
    brute_unexpectedness,
    dense_pagerank,
    random_catalog_with_profile,
    random_multigraph,
)

ASC = SortOrder.ASCENDING
DESC = SortOrder.DESCENDING


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number} ({name}): FAIL")
        raise
    print(f"acceptance criterion {number} ({name}): PASS")


def test_c1_hhi_suite():
    with criterion(1, "HHI suite"):
        start = time.monotonic()
        for n in range(2, 101):
            assert hhi_normalized([1.0 / n] * n) == pytest.approx(0.0, abs=1e-12)
            one_hot = [0.0] * n
            one_hot[n // 2] = 1.0
            assert hhi_normalized(one_hot) == 1.0
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(2, 40)
            raw = [rng.uniform(1e-6, 1.0) for _ in range(n)]
            total = sum(raw)
            shares = [x / total for x in raw]
            direct = (sum(s * s for s in shares) - 1.0 / n) / (1.0 - 1.0 / n)
            assert hhi_normalized(shares) == pytest.approx(direct, abs=1e-12)
        assert time.monotonic() - start < 1.0


def test_c2_centrality_oracles():
    with criterion(2, "centrality oracles"):
        start = time.monotonic()
        rng = random.Random(202)
        for _ in range(200):
            g = random_multigraph(rng, max_nodes=12)
            mine = betweenness(g)
            exact = brute_betweenness(g)  # exact path counts as Fractions
            for v in mine:
                assert mine[v] == pytest.approx(float(exact[v]), abs=1e-9)
            harmonic = closeness(g)
            reference = brute_harmonic_closeness(g)
            for v in harmonic:
                assert harmonic[v] == pytest.approx(reference[v], abs=1e-9)
        for _ in range(60):
            g = random_multigraph(rng, max_nodes=10)
            mine = pagerank(g)
            solved = dense_pagerank(g)
            for v in mine:
                assert mine[v] == pytest.approx(solved[v], abs=1e-8)
        assert time.monotonic() - start < 30.0


def test_c3_diverse_vs_similar_reranking(dvs_catalog, dvs_profile, dvs_recs):
    with criterion(3, "diverse-vs-similar directional reproduction"):
        cfg = RerankConfig(
            metric=MetricKind.BETWEENNESS,
            order=ASC,
            mode=NeighborhoodMode.CLOSED_NEIGHBORHOOD,
            top_n=100,
        )
        ranked = rerank(dvs_catalog, dvs_profile, dvs_recs, cfg)
        position = {r.item: r.new_rank for r in ranked}
        values = {r.item: r.metric_value.value for r in ranked}
        for diverse in ("d1", "d2"):
            for similar in ("s1", "s2"):
                assert position[diverse] < position[similar]
                assert values[diverse] < values[similar]
        for item, expected in DVS_EXPECTED.items():
            assert values[item] == pytest.approx(expected, abs=1e-9)

        # cumulative extension arithmetic, exact
        diverse_pair = extend_subgraph(
            extend_subgraph(dvs_profile, dvs_catalog, "d1"), dvs_catalog, "d2"
        )
        similar_pair = extend_subgraph(
            extend_subgraph(dvs_profile, dvs_catalog, "s1"), dvs_catalog, "s2"
        )
        base_nodes = dvs_profile.graph.num_nodes
        base_edges = dvs_profile.graph.num_edges
        assert diverse_pair.graph.num_nodes - base_nodes == 4
        assert diverse_pair.graph.num_edges - base_edges == 7
        assert similar_pair.graph.num_nodes - base_nodes == 2
        assert similar_pair.graph.num_edges - base_edges == 2


def test_c4_candidate_evaluation_independence():
    with criterion(4, "candidate evaluation independence"):
        rng = random.Random(404)
        metric_cycle = sorted(MetricKind, key=lambda k: k.value)
        for round_number in range(100):
            catalog, history, recs = random_catalog_with_profile(
                rng, equal_scores=True
            )
            sg = induce_profile_subgraph(catalog, history, user="u")
            metric = metric_cycle[round_number % len(metric_cycle)]

            # each evaluation equals the metric on the naive full copy
            evaluations = evaluate_candidates(catalog, sg, recs, metric)
            assert [e.item for e in evaluations] == list(recs.item_ids())
            for e in evaluations:
                extended = extend_subgraph(sg, catalog, e.item).graph
                assert e.metric_value == compute_metric(extended, metric)

            # permuting the candidate list has no effect on any metric value
            items = list(recs.items)
            rng.shuffle(items)
            shuffled = RecommendationList(user="u", items=tuple(items))
            original = {
                e.item: e.metric_value.value
                for e in evaluate_candidates(catalog, sg, recs, metric)
            }
            permuted = {
                e.item: e.metric_value.value
                for e in evaluate_candidates(catalog, sg, shuffled, metric)
            }
            assert original == permuted  # exact equality

            # and the final ordering is identical after re-sorting
            cfg = RerankConfig(metric=metric, order=ASC, top_n=100)
            assert [r.item for r in rerank(catalog, sg, recs, cfg)] == [
                r.item for r in rerank(catalog, sg, shuffled, cfg)
            ]


def test_c5_surprise_measure_oracles():
    with criterion(5, "surprise measure oracles"):
        from kgrerank import FeatureVector

        rng = random.Random(505)

        def vectors(n):
            return [
                FeatureVector.from_iterable(
                    rng.uniform(0.05, 1.0) for _ in range(8)
                )
                for _ in range(n)
            ]

        for _ in range(500):
            vs = vectors(rng.randint(2, 8))
            arrays = [v.as_array() for v in vs]
            assert ild(vs) == pytest.approx(brute_ild(arrays), abs=1e-12)
            split = rng.randint(1, len(vs) - 1)
            assert unexpectedness(vs[:split], vs[split:]) == pytest.approx(
                brute_unexpectedness(arrays[:split], arrays[split:]), abs=1e-12
            )
            n_items = rng.randint(1, 15)
            ids = [f"i{j}" for j in range(n_items)]
            base = RecommendationList(
                user="u",
                items=tuple((i, float(n_items - k)) for k, i in enumerate(ids)),
            )
            permuted = list(ids)
            rng.shuffle(permuted)
            k = rng.randint(1, 12)
            assert ndcg_at_k(base, permuted, k) == pytest.approx(
                brute_ndcg(ids, permuted, k), abs=1e-12
            )

        ids = [f"x{j}" for j in range(20)]
        base = RecommendationList(
            user="u", items=tuple((i, float(20 - k)) for k, i in enumerate(ids))
        )
        assert ndcg_at_k(base, ids, 10) == 1.0
        disjoint = ids[10:] + ids[:10]
        assert ndcg_at_k(base, disjoint[:10], 10) == 0.0


@pytest.fixture(scope="module")
def synthetic_experiment():
    """Shared two-cluster experiment behind criteria 6 and 7."""
    start = time.monotonic()
    data = make_synthetic_dataset(SyntheticConfig(seed=606))
    catalog = build_catalog(data.triples)
    model = BaselineRecommender().fit(scale_ratings(data.interactions))
    histories: dict[str, set[str]] = {}
    for interaction in data.interactions:
        histories.setdefault(interaction.user, set()).add(interaction.item)
    assert len(histories) >= 20

    k = 10
    cfg_betw = RerankConfig(metric=MetricKind.BETWEENNESS, order=ASC, top_n=100)
    cfg_nodes = RerankConfig(metric=MetricKind.NODE_COUNT, order=DESC, top_n=100)
    unexp_base, unexp_betw, ndcg_betw, ndcg_nodes = [], [], [], []
    for user in sorted(histories):
        recs = model.recommend(user, n=100)
        sg = induce_profile_subgraph(catalog, histories[user], user=user)
        history_vectors = lookup_features(sorted(histories[user]), data.features)
        unexp_base.append(
            unexpectedness(
                history_vectors, lookup_features(recs.top(k), data.features)
            )
        )
        ranked_betw = [r.item for r in rerank(catalog, sg, recs, cfg_betw)]
        unexp_betw.append(
            unexpectedness(
                history_vectors, lookup_features(ranked_betw[:k], data.features)
            )
        )
        ndcg_betw.append(ndcg_at_k(recs, ranked_betw, k))
        ranked_nodes = [r.item for r in rerank(catalog, sg, recs, cfg_nodes)]
        ndcg_nodes.append(ndcg_at_k(recs, ranked_nodes, k))
    return {
        "users": len(histories),
        "unexp_base": statistics.fmean(unexp_base),
        "unexp_betw": statistics.fmean(unexp_betw),
        "ndcg_betw": statistics.fmean(ndcg_betw),
        "ndcg_nodes": statistics.fmean(ndcg_nodes),
        "elapsed": time.monotonic() - start,
    }


def test_c6_unexpectedness_lift_end_to_end(synthetic_experiment):
    with criterion(6, "end-to-end unexpectedness lift"):
        result = synthetic_experiment
        assert result["users"] >= 20
        assert result["unexp_betw"] > result["unexp_base"]  # strict mean lift
        assert result["elapsed"] < 120.0
        print(
            f"  mean unexpectedness: base {result['unexp_base']:.4f} -> "
            f"betweenness-asc {result['unexp_betw']:.4f}"
        )


def test_c7_ndcg_perturbation_direction(synthetic_experiment):
    with criterion(7, "nDCG perturbation direction"):
        result = synthetic_experiment
        assert result["ndcg_betw"] < result["ndcg_nodes"]
        assert result["ndcg_betw"] < 0.9
        print(
            f"  mean nDCG@10: betweenness-asc {result['ndcg_betw']:.4f} < "
            f"node-count-desc {result['ndcg_nodes']:.4f}"
        )


def test_c8_ingestion_conservation(lastfm_files, netflix_csv):
    with criterion(8, "ingestion conservation"):
        events, features, genres = lastfm_files
        merged = merge_lastfm(events, features, genres)
        assert merged.stats.events + merged.dropped_events == 5  # exact

        triples, records = load_netflix(netflix_csv)
        assert len(records) == 5
        assert len(triples) == 23  # hand-counted for the 5-row fixture
        per_predicate = {}
        for t in triples:
            per_predicate[t.predicate] = per_predicate.get(t.predicate, 0) + 1
        assert per_predicate == {
            "directs": 4,
            "acts_on": 5,
            "country_of_origin": 4,
            "genre": 5,
            "rated": 5,
        }

        for n, expected_train in ((10, 9), (5, 4), (2, 1), (20, 18)):
            train, test = split_interactions(
                [f"i{j}" for j in range(n)], 0.9, seed=n
            )
            assert len(train) == expected_train
            assert len(test) == n - expected_train


def test_c9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism"):
        doc = {
            "dataset": {
                "kind": "synthetic",
                "synthetic": {"tracks": 60, "users": 6, "history": 10},
            },
            "rerank": {
                "metrics": ["betweenness", "node_count"],
                "orders": ["asc", "desc"],
                "top_n": 30,
            },
            "evaluation": {"k": 10},
            "seed": 909,
            "parallelism": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        compared = [REPORT, REPORT_SUMMARY, BASE_RUN]
        for metric in doc["rerank"]["metrics"]:
            for order in doc["rerank"]["orders"]:
                compared.append(rerank_run_name(metric, order))
        for name in compared:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

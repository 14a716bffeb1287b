import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    CatalogGraph,
    ConvergenceError,
    MetricKind,
    NeighborhoodMode,
    RecommendationList,
    RerankConfig,
    RerankError,
    SortOrder,
    baseline_metric,
    compute_metric,
    evaluate_candidates,
    extend_subgraph,
    induce_profile_subgraph,
    rerank,
)
from kgrerank import metrics as metrics_module
from kgrerank.graph import Node
from kgrerank.rerank import evaluate_metrics

from conftest import DVS_EXPECTED
from oracles import random_catalog_with_profile

ASC = SortOrder.ASCENDING
DESC = SortOrder.DESCENDING
BETW = MetricKind.BETWEENNESS
CLOSE = MetricKind.CLOSENESS
# the package's ``rerank`` attribute is the function, not the module
rerank_module = importlib.import_module("kgrerank.rerank")
PAGERANK = MetricKind.PAGERANK


def cfg(metric=BETW, order=ASC, top_n=100, mode=NeighborhoodMode.CLOSED_NEIGHBORHOOD):
    return RerankConfig(metric=metric, order=order, mode=mode, top_n=top_n)


class TestRecommendationList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            RecommendationList(user="u", items=(("a", 2.0), ("a", 1.0)))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RecommendationList(user="u", items=(("a", 1.0), ("b", 2.0)))

    def test_ties_allowed(self):
        lst = RecommendationList(user="u", items=(("a", 1.0), ("b", 1.0)))
        assert lst.item_ids() == ("a", "b")
        assert lst.top(1) == ("a",)

    def test_top_n_validated(self):
        with pytest.raises(ValueError, match="top_n"):
            RerankConfig(metric=BETW, top_n=0)


class TestRerankOnFixture:
    def test_ascending_betweenness_prefers_diverse_candidates(
        self, dvs_catalog, dvs_profile, dvs_recs
    ):
        ranked = rerank(dvs_catalog, dvs_profile, dvs_recs, cfg())
        assert [r.item for r in ranked] == ["d2", "d1", "s1", "s2"]
        for r in ranked:
            assert r.metric_value.value == pytest.approx(
                DVS_EXPECTED[r.item], abs=1e-9
            )

    def test_delta_is_update_minus_baseline(self, dvs_catalog, dvs_profile, dvs_recs):
        baseline = compute_metric(dvs_profile.graph, BETW).value
        for r in rerank(dvs_catalog, dvs_profile, dvs_recs, cfg()):
            assert r.delta == pytest.approx(r.metric_value.value - baseline, abs=1e-12)

    def test_tie_break_prefers_higher_base_score(self, dvs_catalog, dvs_profile, dvs_recs):
        ranked = rerank(dvs_catalog, dvs_profile, dvs_recs, cfg())
        by_item = {r.item: r for r in ranked}
        # s1 and s2 tie on the metric; s1 carries the higher base score
        assert by_item["s1"].metric_value.value == by_item["s2"].metric_value.value
        assert by_item["s1"].new_rank < by_item["s2"].new_rank

    def test_ranks_and_original_positions(self, dvs_catalog, dvs_profile, dvs_recs):
        ranked = rerank(dvs_catalog, dvs_profile, dvs_recs, cfg())
        assert [r.new_rank for r in ranked] == [1, 2, 3, 4]
        originals = {r.item: r.original_rank for r in ranked}
        assert originals == {"s1": 1, "s2": 2, "d1": 3, "d2": 4}

    def test_truncation(self, dvs_catalog, dvs_profile, dvs_recs):
        ranked = rerank(dvs_catalog, dvs_profile, dvs_recs, cfg(top_n=2))
        assert [r.item for r in ranked] == ["d2", "d1"]
        assert [r.new_rank for r in ranked] == [1, 2]

    def test_empty_list(self, dvs_catalog, dvs_profile):
        empty = RecommendationList(user="u1", items=())
        assert rerank(dvs_catalog, dvs_profile, empty, cfg()) == []

    def test_single_item_is_rank_one(self, dvs_catalog, dvs_profile):
        one = RecommendationList(user="u1", items=(("s1", 1.0),))
        for kind in (BETW, MetricKind.NODE_COUNT, MetricKind.PAGERANK):
            ranked = rerank(dvs_catalog, dvs_profile, one, cfg(metric=kind))
            assert len(ranked) == 1
            assert ranked[0].item == "s1"
            assert ranked[0].new_rank == 1

    def test_node_count_ascending_prefers_contained_neighborhoods(self, dvs_catalog):
        # s1's whole closed neighborhood is already present once s1 is in the
        # history; d1 brings three new nodes
        sg = induce_profile_subgraph(dvs_catalog, {"t1", "t2", "s1"}, user="u")
        recs = RecommendationList(user="u", items=(("d1", 0.9), ("s2", 0.1)))
        ranked = rerank(dvs_catalog, sg, recs, cfg(metric=MetricKind.NODE_COUNT))
        assert [r.item for r in ranked] == ["s2", "d1"]

    def test_invalid_candidate_named_in_error(self, dvs_catalog, dvs_profile):
        recs = RecommendationList(user="u1", items=(("g1", 1.0),))
        with pytest.raises(RerankError, match="g1"):
            rerank(dvs_catalog, dvs_profile, recs, cfg())

    def test_input_subgraph_unchanged(self, dvs_catalog, dvs_profile, dvs_recs):
        before = dvs_profile.graph.structural_signature()
        rerank(dvs_catalog, dvs_profile, dvs_recs, cfg())
        assert dvs_profile.graph.structural_signature() == before


class TestRerankProperties:
    @pytest.mark.parametrize("kind", sorted(MetricKind, key=lambda k: k.value),
                             ids=lambda k: k.value)
    def test_evaluation_equals_materialized(self, kind):
        rng = random.Random(31)
        for _ in range(8):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            ranked = rerank(catalog, sg, recs, cfg(metric=kind))
            expected = {
                item: compute_metric(extend_subgraph(sg, catalog, item).graph, kind)
                for item in recs.item_ids()
            }
            for r in ranked:
                assert r.metric_value == expected[r.item]
            scores = dict(recs.items)
            assert [r.item for r in ranked] == sorted(
                expected, key=lambda i: (expected[i].value, -scores[i], i)
            )

    def test_order_by_update_equals_order_by_delta(self):
        rng = random.Random(32)
        for _ in range(15):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            ranked = rerank(catalog, sg, recs, cfg())
            by_value = sorted(ranked, key=lambda r: (r.metric_value.value, -dict(recs.items)[r.item], r.item))
            by_delta = sorted(ranked, key=lambda r: (r.delta, -dict(recs.items)[r.item], r.item))
            assert [r.item for r in by_value] == [r.item for r in by_delta]

    def test_output_is_permutation_of_input(self):
        rng = random.Random(33)
        for _ in range(15):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            ranked = rerank(catalog, sg, recs, cfg())
            assert sorted(r.item for r in ranked) == sorted(recs.item_ids())
            assert sorted(r.new_rank for r in ranked) == list(
                range(1, len(recs) + 1)
            )

    def test_reversing_order_reverses_up_to_ties(self):
        rng = random.Random(34)
        for _ in range(15):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            up = rerank(catalog, sg, recs, cfg(order=ASC))
            down = rerank(catalog, sg, recs, cfg(order=DESC))
            assert [r.metric_value.value for r in down] == sorted(
                (r.metric_value.value for r in up), reverse=True
            )

    def test_processing_order_does_not_affect_metric_values(self):
        # equal base scores admit any permutation of the same list; the
        # per-candidate evaluations must come out bitwise identical
        rng = random.Random(35)
        for _ in range(10):
            catalog, history, recs = random_catalog_with_profile(
                rng, equal_scores=True
            )
            sg = induce_profile_subgraph(catalog, history, user="u")
            reference = {
                e.item: e.metric_value.value
                for e in evaluate_candidates(catalog, sg, recs, BETW)
            }
            items = list(recs.items)
            rng.shuffle(items)
            shuffled = RecommendationList(user="u", items=tuple(items))
            permuted = {
                e.item: e.metric_value.value
                for e in evaluate_candidates(catalog, sg, shuffled, BETW)
            }
            assert reference == permuted
            # the final orderings agree as well (ties resolve on item ids)
            a = rerank(catalog, sg, recs, cfg())
            b = rerank(catalog, sg, shuffled, cfg())
            assert [r.item for r in a] == [r.item for r in b]

    def test_candidates_evaluated_in_isolation(self, dvs_catalog, dvs_profile, dvs_recs):
        full = {
            r.item: r.metric_value.value
            for r in rerank(dvs_catalog, dvs_profile, dvs_recs, cfg())
        }
        for item, score in dvs_recs.items:
            alone = rerank(
                dvs_catalog,
                dvs_profile,
                RecommendationList(user="u1", items=((item, score),)),
                cfg(),
            )
            assert alone[0].metric_value.value == full[item]


class TestBaselineMetric:
    def test_empty_history_node_count(self, dvs_catalog):
        sg = induce_profile_subgraph(dvs_catalog, set(), user="u")
        assert baseline_metric(sg, MetricKind.NODE_COUNT).value == 0.0

    def test_profile_node_count(self, dvs_profile):
        assert baseline_metric(dvs_profile, MetricKind.NODE_COUNT).value == 4.0

    def test_cache_is_used(self, dvs_profile):
        cache = {}
        first = baseline_metric(dvs_profile, BETW, cache)
        assert cache[(dvs_profile.user, BETW)] is first
        # a cache hit returns the stored object untouched
        again = baseline_metric(dvs_profile, BETW, cache)
        assert again is first


@st.composite
def profile_cases(draw):
    """A random catalog, profile, candidate list, mode and metric list.

    Edges join any two nodes, tracks included, either way round; self-loops
    and parallel edges (another predicate, or reversed) occur. Candidates may
    already be in the profile (history items or their neighbours), and a new
    candidate's closed neighbourhood may add several nodes with edges among
    them. Nodes are inserted in a drawn order, so profile rows and source
    blocks fall anywhere.
    """
    n_tracks = draw(st.integers(1, 10))
    n_entities = draw(st.integers(0, 30))
    tracks = [f"t{i}" for i in range(n_tracks)]
    names = tracks + [f"e{i}" for i in range(n_entities)]
    catalog = CatalogGraph()
    for name in draw(st.permutations(names)):
        catalog.add_node(Node(name, "track" if name[0] == "t" else "entity"))
    ends = st.sampled_from(names)
    for source, predicate, target in draw(
        st.lists(st.tuples(ends, st.sampled_from(["rel", "alt"]), ends),
                 max_size=3 * len(names))
    ):
        catalog.add_edge(source, predicate, target)
    history = draw(st.sets(st.sampled_from(tracks)))
    sg = induce_profile_subgraph(catalog, history, user="u")
    candidates = draw(st.lists(st.sampled_from(tracks), min_size=1, unique=True))
    recs = RecommendationList(user="u", items=tuple((c, 1.0) for c in candidates))
    mode = draw(st.sampled_from(list(NeighborhoodMode)))
    extra = draw(st.lists(st.sampled_from([PAGERANK, MetricKind.NODE_COUNT]), unique=True))
    kinds = draw(st.permutations([BETW, CLOSE, *extra]))
    return catalog, sg, recs, mode, kinds


class TestSharedEvaluation:
    """One loop over candidates serves every metric; betweenness and closeness
    share one BFS pass over the profile's adjacency, compiled once."""

    @given(profile_cases())
    @settings(max_examples=150, deadline=None)
    def test_multi_metric_equals_materialized(self, case):
        catalog, sg, recs, mode, kinds = case
        evaluations = evaluate_metrics(catalog, sg, recs, kinds, mode)
        assert list(evaluations) == kinds
        for kind in kinds:
            assert [e.item for e in evaluations[kind]] == list(recs.item_ids())
            for e in evaluations[kind]:
                extended = extend_subgraph(sg, catalog, e.item, mode).graph
                assert e.metric_value == compute_metric(extended, kind)

    def test_one_pass_per_candidate(self, monkeypatch, dvs_catalog, dvs_profile, dvs_recs):
        sizes = []
        real = metrics_module._source_blocks

        def counting(adj):
            sizes.append(adj.shape[0])
            return real(adj)

        monkeypatch.setattr(metrics_module, "_source_blocks", counting)
        evaluate_metrics(dvs_catalog, dvs_profile, dvs_recs, [BETW, PAGERANK, CLOSE])
        assert len(sizes) == len(dvs_recs)
        sizes.clear()
        evaluate_metrics(
            dvs_catalog, dvs_profile, dvs_recs,
            [PAGERANK, MetricKind.IN_DEGREE, MetricKind.NODE_COUNT],
        )
        assert sizes == []

    def test_duplicate_metrics_evaluated_once(self, dvs_catalog, dvs_profile, dvs_recs):
        evaluations = evaluate_metrics(dvs_catalog, dvs_profile, dvs_recs, [BETW, BETW])
        assert list(evaluations) == [BETW]
        assert evaluations[BETW] == evaluate_candidates(
            dvs_catalog, dvs_profile, dvs_recs, BETW
        )

    def test_unknown_candidate_names_user_item_and_metrics(self, dvs_catalog, dvs_profile):
        recs = RecommendationList(user="u1", items=(("s1", 1.0), ("nope", 0.5)))
        with pytest.raises(
            RerankError,
            match="betweenness, closeness evaluation failed for user 'u1', item 'nope'",
        ):
            evaluate_metrics(dvs_catalog, dvs_profile, recs, [BETW, CLOSE])

    def test_failing_metric_names_user_item_and_metric(
        self, monkeypatch, dvs_catalog, dvs_profile, dvs_recs
    ):
        real = rerank_module.compute_metric

        def failing(view, kind):
            if kind is PAGERANK and "d1" in view:
                raise ConvergenceError("injected failure", {})
            return real(view, kind)

        monkeypatch.setattr(rerank_module, "compute_metric", failing)
        with pytest.raises(
            RerankError,
            match="pagerank evaluation failed for user 'u1', item 'd1': injected failure",
        ) as info:
            evaluate_metrics(dvs_catalog, dvs_profile, dvs_recs, [BETW, PAGERANK])
        assert isinstance(info.value.__cause__, ConvergenceError)

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    BaselineRecommender,
    CatalogGraph,
    ConvergenceError,
    MetricKind,
    NeighborhoodMode,
    RecommendationList,
    RerankError,
    SortOrder,
    SyntheticConfig,
    Triple,
    build_catalog,
    compute_metric,
    evaluate_candidates,
    induce_profile_subgraph,
    make_synthetic_dataset,
    rerank,
    scale_ratings,
)
from kgrerank import metrics as metrics_module
from kgrerank.graph import Node
from kgrerank.rerank import evaluate_metrics

from conftest import (
    A,
    DVS_EXPECTED,
    DVS_TRIPLES,
    T,
    core_passes,
    record_group_stacks,
    signature,
)
from oracles import (
    assert_matches_reference,
    materialized_extension,
    random_catalog_with_profile,
    reference_rerank,
    reference_values,
)

ASC = SortOrder.ASCENDING
DESC = SortOrder.DESCENDING
BETW = MetricKind.BETWEENNESS
CLOSE = MetricKind.CLOSENESS
PAGERANK = MetricKind.PAGERANK


def ranked(catalog, sg, recs, metric=BETW, order=ASC, **kwargs):
    """The one list of a single-user, single-metric, single-order rerank call."""
    (lists,) = rerank(catalog, [(sg, recs)], [metric], [order], **kwargs)
    return lists[metric, order]


class TestRecommendationList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            RecommendationList(user="u", items=(("a", 2.0), ("a", 1.0)))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RecommendationList(user="u", items=(("a", 1.0), ("b", 2.0)))

    @pytest.mark.parametrize("score", [float("nan"), "nan"])
    def test_rejects_nan_score_naming_the_item(self, score):
        with pytest.raises(ValueError, match="score of item 'b' is not a number"):
            RecommendationList(
                user="u", items=(("a", 0.2), ("b", score), ("c", 0.9))
            )

    def test_ties_allowed(self):
        lst = RecommendationList(user="u", items=(("a", 1.0), ("b", 1.0)))
        assert lst.item_ids() == ("a", "b")
        assert lst.top(1) == ("a",)

    def test_top_n_validated(self, dvs_catalog, dvs_profile, dvs_recs):
        with pytest.raises(ValueError, match="top_n"):
            rerank(dvs_catalog, [(dvs_profile, dvs_recs)], [BETW], [ASC], top_n=0)


class TestReferenceRerank:
    """``rerank`` against the paper's method on the brute-force oracles."""

    @given(st.randoms(use_true_random=False), st.sampled_from(list(NeighborhoodMode)))
    @settings(max_examples=40, deadline=None)
    def test_every_metric_and_order_equals_the_reference(self, rng, mode):
        catalog, history, recs = random_catalog_with_profile(
            rng,
            n_tracks=rng.randint(2, 14),
            n_artists=rng.randint(1, 5),
            n_genres=rng.randint(1, 4),
            equal_scores=rng.random() < 0.3,
            entity_links=rng.choice([0.0, 0.3]),
        )
        sg = induce_profile_subgraph(catalog, history, user="u")
        top_n = rng.randint(1, len(recs))
        kinds = list(MetricKind)
        (result,) = rerank(catalog, [(sg, recs)], kinds, [ASC, DESC], mode, top_n)
        for kind in kinds:
            values = reference_values(catalog, history, recs, kind, mode)
            for order in (ASC, DESC):
                expected = reference_rerank(catalog, history, recs, kind, order, mode, top_n)
                got = [(e.item, e.metric_value.value, e.base_score) for e in result[kind, order]]
                assert_matches_reference(got, expected, values, kind)


class TestRerankOnFixture:
    def test_ascending_betweenness_prefers_diverse_candidates(
        self, dvs_catalog, dvs_profile, dvs_recs
    ):
        result = ranked(dvs_catalog, dvs_profile, dvs_recs)
        assert [e.item for e in result] == ["d2", "d1", "s1", "s2"]
        for e in result:
            assert e.metric_value.value == pytest.approx(
                DVS_EXPECTED[e.item], abs=1e-9
            )

    def test_tie_break_prefers_higher_base_score(self, dvs_catalog, dvs_profile, dvs_recs):
        result = ranked(dvs_catalog, dvs_profile, dvs_recs)
        by_item = {e.item: e for e in result}
        # s1 and s2 tie on the metric; s1 carries the higher base score
        assert by_item["s1"].metric_value.value == by_item["s2"].metric_value.value
        assert result.index(by_item["s1"]) < result.index(by_item["s2"])

    def test_ranks_and_original_positions(self, dvs_catalog, dvs_profile, dvs_recs):
        result = ranked(dvs_catalog, dvs_profile, dvs_recs)
        originals = {e.item: e.original_rank for e in result}
        assert originals == {"s1": 1, "s2": 2, "d1": 3, "d2": 4}

    def test_truncation(self, dvs_catalog, dvs_profile, dvs_recs):
        result = ranked(dvs_catalog, dvs_profile, dvs_recs, top_n=2)
        assert [e.item for e in result] == ["d2", "d1"]

    def test_default_keeps_the_first_hundred(self):
        # 101 more tracks by a1: each adds one node, so all tie, and the
        # descending base score orders them
        extra = [f"x{i:03d}" for i in range(101)]
        catalog = build_catalog(DVS_TRIPLES + [Triple(x, "maker", "a1", T, A) for x in extra])
        profile = induce_profile_subgraph(catalog, {"t1", "t2"}, user="u1")
        recs = RecommendationList(
            user="u1", items=tuple((x, 101.0 - i) for i, x in enumerate(extra))
        )
        result = ranked(catalog, profile, recs, MetricKind.NODE_COUNT)
        assert [e.item for e in result] == extra[:100]

    def test_empty_list(self, dvs_catalog, dvs_profile):
        empty = RecommendationList(user="u1", items=())
        assert ranked(dvs_catalog, dvs_profile, empty) == []

    def test_single_item_is_rank_one(self, dvs_catalog, dvs_profile):
        one = RecommendationList(user="u1", items=(("s1", 1.0),))
        for kind in (BETW, MetricKind.NODE_COUNT, MetricKind.PAGERANK):
            assert [e.item for e in ranked(dvs_catalog, dvs_profile, one, kind)] == ["s1"]

    def test_node_count_ascending_prefers_contained_neighborhoods(self, dvs_catalog):
        # s1's whole closed neighborhood is already present once s1 is in the
        # history; d1 brings three new nodes
        sg = induce_profile_subgraph(dvs_catalog, {"t1", "t2", "s1"}, user="u")
        recs = RecommendationList(user="u", items=(("d1", 0.9), ("s2", 0.1)))
        result = ranked(dvs_catalog, sg, recs, MetricKind.NODE_COUNT)
        assert [e.item for e in result] == ["s2", "d1"]

    def test_invalid_candidate_named_in_error(self, dvs_catalog, dvs_profile):
        recs = RecommendationList(user="u1", items=(("g1", 1.0),))
        with pytest.raises(RerankError, match="g1"):
            ranked(dvs_catalog, dvs_profile, recs)

    @pytest.mark.parametrize("mode", list(NeighborhoodMode), ids=lambda m: m.value)
    def test_input_subgraph_unchanged(self, dvs_catalog, dvs_profile, dvs_recs, mode):
        before = signature(dvs_profile.graph)
        ranked(dvs_catalog, dvs_profile, dvs_recs, mode=mode)
        assert signature(dvs_profile.graph) == before


ALL_KINDS = sorted(MetricKind, key=lambda k: k.value)


@pytest.fixture(scope="module", params=list(NeighborhoodMode), ids=lambda m: m.value)
def multi_metric_runs(request):
    """One all-metrics, both-orders rerank call per random profile, in one mode."""
    mode = request.param
    rng = random.Random(31)
    runs = []
    for _ in range(8):
        catalog, history, recs = random_catalog_with_profile(rng)
        sg = induce_profile_subgraph(catalog, history, user="u")
        (result,) = rerank(catalog, [(sg, recs)], ALL_KINDS, [ASC, DESC], mode=mode)
        runs.append((catalog, sg, recs, result))
    return mode, runs


class TestRerankProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_evaluation_equals_materialized(self, multi_metric_runs, kind):
        mode, runs = multi_metric_runs
        closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
        for catalog, sg, recs, result in runs:
            scores = dict(recs.items)
            expected = {
                item: compute_metric(materialized_extension(sg.graph, catalog, item, closed), kind)
                for item in recs.item_ids()
            }
            for order, sign in ((ASC, 1), (DESC, -1)):
                listed = result[kind, order]
                for e in listed:
                    assert e.metric_value == expected[e.item]
                assert [e.item for e in listed] == sorted(
                    expected, key=lambda i: (sign * expected[i].value, -scores[i], i)
                )

    def test_output_is_permutation_of_input(self):
        rng = random.Random(33)
        for _ in range(15):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            result = ranked(catalog, sg, recs)
            assert sorted(e.item for e in result) == sorted(recs.item_ids())

    def test_reversing_order_reverses_up_to_ties(self):
        rng = random.Random(34)
        for _ in range(15):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history, user="u")
            (result,) = rerank(catalog, [(sg, recs)], [BETW], [ASC, DESC])
            up, down = result[BETW, ASC], result[BETW, DESC]
            assert [e.metric_value.value for e in down] == sorted(
                (e.metric_value.value for e in up), reverse=True
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
            a = ranked(catalog, sg, recs)
            b = ranked(catalog, sg, shuffled)
            assert [e.item for e in a] == [e.item for e in b]

    def test_candidates_evaluated_in_isolation(self, dvs_catalog, dvs_profile, dvs_recs):
        full = {
            e.item: e.metric_value.value
            for e in ranked(dvs_catalog, dvs_profile, dvs_recs)
        }
        for item, score in dvs_recs.items:
            alone = ranked(
                dvs_catalog,
                dvs_profile,
                RecommendationList(user="u1", items=((item, score),)),
            )
            assert alone[0].metric_value.value == full[item]


NON_PATH_KINDS = sorted(set(MetricKind) - {BETW, CLOSE}, key=lambda k: k.value)


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
    extra = draw(st.lists(st.sampled_from(NON_PATH_KINDS), unique=True))
    kinds = draw(st.permutations([BETW, CLOSE, *extra]))
    return catalog, sg, recs, mode, kinds


class TestSharedEvaluation:
    """One loop over candidates serves every metric; betweenness and closeness
    share one BFS pass over the profile's adjacency, compiled once."""

    @given(profile_cases())
    @settings(max_examples=150, deadline=None)
    def test_multi_metric_equals_materialized(self, case):
        catalog, sg, recs, mode, kinds = case
        closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
        (evaluations,) = evaluate_metrics(catalog, [(sg, recs)], kinds, mode)
        assert list(evaluations) == kinds
        for kind in kinds:
            assert [e.item for e in evaluations[kind]] == list(recs.item_ids())
            for e in evaluations[kind]:
                extended = materialized_extension(sg.graph, catalog, e.item, closed)
                assert e.metric_value == compute_metric(extended, kind)

    @given(profile_cases())
    @settings(max_examples=100, deadline=None)
    def test_value_does_not_depend_on_its_batch(self, case):
        catalog, sg, recs, mode, kinds = case
        (together,) = evaluate_metrics(catalog, [(sg, recs)], kinds, mode)
        for position, entry in enumerate(recs.items):
            (alone,) = evaluate_metrics(
                catalog, [(sg, RecommendationList(user="u", items=(entry,)))], kinds, mode
            )
            for kind in kinds:
                assert alone[kind][0].metric_value == together[kind][position].metric_value

    def test_one_pass_per_distinct_extension(
        self, bfs_calls, dvs_catalog, dvs_profile, dvs_recs
    ):
        evaluate_metrics(dvs_catalog, [(dvs_profile, dvs_recs)], [BETW, PAGERANK, CLOSE])
        # counted on the materialized extensions: node count and each
        # directed (source, target) index pair with its multiplicity, in
        # first-seen order
        shapes = {}
        for item in dvs_recs.item_ids():
            g = materialized_extension(dvs_profile.graph, dvs_catalog, item, closed=True)
            index = {v: i for i, v in enumerate(g.node_ids())}
            pairs = Counter((index[s], index[t]) for s, _, t in g.edges())
            shapes.setdefault((len(index), frozenset(pairs.items())), g)
        # s1 and s2 attach the same way, so the fixture shares a shape
        assert len(shapes) < len(dvs_recs)
        # one BFS per distinct extension, from each node of its 2-core only:
        # the profile's 4-cycle t1-a1-t2-g1, which d1 and d2 grow
        assert bfs_calls == core_passes(shapes.values())
        assert [size for size, _ in bfs_calls] == [4, 6, 6]
        bfs_calls.clear()
        evaluate_metrics(
            dvs_catalog, [(dvs_profile, dvs_recs)],
            [PAGERANK, MetricKind.IN_DEGREE, MetricKind.NODE_COUNT],
        )
        assert bfs_calls == []

    def test_duplicate_metrics_evaluated_once(self, dvs_catalog, dvs_profile, dvs_recs):
        (evaluations,) = evaluate_metrics(dvs_catalog, [(dvs_profile, dvs_recs)], [BETW, BETW])
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
            evaluate_metrics(dvs_catalog, [(dvs_profile, recs)], [BETW, CLOSE])

    @staticmethod
    def _fail_on_d1(monkeypatch):
        """Make the batched PageRank kernel raise for the row that holds d1."""
        real = metrics_module._pagerank_batch

        def failing(stack, *args, **kwargs):
            for row in range(len(stack)):
                if "d1" in stack.nodes(row):
                    raise ConvergenceError("injected failure", {}, row)
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(metrics_module, "_pagerank_batch", failing)

    def test_failing_metric_names_user_item_and_metric(
        self, monkeypatch, dvs_catalog, dvs_profile, dvs_recs
    ):
        self._fail_on_d1(monkeypatch)
        with pytest.raises(
            RerankError,
            match="pagerank evaluation failed for user 'u1', item 'd1': injected failure",
        ) as info:
            evaluate_metrics(dvs_catalog, [(dvs_profile, dvs_recs)], [BETW, PAGERANK])
        assert isinstance(info.value.__cause__, ConvergenceError)

    @pytest.mark.parametrize("position", [0, 3], ids=["first", "last"])
    def test_failing_row_is_named_wherever_it_sits(
        self, monkeypatch, dvs_catalog, dvs_profile, dvs_recs, position
    ):
        # dvs_recs holds d1 third; move it to the front or the back
        items = [entry for entry in dvs_recs.items if entry[0] != "d1"]
        items.insert(position, ("d1", 0.0))
        recs = RecommendationList(
            user="u1", items=tuple((item, 1.0 - i / 10) for i, (item, _) in enumerate(items))
        )
        self._fail_on_d1(monkeypatch)
        with pytest.raises(RerankError, match="item 'd1': injected failure"):
            evaluate_metrics(dvs_catalog, [(dvs_profile, recs)], [BETW, PAGERANK])

    # s1 and s2 attach one shape, the only one with five nodes; s2 is listed
    # first, so its row is the one the shape's kernels run on
    SHARED_SHAPE_RECS = RecommendationList(
        user="u1", items=(("d1", 0.9), ("s2", 0.8), ("d2", 0.7), ("s1", 0.6))
    )

    def test_pagerank_failure_on_a_repeated_shape_names_its_first_item(
        self, monkeypatch, dvs_catalog, dvs_profile
    ):
        real = metrics_module._pagerank_batch

        def failing(stack, *args, **kwargs):
            ranks = real(stack, *args, **kwargs)
            row = stack.sizes.tolist().index(5)
            raise ConvergenceError("injected failure", stack.by_node(row, ranks[row]), row)

        monkeypatch.setattr(metrics_module, "_pagerank_batch", failing)
        with pytest.raises(
            RerankError,
            match="^pagerank evaluation failed for user 'u1', item 's2': injected failure$",
        ) as info:
            evaluate_metrics(dvs_catalog, [(dvs_profile, self.SHARED_SHAPE_RECS)], [PAGERANK])
        assert "s2" in info.value.__cause__.last_scores

    def test_path_failure_on_a_repeated_shape_names_its_first_item(
        self, monkeypatch, dvs_catalog, dvs_profile
    ):
        real = metrics_module._path_scores
        # a row's first columns are the profile's nodes, in its order
        a1 = list(dvs_profile.graph.node_ids()).index("a1")

        def failing(adj, kinds):
            scores = real(adj, kinds)
            if adj.shape[0] == 5:
                scores[BETW][a1] = float("nan")
            return scores

        monkeypatch.setattr(metrics_module, "_path_scores", failing)
        with pytest.raises(
            RerankError,
            match="^betweenness, closeness evaluation failed for user 'u1', item 's2': "
            "centrality score of 'a1' is not finite: nan$",
        ):
            evaluate_metrics(
                dvs_catalog, [(dvs_profile, self.SHARED_SHAPE_RECS)], [BETW, CLOSE]
            )

    def test_failure_of_the_whole_batch_names_user_and_metric(
        self, monkeypatch, dvs_catalog, dvs_profile, dvs_recs
    ):
        def failing(stack, *args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr(metrics_module, "_pagerank_batch", failing)
        with pytest.raises(
            RerankError, match="^pagerank evaluation failed for user 'u1': no room$"
        ):
            evaluate_metrics(dvs_catalog, [(dvs_profile, dvs_recs)], [PAGERANK])


# ``kgrerank.rerank`` is also the name of the exported function
rerank_module = sys.modules["kgrerank.rerank"]


def _relabelled(triples, prefix):
    return [
        Triple(prefix + t.source, t.predicate, prefix + t.target, t.source_kind, t.target_kind)
        for t in triples
    ]


def _dvs_users():
    """Users of the fixture catalog and of a relabelled copy of it, side by
    side in one catalog. u1 and u2 hold the same profile in the two copies,
    so their extensions are the same graphs under other labels; u4's list is
    empty."""
    catalog = build_catalog(DVS_TRIPLES + _relabelled(DVS_TRIPLES, "z"))
    items = ("s1", "s2", "d1", "d2")
    lists = {
        "u1": ({"t1", "t2"}, [(item, 0.9 - i / 10) for i, item in enumerate(items)]),
        "u2": ({"zt1", "zt2"}, [("z" + item, 0.9 - i / 10) for i, item in enumerate(items)]),
        "u3": ({"t1"}, [("t2", 0.5), ("d1", 0.4)]),
        "u4": ({"d1"}, []),
        "u5": ({"s1", "zd2"}, [("zs1", 1.0), ("t2", 0.9), ("zd1", 0.9), ("d2", 0.1)]),
    }
    return catalog, [
        (
            induce_profile_subgraph(catalog, history, user=user),
            RecommendationList(user=user, items=tuple(recs)),
        )
        for user, (history, recs) in lists.items()
    ]


def _synthetic_users():
    """Four users of the synthetic dataset with their baseline lists."""
    data = make_synthetic_dataset(
        SyntheticConfig(n_tracks=40, n_users=4, history_size=8, seed=13)
    )
    catalog = build_catalog(data.triples)
    model = BaselineRecommender().fit(scale_ratings(data.interactions))
    histories: dict[str, set[str]] = {}
    for interaction in data.interactions:
        histories.setdefault(interaction.user, set()).add(interaction.item)
    return catalog, [
        (induce_profile_subgraph(catalog, histories[user], user=user), model.recommend(user, 15))
        for user in sorted(histories)
    ]


GROUP_BOUNDS = [1, rerank_module._GROUP_CELLS, 2**40]


class TestUserGroups:
    """Users are scored in groups, one batch per group; no value depends on
    how they are grouped."""

    @pytest.mark.parametrize("cells", GROUP_BOUNDS, ids=["one", "default", "all"])
    @pytest.mark.parametrize("mode", list(NeighborhoodMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("users", [_dvs_users, _synthetic_users], ids=["dvs", "synthetic"])
    def test_grouping_changes_no_value(self, monkeypatch, users, mode, cells):
        catalog, pairs = users()
        kinds = list(MetricKind)
        alone = [evaluate_metrics(catalog, [pair], kinds, mode)[0] for pair in pairs]
        monkeypatch.setattr(rerank_module, "_GROUP_CELLS", cells)
        stacks = record_group_stacks(monkeypatch)
        grouped = evaluate_metrics(catalog, pairs, kinds, mode)
        assert grouped == alone
        # a bound of one cell leaves every user alone; these users fit in one
        # group under the default bound
        assert len(stacks) == (len(pairs) if cells == 1 else 1)

    def test_isomorphic_extensions_of_two_users_share_one_kernel_run(
        self, monkeypatch, bfs_calls
    ):
        catalog, pairs = _dvs_users()
        evaluate_metrics(catalog, pairs[:1], [BETW, PAGERANK])
        u1_alone = list(bfs_calls)
        bfs_calls.clear()
        stacks = record_group_stacks(monkeypatch)
        grouped = evaluate_metrics(catalog, pairs[:2], [BETW, PAGERANK])
        (stack,) = stacks
        _, group = stack.distinct
        # u2's four rows take the kernel runs of u1's, and no BFS is added
        assert group[4:] == group[:4]
        assert bfs_calls == u1_alone
        for kind in (BETW, PAGERANK):
            assert [e.metric_value.value for e in grouped[0][kind]] == [
                e.metric_value.value for e in grouped[1][kind]
            ]

    # the users' batches alone, (rows, widest row): u1 (4, 6), u2 (4, 6),
    # u3 (2, 5), u4 (0, 0) and u5 (4, 8)
    @pytest.mark.parametrize(
        "cells, shapes",
        [
            # u1 and u2 just fit, (4 + 4) x 6 = 48; so do u3, u4 and u5,
            # (2 + 0 + 4) x 8 = 48
            (48, [(8, 6), (6, 8)]),
            # one cell less: u2 starts a group that u3 and u4 join, 6 x 6;
            # u5 would make it 10 x 8
            (47, [(4, 6), (6, 6), (4, 8)]),
        ],
        ids=["fits", "one-over"],
    )
    def test_a_group_takes_users_while_its_cells_fit(self, monkeypatch, cells, shapes):
        catalog, pairs = _dvs_users()
        monkeypatch.setattr(rerank_module, "_GROUP_CELLS", cells)
        stacks = record_group_stacks(monkeypatch)
        evaluate_metrics(catalog, pairs, [MetricKind.NODE_COUNT])
        assert [stack.shape for stack in stacks] == shapes

    def test_failure_of_a_whole_group_names_its_users(self, monkeypatch):
        catalog, pairs = _dvs_users()

        def failing(stack, *args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr(metrics_module, "_pagerank_batch", failing)
        with pytest.raises(
            RerankError,
            match="^pagerank evaluation failed for users 'u1', 'u2', 'u3', 'u4', 'u5': "
            "no room$",
        ):
            evaluate_metrics(catalog, pairs, [PAGERANK])

    def test_no_user_gives_no_result(self, dvs_catalog):
        assert evaluate_metrics(dvs_catalog, [], list(MetricKind)) == []
        assert rerank(dvs_catalog, iter(()), [BETW], [ASC]) == []

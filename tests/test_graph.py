import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    CatalogGraph,
    EntityKind,
    GraphError,
    Multigraph,
    NeighborhoodMode,
    Node,
    Triple,
    build_catalog,
    export_graph,
    extend_subgraph,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)

from kgrerank.graph import _induced, added_nodes
from kgrerank.metrics import MetricKind, compile_graph, compute_metric, score_stack

from conftest import (
    assert_same_graph,
    catalog_layout,
    compiled_extensions,
    extension_batch,
    signature,
)
from oracles import (
    brute_extension,
    induced_profile,
    materialized_extension,
    random_catalog_with_profile,
)

CLOSED = NeighborhoodMode.CLOSED_NEIGHBORHOOD
EDGES = NeighborhoodMode.EDGES_TO_EXISTING


def triple(s, p, t, sk="track", tk="artist"):
    return Triple(s, p, t, sk, tk)


class TestBuildCatalog:
    def test_single_track_listing(self, track_catalog):
        assert track_catalog.num_nodes == 3
        assert track_catalog.num_edges == 2
        assert track_catalog.recommendable == {"t_4471632"}

    def test_empty_stream(self):
        catalog = build_catalog([])
        assert catalog.num_nodes == 0
        assert catalog.num_edges == 0
        assert catalog.recommendable == set()

    def test_duplicate_triple_collapses(self):
        # 10 triples, one duplicated: 11 distinct endpoints, 9 edges
        triples = [
            triple("x1", "p", "y1"),
            triple("x2", "p", "y1"),
            triple("x3", "p", "y2"),
            triple("x4", "p", "y2"),
            triple("x1", "q", "y3"),
            triple("x5", "p", "y3"),
            triple("x6", "p", "y4"),
            triple("x7", "p", "y4"),
            triple("x2", "q", "y4"),
            triple("x1", "p", "y1"),  # duplicate of the first
        ]
        catalog = build_catalog(triples)
        assert catalog.num_nodes == 11
        assert catalog.num_edges == 9

    def test_parallel_predicates_are_distinct_edges(self):
        catalog = build_catalog([triple("a", "p", "b"), triple("a", "q", "b")])
        assert catalog.num_edges == 2
        assert sorted(catalog.edges()) == [("a", "p", "b"), ("a", "q", "b")]

    @pytest.mark.parametrize(
        "bad, name",
        [
            (Triple("", "p", "d", "track", "artist"), "source"),
            (Triple("c", "", "d", "track", "artist"), "predicate"),
            (Triple("c", "p", "", "track", "artist"), "target"),
            (Triple("c", "p", "d", "", "artist"), "source_kind"),
            (Triple("c", "p", "d", "track", ""), "target_kind"),
            # the first missing field is named
            (Triple("c", "", "", "", ""), "predicate"),
        ],
    )
    def test_malformed_triple_reports_record(self, bad, name):
        with pytest.raises(GraphError) as info:
            build_catalog([triple("a", "p", "b"), bad])
        assert str(info.value) == f"triple #2: missing {name}"

    def test_kind_conflict_rejected(self):
        triples = [triple("a", "p", "b"), triple("b", "p", "c", sk="genre")]
        with pytest.raises(GraphError) as info:
            build_catalog(triples)
        assert str(info.value) == (
            "triple #2: node 'b' redeclared with kind 'genre', already 'artist'"
        )

    def test_kind_conflict_with_a_seed_node_rejected(self):
        with pytest.raises(GraphError) as info:
            build_catalog([triple("a", "p", "m")], nodes=[Node("m", EntityKind.MOVIE)])
        assert str(info.value) == (
            "triple #1: node 'm' redeclared with kind 'artist', already 'movie'"
        )

    def test_first_declaration_keeps_its_attributes(self):
        seed = Node("m", EntityKind.MOVIE, {"title": "Alpha"})
        catalog = build_catalog(
            [triple("p", "directs", "m", sk="person", tk="movie")], nodes=[seed]
        )
        assert catalog.node("m") is seed
        assert list(catalog.node_ids()) == ["m", "p"]

    def test_seed_nodes_survive_without_relations(self):
        catalog = build_catalog([], nodes=[Node("lonely", EntityKind.MOVIE)])
        assert "lonely" in catalog
        assert catalog.is_recommendable("lonely")


class TestInduceProfileSubgraph:
    def test_single_track_history(self, track_catalog):
        sg = induce_profile_subgraph(track_catalog, {"t_4471632"})
        assert set(sg.graph.node_ids()) == {"t_4471632", "disco", "15160"}
        assert sg.graph.num_edges == 2

    def test_empty_history(self, track_catalog):
        sg = induce_profile_subgraph(track_catalog, set())
        assert sg.graph.num_nodes == 0
        assert sg.graph.num_edges == 0
        assert sg.history == frozenset()

    def test_shared_artist_appears_once(self):
        catalog = build_catalog(
            [
                triple("t1", "maker", "a1"),
                triple("t1", "genre", "g1", tk="genre"),
                triple("t2", "maker", "a1"),
                triple("t2", "genre", "g2", tk="genre"),
            ]
        )
        sg = induce_profile_subgraph(catalog, {"t1", "t2"})
        assert set(sg.graph.node_ids()) == {"t1", "t2", "a1", "g1", "g2"}
        assert sg.graph.num_edges == 4  # sum of per-track edges

    def test_unknown_item_named_in_error(self, track_catalog):
        with pytest.raises(GraphError, match="t_missing"):
            induce_profile_subgraph(track_catalog, {"t_missing"})

    def test_error_names_the_user(self, track_catalog):
        with pytest.raises(
            GraphError, match="^user 'u7': history item 't_nope' not in catalog$"
        ):
            induce_profile_subgraph(track_catalog, {"t_nope"}, user="u7")

    def test_non_recommendable_item_rejected(self, track_catalog):
        with pytest.raises(GraphError, match="disco"):
            induce_profile_subgraph(track_catalog, {"disco"})

    def test_node_set_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(25):
            catalog, history, _ = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history)
            expected = set(history)
            for item in history:
                expected |= {
                    t for s, _, t in catalog.edges() if s == item
                } | {s for s, _, t in catalog.edges() if t == item}
            assert set(sg.graph.node_ids()) == expected

    def test_subgraph_edges_are_catalog_edges(self):
        rng = random.Random(5)
        for _ in range(10):
            catalog, history, _ = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history)
            catalog_edges = set(catalog.edges())
            assert set(sg.graph.edges()) <= catalog_edges


class TestClosedNeighborhood:
    """What a candidate adds in closed mode to an empty profile: itself, its
    neighbours and the edges among them."""

    def _extend_empty(self, catalog, item):
        empty = induce_profile_subgraph(catalog, [])
        return extend_subgraph(empty, catalog, item, CLOSED).graph

    def test_track_neighborhood(self, track_catalog):
        assert added_nodes((), track_catalog, "t_4471632", CLOSED) == [
            "15160",
            "disco",
            "t_4471632",
        ]
        graph = self._extend_empty(track_catalog, "t_4471632")
        assert set(graph.node_ids()) == {"t_4471632", "disco", "15160"}
        assert graph.num_edges == 2

    def test_isolated_node(self):
        catalog = build_catalog([], nodes=[Node("alone", EntityKind.TRACK)])
        assert added_nodes((), catalog, "alone", CLOSED) == ["alone"]
        graph = self._extend_empty(catalog, "alone")
        assert list(graph.node_ids()) == ["alone"]
        assert list(graph.edges()) == []

    def test_star_hub(self):
        triples = [triple("hub", "p", f"leaf{i}") for i in range(4)]
        catalog = build_catalog(triples)
        assert len(added_nodes((), catalog, "hub", CLOSED)) == 5
        graph = self._extend_empty(catalog, "hub")
        assert graph.num_nodes == 5
        assert graph.num_edges == 4

    def test_unknown_item(self, track_catalog):
        with pytest.raises(GraphError, match="nope"):
            added_nodes((), track_catalog, "nope", CLOSED)


class TestExtendSubgraph:
    def test_diverse_pair_adds_four_nodes_seven_edges(self, dvs_catalog, dvs_profile):
        step1 = extend_subgraph(dvs_profile, dvs_catalog, "d1", CLOSED)
        step2 = extend_subgraph(step1, dvs_catalog, "d2", CLOSED)
        assert step2.graph.num_nodes - dvs_profile.graph.num_nodes == 4
        assert step2.graph.num_edges - dvs_profile.graph.num_edges == 7

    def test_similar_pair_adds_two_nodes_two_edges(self, dvs_catalog, dvs_profile):
        step1 = extend_subgraph(dvs_profile, dvs_catalog, "s1", CLOSED)
        step2 = extend_subgraph(step1, dvs_catalog, "s2", CLOSED)
        assert step2.graph.num_nodes - dvs_profile.graph.num_nodes == 2
        assert step2.graph.num_edges - dvs_profile.graph.num_edges == 2

    def test_pair_extension_is_order_independent(self, dvs_catalog, dvs_profile):
        ab = extend_subgraph(
            extend_subgraph(dvs_profile, dvs_catalog, "d1"), dvs_catalog, "d2"
        )
        ba = extend_subgraph(
            extend_subgraph(dvs_profile, dvs_catalog, "d2"), dvs_catalog, "d1"
        )
        assert signature(ab.graph) == signature(ba.graph)

    def test_edges_to_existing_ignores_new_enrichers(self, dvs_catalog, dvs_profile):
        ext = extend_subgraph(dvs_profile, dvs_catalog, "d1", EDGES)
        # d1 connects to g1 (present) but e1 stays out
        assert ext.graph.num_nodes == dvs_profile.graph.num_nodes + 1
        assert ext.graph.num_edges == dvs_profile.graph.num_edges + 1
        assert "e1" not in ext.graph

    def test_edges_to_existing_isolated_candidate(self, track_catalog):
        catalog = build_catalog(
            [triple("t1", "maker", "a1"), triple("t9", "maker", "a9")]
        )
        sg = induce_profile_subgraph(catalog, {"t1"})
        ext = extend_subgraph(sg, catalog, "t9", EDGES)
        assert ext.graph.num_nodes == sg.graph.num_nodes + 1
        assert ext.graph.num_edges == sg.graph.num_edges

    def test_input_subgraph_never_mutated(self, dvs_catalog, dvs_profile):
        before = signature(dvs_profile.graph)
        for mode in (CLOSED, EDGES):
            for item in ("d1", "d2", "s1", "s2"):
                extend_subgraph(dvs_profile, dvs_catalog, item, mode)
        assert signature(dvs_profile.graph) == before

    def test_extension_is_idempotent_for_contained_item(self, dvs_catalog, dvs_profile):
        once = extend_subgraph(dvs_profile, dvs_catalog, "d1", CLOSED)
        twice = extend_subgraph(once, dvs_catalog, "d1", CLOSED)
        assert signature(once.graph) == signature(twice.graph)

    def test_contained_item_delta_is_empty_under_edges_mode(
        self, dvs_catalog, dvs_profile
    ):
        ext = extend_subgraph(dvs_profile, dvs_catalog, "s1", EDGES)
        assert added_nodes(ext.graph, dvs_catalog, "s1", EDGES) == []
        again = extend_subgraph(ext, dvs_catalog, "s1", EDGES)
        assert list(again.graph.node_ids()) == list(ext.graph.node_ids())
        assert signature(again.graph) == signature(ext.graph)

    def test_non_recommendable_item_rejected(self, dvs_catalog, dvs_profile):
        with pytest.raises(GraphError, match="g1"):
            extend_subgraph(dvs_profile, dvs_catalog, "g1")

    def test_closed_result_is_subgraph_of_catalog(self):
        rng = random.Random(9)
        for _ in range(20):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history)
            for item, _ in recs.items:
                ext = extend_subgraph(sg, catalog, item, CLOSED)
                assert set(ext.graph.edges()) <= set(catalog.edges())
                catalog_nodes = set(catalog.node_ids())
                assert set(ext.graph.node_ids()) <= catalog_nodes

    def test_edges_mode_node_count_increment(self):
        rng = random.Random(10)
        for _ in range(20):
            catalog, history, recs = random_catalog_with_profile(rng)
            sg = induce_profile_subgraph(catalog, history)
            for item, _ in recs.items:
                ext = extend_subgraph(sg, catalog, item, EDGES)
                grew = ext.graph.num_nodes - sg.graph.num_nodes
                assert grew in (0, 1)
                incident = sum(1 for edge in catalog.edges() if item in (edge[0], edge[2]))
                assert ext.graph.num_edges - sg.graph.num_edges <= incident


@st.composite
def catalog_subgraphs(draw, max_nodes=10):
    """A catalog with self-loops and parallel edges (same direction with
    another predicate, or reversed), a history of its tracks and distinct
    candidate tracks, inside or outside the profile the history induces.

    Nodes are inserted in a drawn order, so the catalog's order need not be
    the sorted one."""
    n = draw(st.integers(1, max_nodes))
    kinds = draw(st.lists(st.sampled_from(["track", "artist"]), min_size=n, max_size=n))
    kinds[0] = "track"
    catalog = CatalogGraph()
    for i in draw(st.permutations(range(n))):
        catalog.add_node(Node(f"n{i}", kinds[i]))
    ends = st.integers(0, n - 1)
    for a, predicate, b in draw(
        st.lists(st.tuples(ends, st.sampled_from(["rel", "alt"]), ends), max_size=3 * n)
    ):
        catalog.add_edge(f"n{a}", predicate, f"n{b}")
    tracks = st.sampled_from(sorted(catalog.recommendable))
    history = draw(st.sets(tracks))
    items = draw(st.lists(tracks, min_size=1, unique=True))
    return catalog, history, items


class TestExtensionDeltaOracle:
    @given(catalog_subgraphs(), st.sampled_from([CLOSED, EDGES]))
    @settings(max_examples=400, deadline=None)
    def test_delta_equals_brute_extension(self, drawn, mode):
        """What ``extend_subgraph`` adds to an induced profile, nodes and
        edges, is what the rule over the whole catalog edge list adds."""
        catalog, history, items = drawn
        sg = induce_profile_subgraph(catalog, history)
        for item in items:
            nodes, edges = brute_extension(sg.graph, catalog, item, closed=mode is CLOSED)
            assert added_nodes(sg.graph, catalog, item, mode) == nodes, item
            ext = extend_subgraph(sg, catalog, item, mode).graph
            assert list(ext.node_ids()) == [*sg.graph.node_ids(), *nodes], item
            assert sorted(set(ext.edges()) - set(sg.graph.edges())) == edges, item
            assert ext.num_edges == sg.graph.num_edges + len(edges), item


class TestInducedExtensions:
    @given(catalog_subgraphs(), st.sampled_from([CLOSED, EDGES]))
    @settings(max_examples=400, deadline=None)
    def test_compiled_extensions_equal_the_oracle(self, drawn, mode):
        """Every extension the re-ranker compiles equals the compiled
        extension that the oracles materialize."""
        catalog, history, items = drawn
        sg = induce_profile_subgraph(catalog, history, user="u")
        profile = induced_profile(catalog, history)
        graphs = compiled_extensions(catalog, sg, items, mode)
        assert len(graphs) == len(items)
        for item, got in zip(items, graphs):
            want = compile_graph(materialized_extension(profile, catalog, item, mode is CLOSED))
            assert_same_graph(got, want, item)


class TestCompileGraph:
    @given(catalog_subgraphs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_subgraph_on_nodes_equals_the_induced_graph_compiled(self, drawn, data):
        """``compile_graph(catalog, nodes, loopless)`` equals the compiled
        catalog subgraph that ``graph._induced`` builds on those nodes, in
        their order: some of the nodes in a drawn order, with and without
        nodes that keep no self-loop."""
        catalog, _, _ = drawn
        order = data.draw(st.permutations(sorted(catalog.node_ids())))
        nodes = order[: data.draw(st.integers(0, len(order)))]
        loopless = data.draw(st.sets(st.sampled_from(nodes))) if nodes else set()
        assert_same_graph(compile_graph(catalog, nodes), compile_graph(_induced(catalog, nodes)))
        got = compile_graph(catalog, nodes, loopless)
        assert_same_graph(got, compile_graph(_induced(catalog, nodes, loopless)))
        assert got.nodes(0) == nodes


class TestExtensionBatch:
    @given(catalog_subgraphs(), st.sampled_from([CLOSED, EDGES]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_and_metrics_equal_the_materialized_extensions(
        self, drawn, mode, data
    ):
        """Every row of the batch the re-ranker cuts from its union graph,
        and every metric on it, equals the materialized extension compiled
        and scored alone; among the candidates, one adds no node and two
        attach one shape under other labels."""
        catalog, history, items = drawn
        # two new tracks tied the same way to one node: a repeated shape
        anchor = data.draw(st.sampled_from(sorted(catalog.node_ids())))
        for twin in ("x0", "x1"):
            catalog.add_node(Node(twin, "track"))
            catalog.add_edge(twin, "rel", anchor)
        items = [*items, "x1", "x0"]
        # a history item and its neighbours are all in the profile
        unlisted = sorted(history - set(items))
        if unlisted:
            items.append(data.draw(st.sampled_from(unlisted)))
        sg = induce_profile_subgraph(catalog, history, user="u")
        profile = induced_profile(catalog, history)
        stack = extension_batch(catalog, sg, items, mode)
        assert len(stack) == len(items)
        _, group = stack.distinct
        assert group[items.index("x0")] == group[items.index("x1")]
        values = score_stack(stack, list(MetricKind))
        for row, item in enumerate(items):
            extended = materialized_extension(profile, catalog, item, mode is CLOSED)
            want = compile_graph(extended)
            assert_same_graph(stack.rows([row]), want, item)
            nodes = want.nodes(0)
            order = stack.label_order[row, : stack.sizes[row]].tolist()
            assert order == sorted(range(len(nodes)), key=nodes.__getitem__), item
            for kind in MetricKind:
                assert values[kind][row] == compute_metric(extended, kind), (item, kind)
        listed = [items.index(item) for item in history if item in items]
        assert all(stack.sizes[row] == profile.num_nodes for row in listed)
        assert bool(listed) == bool(history)


def _edge_pairs(g):
    """(source index, target index, multiplicity), counted from ``g.edges()``."""
    index = {v: i for i, v in enumerate(g.node_ids())}
    counts = {}
    for source, _, target in g.edges():
        pair = (index[source], index[target])
        counts[pair] = counts.get(pair, 0) + 1
    return sorted((i, j, m) for (i, j), m in counts.items())


class TestCompiledExtension:
    def test_extension_matches_compiled_materialized_extension(self):
        """Every extension the re-ranker compiles equals the compiled
        ``extend_subgraph`` result, on catalogs with parallel edges (same way
        round or reversed) and self-loops."""
        rng = random.Random(11)
        for _ in range(20):
            catalog, history, recs = random_catalog_with_profile(rng)
            for source, _, target in list(catalog.edges()):
                if rng.random() < 0.3:
                    catalog.add_edge(source, "alt", target)
                if rng.random() < 0.2:
                    catalog.add_edge(target, "rev", source)
                if rng.random() < 0.1:
                    catalog.add_edge(source, "self", source)
            sg = induce_profile_subgraph(catalog, history)
            items = [item for item, _ in recs.items]
            for mode in (CLOSED, EDGES):
                graphs = compiled_extensions(catalog, sg, items, mode)
                for item, extended in zip(items, graphs):
                    solid = extend_subgraph(sg, catalog, item, mode).graph
                    compiled = compile_graph(solid)
                    assert_same_graph(extended, compiled, item)
                    assert compiled.nodes(0) == list(solid.node_ids())
                    arrays = (compiled.row_src, compiled.row_dst, compiled.mult)
                    pairs = list(zip(*(a.tolist() for a in arrays)))
                    assert pairs == _edge_pairs(solid)
                    assert extended.edge_counts[0] == compiled.edge_counts[0] == solid.num_edges
                    assert (extended.adjacency(0) == compiled.adjacency(0)).all()


class TestPruneGraph:
    def test_path_endpoints_removed_single_pass(self):
        catalog = build_catalog(
            [
                triple("a", "p", "b"),
                triple("b", "p", "c", sk="artist", tk="genre"),
            ]
        )
        pruned = prune_graph(catalog)
        assert set(pruned.node_ids()) == {"b"}
        assert pruned.num_edges == 0

    def test_triangle_unchanged(self):
        catalog = build_catalog(
            [
                triple("a", "p", "b"),
                triple("b", "p", "c", sk="artist", tk="genre"),
                triple("c", "p", "a", sk="genre", tk="track"),
            ]
        )
        pruned = prune_graph(catalog)
        assert signature(pruned) == signature(catalog)

    def test_isolated_nodes_survive_degree_rule(self):
        catalog = build_catalog(
            [triple("a", "p", "b")], nodes=[Node("zero", EntityKind.TRACK)]
        )
        pruned = prune_graph(catalog)
        assert set(pruned.node_ids()) == {"zero"}

    def test_output_is_subgraph_of_input(self):
        rng = random.Random(12)
        for _ in range(15):
            catalog, _, _ = random_catalog_with_profile(rng)
            pruned = prune_graph(catalog)
            assert set(pruned.node_ids()) <= set(catalog.node_ids())
            assert set(pruned.edges()) <= set(catalog.edges())

    def test_recommendable_recomputed(self, dvs_catalog):
        pruned = prune_graph(dvs_catalog)
        assert pruned.recommendable <= dvs_catalog.recommendable


class TestExport:
    def test_round_trip_and_determinism(self, tmp_path, dvs_catalog):
        t1, n1 = tmp_path / "t1.tsv", tmp_path / "n1.tsv"
        t2, n2 = tmp_path / "t2.tsv", tmp_path / "n2.tsv"
        export_graph(dvs_catalog, t1, n1)
        export_graph(dvs_catalog, t2, n2)
        assert t1.read_bytes() == t2.read_bytes()
        assert n1.read_bytes() == n2.read_bytes()
        loaded = read_graph(t1, n1)
        assert signature(loaded) == signature(dvs_catalog)
        assert loaded.recommendable == dvs_catalog.recommendable

    def test_export_is_sorted(self, tmp_path, dvs_catalog):
        triples_path = tmp_path / "t.tsv"
        export_graph(dvs_catalog, triples_path, tmp_path / "n.tsv")
        rows = triples_path.read_text(encoding="utf-8").splitlines()
        assert rows == sorted(rows)

    def test_labels_round_trip(self, tmp_path):
        catalog = build_catalog(
            [], nodes=[Node("m1", EntityKind.MOVIE, {"title": "Alpha"})]
        )
        export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        loaded = read_graph(tmp_path / "t.tsv", tmp_path / "n.tsv")
        assert loaded.node("m1").attrs["label"] == "Alpha"


    @pytest.mark.parametrize("kind", ["track", "artist"])
    def test_repeated_node_names_file_and_lines(self, tmp_path, kind):
        nodes, triples = tmp_path / "n.tsv", tmp_path / "t.tsv"
        nodes.write_text(
            f"a\ttrack\t\nb\tgenre\t\na\t{kind}\tAlpha\n", encoding="utf-8"
        )
        triples.write_text("", encoding="utf-8")
        with pytest.raises(GraphError) as info:
            read_graph(triples, nodes)
        assert str(info.value) == f"{nodes}:3: repeated node 'a', first on line 1"

    def test_repeated_empty_node_id_skips_blank_lines(self, tmp_path):
        # a blank line splits to one empty field; it is no node with id ''
        nodes, triples = tmp_path / "n.tsv", tmp_path / "t.tsv"
        nodes.write_text("a\ttrack\t\n\n\tgenre\t\n\tgenre\tB\n", encoding="utf-8")
        triples.write_text("", encoding="utf-8")
        with pytest.raises(GraphError) as info:
            read_graph(triples, nodes)
        assert str(info.value) == f"{nodes}:4: repeated node '', first on line 3"

    def test_repeated_edge_names_file_and_lines(self, tmp_path):
        nodes, triples = tmp_path / "n.tsv", tmp_path / "t.tsv"
        nodes.write_text("a\ttrack\t\nb\tgenre\t\n", encoding="utf-8")
        triples.write_text(
            "a\tgenre\tb\na\tother\tb\n\na\tgenre\tb\n", encoding="utf-8"
        )
        with pytest.raises(GraphError) as info:
            read_graph(triples, nodes)
        assert str(info.value) == (
            f"{triples}:4: repeated edge ('a', 'genre', 'b'), first on line 1"
        )


    @pytest.mark.parametrize("which", ["nodes", "triples"])
    def test_wrong_field_count_names_file_and_line(self, tmp_path, which):
        nodes, triples = tmp_path / "n.tsv", tmp_path / "t.tsv"
        node_lines = "a\ttrack\t\n\nb\tgenre\t\n"
        edge_lines = "a\tgenre\tb\n\nb\tof\ta\n"
        if which == "nodes":
            node_lines += "c\tgenre\n"
        else:
            edge_lines += "a\tgenre\tb\textra\n"
        nodes.write_text(node_lines, encoding="utf-8")
        triples.write_text(edge_lines, encoding="utf-8")
        path = nodes if which == "nodes" else triples
        with pytest.raises(GraphError) as info:
            read_graph(triples, nodes)
        assert str(info.value) == f"{path}:4: expected 3 fields"

    @pytest.mark.parametrize(
        "edge, reason",
        [
            ("x\tgenre\tb", "edge source 'x' is not a node"),
            ("a\tgenre\tx", "edge target 'x' is not a node"),
            ("x\tgenre\ty", "edge source 'x' is not a node"),
        ],
    )
    def test_unknown_endpoint_names_file_and_line(self, tmp_path, edge, reason):
        nodes, triples = tmp_path / "n.tsv", tmp_path / "t.tsv"
        nodes.write_text("a\ttrack\t\nb\tgenre\t\n", encoding="utf-8")
        triples.write_text(f"a\tgenre\tb\n{edge}\na\tgenre\tb\n", encoding="utf-8")
        with pytest.raises(GraphError) as info:
            read_graph(triples, nodes)
        assert str(info.value) == f"{triples}:2: {reason}"

    def test_read_keeps_node_order_successor_order_and_edge_count(
        self, tmp_path, lastfm_corpus
    ):
        from kgrerank import merge_lastfm

        merged = merge_lastfm(
            lastfm_corpus / "events.tsv",
            lastfm_corpus / "features.csv",
            lastfm_corpus / "genres.csv",
        )
        catalog = build_catalog(merged.triples)
        flat = export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        loaded = read_graph(tmp_path / "t.tsv", tmp_path / "n.tsv")
        # export returns what the reader reads
        assert catalog_layout(flat) == catalog_layout(loaded)
        # nodes in file order; a node's successors in the order its edges
        # first name them in the file
        rows = (tmp_path / "t.tsv").read_text(encoding="utf-8").splitlines()
        edges = [row.split("\t") for row in rows]
        file_nodes = (tmp_path / "n.tsv").read_text(encoding="utf-8").splitlines()
        assert list(loaded.node_ids()) == [row.split("\t")[0] for row in file_nodes]
        assert list(loaded.node_ids()) == sorted(catalog.node_ids())
        assert loaded.num_edges == catalog.num_edges == len(edges) > 0
        assert loaded.recommendable == catalog.recommendable
        for node_id in loaded.node_ids():
            expected = list(dict.fromkeys(t for s, _, t in edges if s == node_id))
            assert list(loaded.successors(node_id)) == expected
            assert loaded.successors(node_id) == catalog.successors(node_id)
            assert loaded.neighbors(node_id) == catalog.neighbors(node_id)
            assert loaded.node(node_id).kind == catalog.node(node_id).kind
        assert sorted(loaded.edges()) == sorted(catalog.edges())

    @pytest.mark.parametrize("genre", ["rock\tpop", "rock\npop", "rock\rpop"])
    def test_ids_with_a_tab_or_line_break_are_refused(self, tmp_path, genre):
        # the reader splits on these; "rock pop" alone exports as it is
        catalog = build_catalog(
            [triple("t1", "genre", genre, tk="genre"),
             triple("t2", "genre", "rock pop", tk="genre"),
             triple("t3", "genre", "rock\tpop\n", tk="genre")]
        )
        with pytest.raises(GraphError) as info:
            export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        first = min(genre, "rock\tpop\n")
        assert str(info.value) == f"node id {first!r} holds a tab or line break"
        assert not (tmp_path / "t.tsv").exists() and not (tmp_path / "n.tsv").exists()

    @pytest.mark.parametrize("predicate", ["made\tby", "made\nby", "made\rby"])
    def test_predicates_with_a_tab_or_line_break_are_refused(self, tmp_path, predicate):
        catalog = build_catalog(
            [triple("t1", predicate, "a1"), triple("t1", "made by", "a1")]
        )
        with pytest.raises(GraphError) as info:
            export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        assert str(info.value) == f"predicate {predicate!r} holds a tab or line break"
        assert not (tmp_path / "t.tsv").exists() and not (tmp_path / "n.tsv").exists()

    @pytest.mark.parametrize("text", ["rock\tpop", "rock\npop", "rock\rpop"])
    def test_cleaned_kinds_and_labels_are_written_and_read_back(self, tmp_path, text):
        catalog = build_catalog(
            [triple("t1", "genre", "g1", tk=text)],
            nodes=[Node("t1", "track", {"title": text})],
        )
        flat = export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == b"t1\tgenre\tg1\n"
        assert (tmp_path / "n.tsv").read_bytes() == (
            b"g1\trock pop\t\nt1\ttrack\trock pop\n"
        )
        loaded = read_graph(tmp_path / "t.tsv", tmp_path / "n.tsv")
        assert sorted(loaded.edges()) == [("t1", "genre", "g1")]
        for graph in (loaded, flat):
            assert list(graph.nodes()) == [
                Node("g1", "rock pop"), Node("t1", "track", {"label": "rock pop"})
            ]


class TestMultigraphBasics:
    def test_add_edge_requires_nodes(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        with pytest.raises(GraphError, match="target"):
            g.add_edge("a", "p", "missing")
        with pytest.raises(GraphError, match="source"):
            g.add_edge("missing", "p", "a")

    def test_parallel_edges_count_once_as_neighbors(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        g.add_node(Node("b", "artist"))
        g.add_edge("a", "p", "b")
        g.add_edge("a", "q", "b")
        assert g.num_edges == 2
        assert g.successors("a") == {"b": {"p", "q"}}
        assert g.neighbors("a") == {"b"}
        assert g.neighbors("b") == {"a"}

    def test_edges_between_both_directions(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        g.add_node(Node("b", "artist"))
        g.add_edge("a", "p", "b")
        g.add_edge("b", "q", "a")
        assert sorted(g.edges()) == [("a", "p", "b"), ("b", "q", "a")]
        assert g.neighbors("a") == {"b"}

import random

import pytest

from kgrerank import (
    EntityKind,
    GraphError,
    Multigraph,
    NeighborhoodMode,
    Node,
    PruneRules,
    Triple,
    build_catalog,
    closed_neighborhood,
    export_graph,
    extend_subgraph,
    extension_delta,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)

from kgrerank.metrics import compile_graph

from oracles import random_catalog_with_profile

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

    def test_malformed_triple_reports_record(self):
        triples = [triple("a", "p", "b"), Triple("c", "p", "", "track", "artist")]
        with pytest.raises(GraphError, match="triple #2"):
            build_catalog(triples)

    def test_kind_conflict_rejected(self):
        triples = [triple("a", "p", "b"), triple("b", "p", "c", sk="genre")]
        with pytest.raises(GraphError, match="triple #2"):
            build_catalog(triples)

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
    def test_track_neighborhood(self, track_catalog):
        nodes, edges = closed_neighborhood(track_catalog, "t_4471632")
        assert nodes == {"t_4471632", "disco", "15160"}
        assert len(edges) == 2

    def test_isolated_node(self):
        catalog = build_catalog([], nodes=[Node("alone", EntityKind.TRACK)])
        nodes, edges = closed_neighborhood(catalog, "alone")
        assert nodes == {"alone"}
        assert edges == set()

    def test_star_hub(self):
        triples = [triple("hub", "p", f"leaf{i}") for i in range(4)]
        catalog = build_catalog(triples)
        nodes, edges = closed_neighborhood(catalog, "hub")
        assert len(nodes) == 5
        assert len(edges) == 4

    def test_unknown_item(self, track_catalog):
        with pytest.raises(GraphError, match="nope"):
            closed_neighborhood(track_catalog, "nope")


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
        assert ab.graph.structural_signature() == ba.graph.structural_signature()

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
        before = dvs_profile.graph.structural_signature()
        for mode in (CLOSED, EDGES):
            for item in ("d1", "d2", "s1", "s2"):
                extend_subgraph(dvs_profile, dvs_catalog, item, mode)
        assert dvs_profile.graph.structural_signature() == before

    def test_extension_is_idempotent_for_contained_item(self, dvs_catalog, dvs_profile):
        once = extend_subgraph(dvs_profile, dvs_catalog, "d1", CLOSED)
        twice = extend_subgraph(once, dvs_catalog, "d1", CLOSED)
        assert once.graph.structural_signature() == twice.graph.structural_signature()

    def test_contained_item_delta_is_empty_under_edges_mode(
        self, dvs_catalog, dvs_profile
    ):
        ext = extend_subgraph(dvs_profile, dvs_catalog, "s1", EDGES)
        delta = extension_delta(ext.graph, dvs_catalog, "s1", EDGES)
        assert delta.nodes == ()
        assert delta.edges == ()

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
                incident = sum(1 for _ in catalog.incident_edges(item))
                assert ext.graph.num_edges - sg.graph.num_edges <= incident


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
        rng = random.Random(11)
        for _ in range(20):
            catalog, history, recs = random_catalog_with_profile(rng)
            # parallel edges (same way round or reversed) and self-loops
            for source, _, target in list(catalog.edges()):
                if rng.random() < 0.3:
                    catalog.add_edge(source, "alt", target)
                if rng.random() < 0.2:
                    catalog.add_edge(target, "rev", source)
                if rng.random() < 0.1:
                    catalog.add_edge(source, "self", source)
            sg = induce_profile_subgraph(catalog, history)
            profile = compile_graph(sg.graph)
            for item, _ in recs.items:
                for mode in (CLOSED, EDGES):
                    delta = extension_delta(sg.graph, catalog, item, mode)
                    extended = profile.extend(
                        [node.id for node in delta.nodes],
                        [(source, target) for source, _, target in delta.edges],
                    )
                    solid = extend_subgraph(sg, catalog, item, mode).graph
                    compiled = compile_graph(solid)
                    assert extended.nodes == compiled.nodes == list(solid.node_ids())
                    assert extended.src.tolist() == compiled.src.tolist()
                    assert extended.dst.tolist() == compiled.dst.tolist()
                    assert extended.mult.tolist() == compiled.mult.tolist()
                    pairs = list(zip(*(a.tolist() for a in (compiled.src, compiled.dst, compiled.mult))))
                    assert pairs == _edge_pairs(solid)
                    assert extended.num_edges == compiled.num_edges == solid.num_edges
                    assert (extended.adjacency == compiled.adjacency).all()
            # extending never touches the compiled profile
            assert compile_graph(sg.graph).mult.tolist() == profile.mult.tolist()


class TestPruneGraph:
    def test_path_endpoints_removed_single_pass(self):
        catalog = build_catalog(
            [
                triple("a", "p", "b"),
                triple("b", "p", "c", sk="artist", tk="genre"),
            ]
        )
        pruned = prune_graph(catalog, PruneRules(drop_degree_one=True))
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
        pruned = prune_graph(catalog, PruneRules(drop_degree_one=True))
        assert pruned.structural_signature() == catalog.structural_signature()

    def test_schema_nodes_removed_with_edges(self):
        triples = [
            triple("a", "p", "b"),
            Triple("a", "a_type", "Class1", "track", EntityKind.CLASS),
            Triple("b", "a_type", "Class1", "artist", EntityKind.CLASS),
        ]
        catalog = build_catalog(triples)
        pruned = prune_graph(catalog, PruneRules(drop_schema_nodes=True))
        assert "Class1" not in pruned
        assert pruned.num_edges == 1

    def test_label_entities_removed(self):
        triples = [
            triple("a", "p", "b"),
            Triple("a", "label", "Label A", "track", EntityKind.LABEL),
        ]
        catalog = build_catalog(triples)
        pruned = prune_graph(catalog, PruneRules(drop_label_entities=True))
        assert "Label A" not in pruned

    def test_isolated_nodes_survive_degree_rule(self):
        catalog = build_catalog(
            [triple("a", "p", "b")], nodes=[Node("zero", EntityKind.TRACK)]
        )
        pruned = prune_graph(catalog, PruneRules(drop_degree_one=True))
        assert set(pruned.node_ids()) == {"zero"}

    def test_output_is_subgraph_of_input(self):
        rng = random.Random(12)
        for _ in range(15):
            catalog, _, _ = random_catalog_with_profile(rng)
            pruned = prune_graph(
                catalog,
                PruneRules(drop_degree_one=True, drop_schema_nodes=True),
            )
            assert set(pruned.node_ids()) <= set(catalog.node_ids())
            assert set(pruned.edges()) <= set(catalog.edges())

    def test_recommendable_recomputed(self, dvs_catalog):
        pruned = prune_graph(dvs_catalog, PruneRules(drop_degree_one=True))
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
        assert loaded.structural_signature() == dvs_catalog.structural_signature()
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


class TestMultigraphBasics:
    def test_add_edge_requires_nodes(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        with pytest.raises(GraphError, match="target"):
            g.add_edge("a", "p", "missing")
        with pytest.raises(GraphError, match="source"):
            g.add_edge("missing", "p", "a")

    def test_degrees_count_parallel_edges(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        g.add_node(Node("b", "artist"))
        g.add_edge("a", "p", "b")
        g.add_edge("a", "q", "b")
        assert g.out_degree("a") == 2
        assert g.in_degree("b") == 2
        assert g.degree("a") == 2
        assert g.neighbors("a") == {"b"}

    def test_edges_between_both_directions(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        g.add_node(Node("b", "artist"))
        g.add_edge("a", "p", "b")
        g.add_edge("b", "q", "a")
        assert sorted(g.edges_between("a", "b")) == [("a", "p", "b"), ("b", "q", "a")]

    def test_copy_is_independent(self):
        g = Multigraph()
        g.add_node(Node("a", "track"))
        g.add_node(Node("b", "artist"))
        g.add_edge("a", "p", "b")
        clone = g.copy()
        clone.add_node(Node("c", "genre"))
        clone.add_edge("a", "x", "c")
        assert g.num_nodes == 2
        assert g.num_edges == 1

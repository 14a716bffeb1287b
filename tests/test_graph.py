import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgrerank
from kgrerank import (
    CatalogGraph,
    EntityKind,
    GraphError,
    Multigraph,
    NeighborhoodMode,
    MetricKind,
    Node,
    Triple,
    build_catalog,
    export_graph,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)

from kgrerank.graph import added_nodes
from kgrerank.metrics import compile_graph, compute_metric, score_stack

from conftest import DVS_TRIPLES, assert_same_graph, catalog_layout, extension_batch, signature
from oracles import (
    brute_extension,
    induced_profile,
    induced_subgraph,
    materialized_extension,
    random_catalog_with_profile,
)

# exports a catalog with non-ASCII ids and reads it back; written in ASCII
UTF8_SCRIPT = r"""
import sys
from kgrerank import GraphError, Node, Triple, build_catalog, export_graph, read_graph

triples, nodes = sys.argv[1:3]
catalog = build_catalog(
    [Triple("t\u00e9", "genre", "g\u00e9", "track", "genre")],
    nodes=[Node("t\u00e9", "track", {"title": "Caf\u00e9"})],
)
export_graph(catalog, triples, nodes)
loaded = read_graph(triples, nodes)
print(ascii([(n.id, n.kind, dict(n.attrs)) for n in loaded.nodes()]))
print(ascii(list(loaded.edges())))
with open(nodes, "a", encoding="utf-8") as fh:
    fh.write("t\u00e9\ttrack\t\n")
try:
    read_graph(triples, nodes)
except GraphError as exc:
    print(ascii(str(exc)))
"""

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
        assert sg.nodes == ()

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

    def test_the_least_bad_item_is_named(self, track_catalog):
        # a set iterates strings in an order that varies between processes
        history = {"disco", *(f"t_missing{i:03d}" for i in range(100))}
        with pytest.raises(GraphError) as info:
            induce_profile_subgraph(track_catalog, history)
        assert str(info.value) == "history item 'disco' is not recommendable"
        history.remove("disco")
        with pytest.raises(GraphError) as info:
            induce_profile_subgraph(track_catalog, history)
        assert str(info.value) == "history item 't_missing000' not in catalog"

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
        return _extension_row(catalog, induce_profile_subgraph(catalog, []), item, CLOSED)

    def test_track_neighborhood(self, track_catalog):
        assert added_nodes((), track_catalog, "t_4471632", CLOSED) == [
            "15160",
            "disco",
            "t_4471632",
        ]
        nodes, edges = self._extend_empty(track_catalog, "t_4471632")
        assert nodes == ["15160", "disco", "t_4471632"]
        assert edges == 2

    def test_isolated_node(self):
        catalog = build_catalog([], nodes=[Node("alone", EntityKind.TRACK)])
        assert added_nodes((), catalog, "alone", CLOSED) == ["alone"]
        assert self._extend_empty(catalog, "alone") == (["alone"], 0)

    def test_star_hub(self):
        triples = [triple("hub", "p", f"leaf{i}") for i in range(4)]
        catalog = build_catalog(triples)
        assert len(added_nodes((), catalog, "hub", CLOSED)) == 5
        nodes, edges = self._extend_empty(catalog, "hub")
        assert len(nodes) == 5
        assert edges == 4

    def test_unknown_item(self, track_catalog):
        with pytest.raises(GraphError, match="^unknown item 'nope'$"):
            added_nodes((), track_catalog, "nope", CLOSED)


def _extension_row(catalog, sg, item, mode):
    """(nodes, edge count) of the row of the re-ranker's batch that extends
    ``sg`` by ``item``."""
    stack = extension_batch(catalog, sg, [item], mode)
    return stack.nodes(0), int(stack.edge_counts[0])


class TestExtensionRows:
    """What one candidate adds to a profile, as ``added_nodes`` names it and
    as the row of the re-ranker's batch holds it."""

    def test_edges_to_existing_ignores_new_enrichers(self, dvs_catalog, dvs_profile):
        # d1 connects to g1 (present) but e1 stays out
        assert added_nodes(dvs_profile.graph, dvs_catalog, "d1", EDGES) == ["d1"]
        nodes, edges = _extension_row(dvs_catalog, dvs_profile, "d1", EDGES)
        assert nodes == [*dvs_profile.graph.node_ids(), "d1"]
        assert edges == dvs_profile.graph.num_edges + 1

    def test_edges_to_existing_isolated_candidate(self):
        catalog = build_catalog(
            [triple("t1", "maker", "a1"), triple("t9", "maker", "a9")]
        )
        sg = induce_profile_subgraph(catalog, {"t1"})
        nodes, edges = _extension_row(catalog, sg, "t9", EDGES)
        assert nodes == [*sg.graph.node_ids(), "t9"]
        assert edges == sg.graph.num_edges

    @pytest.mark.parametrize("mode", [CLOSED, EDGES], ids=lambda m: m.value)
    @pytest.mark.parametrize("item", ["t1", "t2"])
    def test_contained_candidate_adds_nothing(self, dvs_catalog, dvs_profile, item, mode):
        assert added_nodes(dvs_profile.graph, dvs_catalog, item, mode) == []
        nodes, edges = _extension_row(dvs_catalog, dvs_profile, item, mode)
        assert nodes == list(dvs_profile.graph.node_ids())
        assert edges == dvs_profile.graph.num_edges

    def test_non_recommendable_item_rejected(self, dvs_catalog, dvs_profile):
        # the re-ranker's error names it too (test_rerank.py)
        with pytest.raises(GraphError, match="^item 'g1' is not recommendable$"):
            added_nodes(dvs_profile.graph, dvs_catalog, "g1")


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


class TestCompileGraph:
    @given(catalog_subgraphs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_subgraph_on_nodes_equals_the_induced_graph_compiled(self, drawn, data):
        """``compile_graph(catalog, nodes, loopless)`` equals the catalog
        subgraph that the oracle induces on those nodes, in their order,
        compiled and as pairs counted from its edges: some of the nodes in a
        drawn order, with and without nodes that keep no self-loop."""
        catalog, _, _ = drawn
        order = data.draw(st.permutations(sorted(catalog.node_ids())))
        nodes = order[: data.draw(st.integers(0, len(order)))]
        loopless = data.draw(st.sets(st.sampled_from(nodes))) if nodes else set()
        whole = induced_subgraph(catalog, nodes)
        assert_same_graph(compile_graph(catalog, nodes), compile_graph(whole))
        got = compile_graph(catalog, nodes, loopless)
        induced = induced_subgraph(catalog, nodes, loopless)
        assert_same_graph(got, compile_graph(induced))
        assert got.nodes(0) == nodes
        assert _pairs(got, 0) == _edge_pairs(induced)

    @pytest.mark.parametrize("loopless", [set(), {"t1"}], ids=["loops", "loopless"])
    def test_parallel_reversed_and_self_loop_edges(self, loopless):
        """A fixed case: two predicates one way and one back, self-loops with
        one and two predicates, and ``t1``'s two kept or dropped."""
        catalog = build_catalog(
            [
                triple("t1", "maker", "a1"),
                triple("t1", "alt", "a1"),
                triple("a1", "rev", "t1", sk="artist", tk="track"),
                triple("t1", "self", "t1", tk="track"),
                triple("t1", "again", "t1", tk="track"),
                triple("a1", "self", "a1", sk="artist", tk="artist"),
                triple("t2", "self", "t2", tk="track"),
                triple("t2", "maker", "a1"),
            ]
        )
        nodes = ["t2", "a1", "t1"]
        got = compile_graph(catalog, nodes, loopless)
        induced = induced_subgraph(catalog, nodes, loopless)
        assert_same_graph(got, compile_graph(induced))
        t1_loops = [] if loopless else [(2, 2, 2)]
        expected = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), *t1_loops]
        assert _pairs(got, 0) == _edge_pairs(induced) == expected


def _edge_pairs(g):
    """(source index, target index, multiplicity), counted from ``g.edges()``."""
    index = {v: i for i, v in enumerate(g.node_ids())}
    counts = {}
    for source, _, target in g.edges():
        pair = (index[source], index[target])
        counts[pair] = counts.get(pair, 0) + 1
    return sorted((i, j, m) for (i, j), m in counts.items())


def _pairs(stack, row):
    """(source, target, multiplicity) of row ``row`` of ``stack``."""
    lo, hi = stack.bounds[row], stack.bounds[row + 1]
    arrays = (stack.row_src[lo:hi], stack.row_dst[lo:hi], stack.mult[lo:hi])
    return list(zip(*(a.tolist() for a in arrays)))


class TestExtensionBatch:
    """Every row of the batch the re-ranker cuts from its union graph, and
    every metric on it, equals the materialized extension compiled and
    scored alone."""

    @staticmethod
    def _check(catalog, history, items, mode):
        """Check the batch of the extensions by ``items`` of the profile that
        ``history`` induces against the oracles, row by row; returns the
        batch and the oracle's profile."""
        sg = induce_profile_subgraph(catalog, history, user="u")
        profile = induced_profile(catalog, history)
        assert sg.nodes == tuple(profile.node_ids())
        stack = extension_batch(catalog, sg, items, mode)
        # the graph view is built on first read, after the batch
        assert "graph" not in vars(sg)
        assert list(sg.graph.nodes()) == list(profile.nodes())
        assert sorted(sg.graph.edges()) == sorted(profile.edges())
        assert sg.graph.num_edges == profile.num_edges
        assert len(stack) == len(items)
        values = score_stack(stack, list(MetricKind))
        for row, item in enumerate(items):
            added, _ = brute_extension(profile, catalog, item, mode is CLOSED)
            assert added_nodes(sg.graph, catalog, item, mode) == added, item
            extended = materialized_extension(profile, catalog, item, mode is CLOSED)
            want = compile_graph(extended)
            assert_same_graph(stack.rows([row]), want, item)
            assert _pairs(stack, row) == _edge_pairs(extended), item
            assert stack.edge_counts[row] == extended.num_edges, item
            assert (stack.adjacency(row) == want.adjacency(0)).all(), item
            nodes = want.nodes(0)
            order = stack.label_order[row, : stack.sizes[row]].tolist()
            assert order == sorted(range(len(nodes)), key=nodes.__getitem__), item
            for kind in MetricKind:
                assert values[kind][row] == compute_metric(extended, kind), (item, kind)
        return stack, profile

    @given(catalog_subgraphs(), st.sampled_from([CLOSED, EDGES]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_and_metrics_equal_the_materialized_extensions(
        self, drawn, mode, data
    ):
        """On drawn catalogs; among the candidates, one adds no node and two
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
        stack, profile = self._check(catalog, history, items, mode)
        _, group = stack.distinct
        assert group[items.index("x0")] == group[items.index("x1")]
        listed = [items.index(item) for item in history if item in items]
        assert all(stack.sizes[row] == profile.num_nodes for row in listed)
        assert bool(listed) == bool(history)

    @pytest.mark.parametrize("mode", [CLOSED, EDGES], ids=lambda m: m.value)
    def test_parallel_reversed_and_self_loop_edges(self, mode):
        """Parallel edges the same way round, reversed edges and self-loops,
        on the profile, on the candidates and on the nodes they add."""
        catalog = build_catalog(
            [
                triple("t1", "maker", "a1"),
                triple("t1", "alt", "a1"),
                triple("a1", "rev", "t1", sk="artist", tk="track"),
                triple("a1", "self", "a1", sk="artist", tk="artist"),
                triple("t2", "maker", "a1"),
                triple("t2", "self", "t2", tk="track"),
                triple("t2", "maker", "a2"),
                triple("t2", "alt", "a2"),
                triple("a2", "rev", "t2", sk="artist", tk="track"),
                triple("a2", "self", "a2", sk="artist", tk="artist"),
                triple("t3", "maker", "a3"),
                triple("a3", "rev", "t3", sk="artist", tk="track"),
                triple("a3", "rev", "a1", sk="artist", tk="artist"),
                triple("t3", "self", "t3", tk="track"),
            ]
        )
        stack, profile = self._check(catalog, {"t1"}, ["t2", "t3", "t1"], mode)
        # the edges each candidate adds; in edges mode a new candidate brings
        # none of its self-loops
        added = [stack.edge_counts[row] - profile.num_edges for row in range(len(stack))]
        assert added == ([6, 4, 0] if mode is CLOSED else [1, 0, 0])


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
        # the label attribute wins over the title, and a label is written as
        # its str
        catalog = build_catalog(
            [],
            nodes=[
                Node("m1", EntityKind.MOVIE, {"title": "Alpha"}),
                Node("m2", EntityKind.MOVIE, {"label": "Beta", "title": "Gamma"}),
                Node("m3", EntityKind.MOVIE, {"title": 1999}),
            ],
        )
        export_graph(catalog, tmp_path / "t.tsv", tmp_path / "n.tsv")
        loaded = read_graph(tmp_path / "t.tsv", tmp_path / "n.tsv")
        labels = [loaded.node(m).attrs["label"] for m in ("m1", "m2", "m3")]
        assert labels == ["Alpha", "Beta", "1999"]


    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # in an ASCII locale open() encodes and decodes as ASCII by default;
        # the script exports, reads back and reads a repeated node's lines
        script = tmp_path / "script.py"
        script.write_text(UTF8_SCRIPT, encoding="ascii")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        env["PYTHONPATH"] = str(Path(kgrerank.__file__).parents[1])
        paths = [tmp_path / "t.tsv", tmp_path / "n.tsv"]
        done = subprocess.run(
            [sys.executable, str(script), *map(str, paths)],
            env=env, check=True, capture_output=True, text=True,
        )
        assert paths[0].read_bytes() == "t\u00e9\tgenre\tg\u00e9\n".encode("utf-8")
        assert done.stdout.splitlines() == [
            ascii([("g\u00e9", "genre", {}), ("t\u00e9", "track", {"label": "Caf\u00e9"})]),
            ascii([("t\u00e9", "genre", "g\u00e9")]),
            ascii(f"{paths[1]}:3: repeated node 't\u00e9', first on line 2"),
        ]

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
        # the reader splits on these; "rock pop" alone exports as it is, and
        # "a0", the least id, is not named
        catalog = build_catalog(
            [triple("t1", "genre", genre, tk="genre"),
             triple("t2", "genre", "rock pop", tk="genre"),
             triple("t3", "genre", "rock\tpop\n", tk="genre"),
             triple("a0", "genre", "rock pop", tk="genre")]
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


class TestFileOrder:
    """``build_catalog`` adds the sorted nodes, then the sorted edges, as
    ``read_graph`` adds them from exported files; ``export_graph`` returns
    such a catalog itself when its files hold its nodes as they are, and a
    copy of any other graph. Either way it returns what ``read_graph``
    reads."""

    @staticmethod
    def _export(tmp_path, graph):
        paths = tmp_path / "t.tsv", tmp_path / "n.tsv"
        flat = export_graph(graph, *paths)
        assert catalog_layout(flat) == catalog_layout(read_graph(*paths))
        return flat

    @pytest.mark.parametrize("seed", range(4))
    def test_triple_order_does_not_matter(self, tmp_path, seed):
        triples = list(DVS_TRIPLES) + [DVS_TRIPLES[0]]
        random.Random(seed).shuffle(triples)
        catalog = build_catalog(triples)
        assert catalog_layout(catalog) == catalog_layout(build_catalog(DVS_TRIPLES))
        assert list(catalog.node_ids()) == sorted(catalog.node_ids())
        assert self._export(tmp_path, catalog) is catalog

    def test_a_merged_corpus_catalog_is_handed_on(self, tmp_path, lastfm_corpus):
        from kgrerank import merge_lastfm

        merged = merge_lastfm(
            *(lastfm_corpus / name for name in ("events.tsv", "features.csv", "genres.csv"))
        )
        catalog = build_catalog(merged.triples)
        assert self._export(tmp_path, catalog) is catalog
        # what export returns is in file order too
        assert self._export(tmp_path, catalog) is catalog

    def test_a_netflix_catalog_is_copied(self, tmp_path, netflix_csv):
        from kgrerank import load_netflix

        triples, titles = load_netflix(netflix_csv)
        catalog = build_catalog(triples, nodes=titles)
        flat = self._export(tmp_path, catalog)
        assert flat is not catalog
        # a title becomes a label; the copy is in file order
        assert flat.node("s1").attrs == {"label": "Alpha"}
        assert self._export(tmp_path, flat) is flat
        pruned = prune_graph(catalog)
        assert self._export(tmp_path, pruned) is not pruned

    def test_an_addition_takes_a_catalog_out_of_file_order(self, tmp_path):
        for add in (
            lambda g: g.add_edge("t1", "also", "a1"),
            lambda g: g.add_node(Node("a0", EntityKind.ARTIST)),
        ):
            catalog = build_catalog(DVS_TRIPLES)
            add(catalog)
            assert self._export(tmp_path, catalog) is not catalog

    def test_a_labelled_node_is_kept_as_it_is(self, tmp_path):
        seed = Node("m", EntityKind.MOVIE, {"label": "Alpha"})
        catalog = build_catalog(
            [triple("p", "directs", "m", sk="person", tk="movie")], nodes=[seed]
        )
        assert self._export(tmp_path, catalog) is catalog
        catalog = build_catalog([], nodes=[Node("m", EntityKind.MOVIE, {"label": ""})])
        assert self._export(tmp_path, catalog) is not catalog


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

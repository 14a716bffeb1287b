"""The path kernels' update of a shared base's all-pairs arrays, against the
BFS from every node of each extension."""

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from kgrerank import (
    CatalogGraph,
    MetricKind,
    Multigraph,
    NeighborhoodMode,
    ProfileSubgraph,
    compute_metric,
    extend_subgraph,
    extension_delta,
    induce_profile_subgraph,
)
from kgrerank import metrics as metrics_module
from kgrerank.graph import Node
from kgrerank.metrics import PATH_KINDS, CompiledGraph, compile_graph, compute_metrics

KINDS = list(MetricKind)
MODES = list(NeighborhoodMode)


def extensions(sg, catalog, items, mode):
    """The compiled profile's extension by each item, as the re-ranker builds it."""
    profile = compile_graph(sg.graph)
    out = []
    for item in items:
        delta = extension_delta(sg.graph, catalog, item, mode)
        out.append(
            profile.extend(
                [node.id for node in delta.nodes],
                [(source, target) for source, _, target in delta.edges],
            )
        )
    return out


def assert_blocks_equal_bfs(graph: CompiledGraph):
    adj = graph.adjacency
    updated = list(metrics_module._updated_blocks(graph, adj))
    bfs = list(metrics_module._source_blocks(adj, range(len(graph.nodes))))
    assert [block for block, _, _ in updated] == [block for block, _, _ in bfs]
    for (_, dist, sigma), (_, bfs_dist, bfs_sigma) in zip(updated, bfs):
        assert dist.dtype == bfs_dist.dtype
        assert np.array_equal(dist, bfs_dist)
        assert np.array_equal(sigma, bfs_sigma)


def assert_metrics_equal_materialized(sg, catalog, items, mode):
    values = compute_metrics(extensions(sg, catalog, items, mode), KINDS)
    for position, item in enumerate(items):
        extended = extend_subgraph(sg, catalog, item, mode).graph
        for kind in KINDS:
            assert values[kind][position] == compute_metric(extended, kind), (item, kind)


@st.composite
def extension_cases(draw):
    """A random catalog, a profile and candidates, some already in the
    profile; nodes are inserted in a drawn order.

    Edges join any two nodes either way round; self-loops and parallel edges
    (another predicate, or reversed) occur, and sparse parts leave several
    components for a candidate to join. A candidate's closed neighbourhood
    may add nodes linked among themselves, or to nothing in the profile.
    """
    # sizes come from sampled_from, which spreads them evenly; integers and
    # plain lists stay small
    tracks = [f"t{i}" for i in range(draw(st.sampled_from(range(1, 11))))]
    names = tracks + [f"e{i}" for i in range(draw(st.sampled_from(range(91))))]
    catalog = CatalogGraph()
    for name in draw(st.permutations(names)):
        catalog.add_node(Node(name, "track" if name[0] == "t" else "entity"))
    ends = st.sampled_from(names)
    predicates = st.sampled_from(["rel", "alt"])
    # edges from a track let history neighbourhoods grow
    for sources, most in ((st.sampled_from(tracks), 2 * len(names)), (ends, len(names))):
        size = draw(st.sampled_from(range(most + 1)))
        edges = st.lists(st.tuples(sources, predicates, ends), min_size=size, max_size=size)
        for source, predicate, target in draw(edges):
            catalog.add_edge(source, predicate, target)
    history = [track for track in tracks if draw(st.booleans())]
    sg = induce_profile_subgraph(catalog, history, "u")
    items = draw(st.lists(st.sampled_from(tracks), min_size=1, unique=True))
    return catalog, sg, items


class TestUpdateEqualsBfs:
    @given(extension_cases())
    @settings(max_examples=100, deadline=None)
    def test_blocks_and_metrics_equal_the_bfs(self, case):
        catalog, sg, items = case
        # steer towards profiles that span several source blocks
        target(float(len(sg.graph)))
        for mode in MODES:
            for graph in extensions(sg, catalog, items, mode):
                # an induced profile's deltas never join two profile nodes
                assert graph.touches_added
                assert_blocks_equal_bfs(graph)
            assert_metrics_equal_materialized(sg, catalog, items, mode)


def _fixed_catalog() -> tuple[CatalogGraph, ProfileSubgraph]:
    """Profile components {t1, a1, g1} and t2 with 40 leaves p00..p39, so
    the profile spans two source blocks, plus candidates:

    - ``join`` links a1 (twice and reversed, and with a self-loop) and t2's
      artist a2, joining the two components;
    - ``pair`` brings e1 and e2, linked to each other, and e1 links g1; in
      edges mode ``pair`` alone is added, with no neighbour;
    - ``lone`` brings e3, whose only neighbour is ``lone``; in edges mode
      ``lone`` alone is added, with no neighbour;
    - ``t1`` is already in the profile;
    - ``short`` brings f1 and f2 to a third component, the path
      r1 - t3 - r2 - t4 - r3: f1 links r1 and r3, and f2 links r3. From r1,
      r3 is then closer through f1 than through the profile, so the paths
      to f2 through r3 are counted at f1, not at f2.
    """
    catalog = CatalogGraph()
    leaves = [f"p{i:02d}" for i in range(40)]
    for name in ["t1", "t2", "t3", "t4", "join", "pair", "lone", "short"]:
        catalog.add_node(Node(name, "track"))
    entities = ["a1", "a2", "g1", "e1", "e2", "e3", "r1", "r2", "r3", "f1", "f2"]
    for name in [*entities, *leaves]:
        catalog.add_node(Node(name, "entity"))
    for source, predicate, target in [
        ("t1", "maker", "a1"),
        ("t1", "genre", "g1"),
        ("g1", "rel", "g1"),
        ("t2", "maker", "a2"),
        *[("t2", "rel", leaf) for leaf in leaves],
        ("join", "maker", "a1"),
        ("join", "alt", "a1"),
        ("a1", "rel", "join"),
        ("join", "rel", "join"),
        ("join", "rel", "a2"),
        ("pair", "maker", "e1"),
        ("pair", "rel", "e2"),
        ("e1", "rel", "e2"),
        ("e1", "genre", "g1"),
        ("lone", "maker", "e3"),
        ("t3", "rel", "r1"),
        ("t3", "rel", "r2"),
        ("t4", "rel", "r2"),
        ("t4", "rel", "r3"),
        ("short", "rel", "f1"),
        ("short", "rel", "f2"),
        ("f1", "rel", "r1"),
        ("f1", "rel", "r3"),
        ("f2", "rel", "r3"),
    ]:
        catalog.add_edge(source, predicate, target)
    return catalog, induce_profile_subgraph(catalog, {"t1", "t2", "t3", "t4"}, "u")


def _components(graph: CompiledGraph) -> int:
    adj = graph.adjacency
    seen = np.zeros(len(graph.nodes), dtype=bool)
    count = 0
    for start in range(len(graph.nodes)):
        if seen[start]:
            continue
        count += 1
        frontier = np.zeros(len(graph.nodes), dtype=bool)
        frontier[start] = True
        while frontier.any():
            seen |= frontier
            frontier = (frontier @ adj > 0) & ~seen
    return count


class TestFixedExtensions:
    ITEMS = ["join", "pair", "lone", "t1", "short"]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name.lower())
    def test_every_case_is_updated_exactly(self, mode, bfs_calls):
        catalog, sg = _fixed_catalog()
        graphs = extensions(sg, catalog, self.ITEMS, mode)
        n0 = len(sg.graph)
        assert n0 > metrics_module._SOURCE_BLOCK
        join, pair, lone, t1, short = graphs
        assert _components(join) == _components(join.base) - 1
        closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
        assert len(pair.nodes) - n0 == len(short.nodes) - n0 == (3 if closed else 1)
        added = range(n0, len(lone.nodes))
        assert not lone.adjacency[added.start :, :n0].any()
        assert len(t1.nodes) == n0
        values = compute_metrics(graphs, KINDS)
        # the profile's BFS once, then each distinct extension's added nodes
        # (in edges mode, pair, lone and short each add one isolated node)
        firsts, _ = metrics_module._distinct(graphs)
        assert len(firsts) == (5 if closed else 3)
        sizes = [len(graphs[row].nodes) for row in firsts]
        assert bfs_calls == [(n0, n0)] + [(size, size - n0) for size in sizes]
        for position, item in enumerate(self.ITEMS):
            extended = extend_subgraph(sg, catalog, item, mode).graph
            for kind in KINDS:
                assert values[kind][position] == compute_metric(extended, kind)
        for graph in graphs:
            assert_blocks_equal_bfs(graph)


class TestBfsCases:
    def test_a_pair_between_profile_nodes_takes_the_bfs(self, bfs_calls):
        catalog, _ = _fixed_catalog()
        # not induced: the profile {t1, a1} lacks the catalog edge
        # t1 -maker-> a1, so extending by t1 adds g1 and a pair between two
        # profile nodes
        graph = Multigraph()
        for name in ["t1", "a1"]:
            graph.add_node(catalog.node(name))
        sg = ProfileSubgraph(user="u", graph=graph, history=frozenset({"t1"}))
        items = ["t1", "join", "pair"]
        t1, join, pair = extensions(sg, catalog, items, NeighborhoodMode.CLOSED_NEIGHBORHOOD)
        assert not t1.touches_added and join.touches_added and pair.touches_added
        values = compute_metrics([t1, join, pair], KINDS)
        assert bfs_calls == [
            (3, 3),
            (2, 2),
            (len(join.nodes), len(join.nodes) - 2),
            (len(pair.nodes), len(pair.nodes) - 2),
        ]
        for position, item in enumerate(items):
            extended = extend_subgraph(sg, catalog, item).graph
            for kind in KINDS:
                assert values[kind][position] == compute_metric(extended, kind)

    @staticmethod
    def _diamonds(count: int) -> CompiledGraph:
        """v0 - (a_i | b_i) - v_{i+1} for i < count: 2**count shortest paths
        from v0 to v_count."""
        nodes, edges = ["v0"], []
        for i in range(count):
            nodes += [f"a{i}", f"b{i}", f"v{i + 1}"]
            edges += [(f"v{i}", f"a{i}"), (f"v{i}", f"b{i}")]
            edges += [(f"a{i}", f"v{i + 1}"), (f"b{i}", f"v{i + 1}")]
        empty = np.zeros(0, dtype=np.intp)
        return CompiledGraph([], empty, empty, empty).extend(nodes, edges)

    @staticmethod
    def _assert_bfs_for(graphs, bfs_calls, indices):
        """Exactly the graphs at ``indices`` had a BFS from every node, and
        every graph's path metrics equal it scored alone."""
        values = compute_metrics(graphs, PATH_KINDS)
        full = [(size, rows) for size, rows in bfs_calls if size == rows]
        assert full[1:] == [(len(graphs[i].nodes),) * 2 for i in indices]
        for position, graph in enumerate(graphs):
            alone = CompiledGraph(graph.nodes, graph.src, graph.dst, graph.mult)
            for kind in PATH_KINDS:
                assert values[kind][position] == compute_metric(alone, kind)

    def test_a_profile_with_2_to_the_54_paths_takes_the_bfs(self, bfs_calls):
        base = self._diamonds(54)
        graphs = [
            base.extend(["x"], [("v54", "x")]),
            base.extend(["y", "z"], [("v54", "y"), ("y", "z")]),
        ]
        self._assert_bfs_for(graphs, bfs_calls, [0, 1])

    def test_an_extension_reaching_2_to_the_53_paths_takes_the_bfs(self, bfs_calls):
        # 2**52 paths in the profile; one more diamond makes 2**53, one more
        # node does not
        base = self._diamonds(52)
        graphs = [
            base.extend(["x"], [("v52", "x")]),
            base.extend(["y", "z", "w"], [("v52", "y"), ("v52", "z"), ("y", "w"), ("z", "w")]),
        ]
        self._assert_bfs_for(graphs, bfs_calls, [1])

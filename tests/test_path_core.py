"""The path kernels on the 2-core: the trees peeled off a graph are counted in
closed form, and the BFS runs on the core alone, or not at all on a forest.

Every case is held to the brute-force oracles: betweenness to the exact
path enumeration within 1e-9, closeness to the queue BFS bit for bit.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    CatalogGraph,
    MetricKind,
    Multigraph,
    NeighborhoodMode,
    compute_metric,
    induce_profile_subgraph,
)
from kgrerank.graph import Node
from kgrerank import metrics as metrics_module
from kgrerank.metrics import PATH_KINDS, _path_scores, _source_blocks, compile_graph, score_stack

from conftest import (
    betweenness,
    closeness,
    compiled_extensions,
    core_passes,
    disjoint_batch,
    record_bfs_calls,
)
from oracles import (
    INF,
    brute_betweenness,
    floyd_warshall,
    materialized_extension,
    reference_harmonic_closeness,
    two_core,
    undirected_adjacency,
)

KINDS = list(MetricKind)
MODES = list(NeighborhoodMode)


def assert_path_metrics_equal_oracles(g):
    exact = brute_betweenness(g)
    for v, value in betweenness(g).items():
        assert abs(value - float(exact[v])) <= 1e-9, v
    assert closeness(g) == reference_harmonic_closeness(g)


def graph_of(nodes, edges) -> Multigraph:
    g = Multigraph()
    for v in nodes:
        g.add_node(Node(v, "other"))
    for a, predicate, b in edges:
        g.add_edge(a, predicate, b)
    return g


@st.composite
def hanging_trees(draw, max_nodes=70):
    """A small random multigraph, then nodes that each hang from an earlier
    node (often the one just before, which makes long pendant chains) or
    start a tree of their own. A tree edge points either way, and may be
    doubled (another predicate, or reversed) or carry a self-loop; nodes are
    inserted in a drawn order."""
    n = draw(st.integers(1, max_nodes))
    dense = draw(st.integers(0, min(n, 8)))
    edges = []
    if dense:
        ends = st.integers(0, dense - 1)
        predicates = st.sampled_from(["rel", "alt"])
        edges += draw(st.lists(st.tuples(ends, predicates, ends), max_size=3 * dense))
    for child in range(max(dense, 1), n):
        parent = draw(st.sampled_from([child - 1, None]) | st.integers(0, child - 1))
        if parent is None:
            continue
        a, b = draw(st.permutations([parent, child]))
        edges.append((a, "rel", b))
        extra = draw(st.sampled_from([None, "alt", "back", "loop"]))
        if extra == "alt":
            edges.append((a, "alt", b))
        elif extra == "back":
            edges.append((b, "rel", a))
        elif extra == "loop":
            edges.append((child, "self", child))
    order = draw(st.permutations(range(n)))
    return graph_of([f"n{i}" for i in order], [(f"n{a}", p, f"n{b}") for a, p, b in edges])


class TestPeeledGraphs:
    @given(hanging_trees())
    @settings(max_examples=80, deadline=None)
    def test_metrics_equal_the_oracles_from_one_core_pass(self, g):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = record_bfs_calls(monkeypatch)
            score_stack(compile_graph(g), PATH_KINDS)
        assert calls == core_passes([g])
        assert_path_metrics_equal_oracles(g)

    def test_long_pendant_chains(self, bfs_calls):
        # a triangle with a 40-node chain on one corner and a 3-node chain
        # and a leaf on another
        chain = [f"p{i}" for i in range(40)]
        edges = [("c0", "rel", "c1"), ("c1", "rel", "c2"), ("c2", "rel", "c0")]
        edges += [(a, "rel", b) for a, b in zip(["c0", *chain], chain)]
        edges += [("c1", "rel", "q0"), ("q1", "rel", "q0"), ("q1", "rel", "q2"), ("c1", "rel", "r")]
        nodes = ["c0", "c1", "c2", *chain, "q0", "q1", "q2", "r"]
        g = graph_of(nodes, edges)
        scores = betweenness(g)
        assert bfs_calls == [(3, 3)]
        n = len(nodes)
        # p_i splits the graph into the 39 - i chain nodes below it and the rest
        for i, v in enumerate(chain):
            below = 39 - i
            assert scores[v] == below * (n - 1 - below)
        assert_path_metrics_equal_oracles(g)

    def test_tree_components_isolated_nodes_and_a_single_edge(self, bfs_calls):
        edges = [
            # a square with a leaf: the only core
            ("s0", "rel", "s1"), ("s1", "rel", "s2"), ("s2", "rel", "s3"),
            ("s3", "rel", "s0"), ("s3", "rel", "leaf"),
            # a whole-tree component: a star on h with a chain below x
            ("h", "rel", "x"), ("h", "rel", "y"), ("z", "rel", "h"), ("x", "rel", "x2"),
            # a single edge, doubled and reversed
            ("e0", "rel", "e1"), ("e1", "rel", "e0"), ("e0", "alt", "e1"),
        ]
        nodes = ["s0", "s1", "s2", "s3", "leaf", "h", "x", "y", "z", "x2", "e0", "e1", "alone", "loop"]
        g = graph_of(nodes, edges + [("loop", "self", "loop")])
        scores = betweenness(g)
        assert bfs_calls == [(4, 4)]
        assert scores["h"] == 5.0 and scores["x"] == 3.0
        assert scores["e0"] == scores["e1"] == scores["alone"] == scores["loop"] == 0.0
        assert_path_metrics_equal_oracles(g)

    def test_self_loops_and_parallel_edges_on_tree_edges(self, bfs_calls):
        edges = [
            ("a", "rel", "b"), ("b", "rel", "c"), ("c", "rel", "a"),
            ("a", "rel", "t1"), ("t1", "rel", "a"), ("a", "alt", "t1"),
            ("t1", "self", "t1"), ("t1", "rel", "t2"), ("t2", "self", "t2"),
        ]
        g = graph_of(["a", "b", "c", "t1", "t2"], edges)
        assert betweenness(g) == {"a": 4.0, "b": 0.0, "c": 0.0, "t1": 3.0, "t2": 0.0}
        assert bfs_calls == [(3, 3)]
        assert_path_metrics_equal_oracles(g)

    def test_a_forest_runs_no_bfs(self, bfs_calls):
        g = graph_of(["a", "b", "c", "d"], [("a", "rel", "b"), ("b", "rel", "c")])
        score_stack(compile_graph(g), PATH_KINDS)
        assert bfs_calls == []
        assert_path_metrics_equal_oracles(g)


def assert_metrics_equal_materialized(sg, catalog, items, mode):
    values = score_stack(disjoint_batch(compiled_extensions(catalog, sg, items, mode)), KINDS)
    for position, item in enumerate(items):
        closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
        extended = materialized_extension(sg.graph, catalog, item, closed)
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


class TestExtensions:
    @given(extension_cases())
    @settings(max_examples=100, deadline=None)
    def test_metrics_equal_the_materialized_extensions(self, case):
        catalog, sg, items = case
        for mode in MODES:
            assert_metrics_equal_materialized(sg, catalog, items, mode)


def _fixed_catalog() -> tuple[CatalogGraph, object]:
    """A profile of four components, plus candidates that reshape them.

    The profile (history t1-t5) holds the 4-cycle t1-a1-t2-g1, from whose g1
    hangs the tree t3 -> {a3, g3}; the single edge t4-a4; and t5 alone.

    - ``pull`` links a3 and g3, so the cycle a3-t3-g3-pull pulls the hanging
      tree into the core;
    - ``join`` links a4 and g1, joining t4-a4 to the main component as a tree;
    - ``bridge`` links a4 and g1 too, and x4, which links a4: in closed mode
      x4 comes along and closes the triangle bridge-a4-x4;
    - ``leaf`` hangs from a1, leaving the core as it is;
    - ``t1`` is already in the profile.
    """
    catalog = CatalogGraph()
    tracks = ["t1", "t2", "t3", "t4", "t5", "pull", "join", "bridge", "leaf"]
    for name in tracks:
        catalog.add_node(Node(name, "track"))
    for name in ["a1", "g1", "a3", "g3", "a4", "x4"]:
        catalog.add_node(Node(name, "entity"))
    for source, predicate, target in [
        ("t1", "maker", "a1"),
        ("t1", "genre", "g1"),
        ("t2", "maker", "a1"),
        ("t2", "genre", "g1"),
        ("t3", "genre", "g1"),
        ("t3", "maker", "a3"),
        ("t3", "genre", "g3"),
        ("g3", "rel", "g3"),
        ("t4", "maker", "a4"),
        ("pull", "maker", "a3"),
        ("pull", "genre", "g3"),
        ("join", "maker", "a4"),
        ("join", "genre", "g1"),
        ("bridge", "maker", "a4"),
        ("bridge", "rel", "x4"),
        ("bridge", "genre", "g1"),
        ("x4", "rel", "a4"),
        ("leaf", "maker", "a1"),
    ]:
        catalog.add_edge(source, predicate, target)
    return catalog, induce_profile_subgraph(catalog, {"t1", "t2", "t3", "t4", "t5"}, "u")


class TestFixedExtensions:
    ITEMS = ["pull", "join", "bridge", "leaf", "t1"]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name.lower())
    def test_every_case_equals_the_oracles(self, mode, bfs_calls):
        catalog, sg = _fixed_catalog()
        assert two_core(sg.graph) == {"t1", "a1", "t2", "g1"}
        closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
        materialized = [
            materialized_extension(sg.graph, catalog, item, closed) for item in self.ITEMS
        ]
        pull, join, bridge, leaf, t1 = materialized
        assert {"t3", "a3", "g3", "pull"} <= two_core(pull)
        assert two_core(join) == two_core(leaf) == two_core(t1) == two_core(sg.graph)
        if mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD:
            assert {"a4", "x4", "bridge"} <= two_core(bridge)
        for joined in (join, bridge):
            assert floyd_warshall(undirected_adjacency(joined))["t4"]["t1"] != INF
        assert floyd_warshall(undirected_adjacency(sg.graph))["t4"]["t1"] == INF

        graphs = compiled_extensions(catalog, sg, self.ITEMS, mode)
        stack = disjoint_batch(graphs)
        values = score_stack(stack, KINDS)
        # one pass per distinct extension, on its core; in edges mode join
        # and bridge each add one node linked to a4 and g1
        firsts, _ = stack.distinct
        assert len(firsts) == (5 if mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD else 4)
        assert bfs_calls == core_passes([graphs[row] for row in firsts])
        for position, extended in enumerate(materialized):
            for kind in KINDS:
                assert values[kind][position] == compute_metric(extended, kind)
            assert_path_metrics_equal_oracles(extended)


def layered_adjacency(width: int, layers: int) -> np.ndarray:
    """Two hubs, nodes 0 and 1, joined through ``layers`` layers of ``width``
    nodes, each layer fully joined to the next: a 2-core with ``width **
    layers`` shortest paths between the hubs."""
    n = 2 + width * layers
    levels = [[0], *(range(2 + width * i, 2 + width * (i + 1)) for i in range(layers)), [1]]
    adj = np.zeros((n, n))
    for upper, lower in zip(levels, levels[1:]):
        adj[np.ix_(upper, lower)] = adj[np.ix_(lower, upper)] = 1.0
    return adj


def counted_bfs(adj: np.ndarray, source: int) -> tuple[list[int], list[int]]:
    """Hop distances (-1 where unreachable) and shortest-path counts from
    ``source``, as Python ints, from a queue BFS."""
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    dist = [-1] * len(adj)
    count = [0] * len(adj)
    dist[source], count[source] = 0, 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                count[w] += count[v]
    return dist, count


class TestFloat32Counts:
    """The forward pass counts in float32 while every count of a source
    block stays below 2**24, and runs the block again in float64 otherwise.
    Between the hubs of a layered core, 4**11 paths are below the bound;
    4**12 = 2**24 and 4**13 are not. 5**12 is not a float32 value, 2**40 is
    one far past the bound, and 2**130 overflows float32."""

    CASES = [(4, 11), (4, 12), (4, 13), (5, 12), (2, 40), (2, 130)]

    @pytest.mark.parametrize("width, layers", CASES)
    def test_counts_equal_a_python_int_bfs(self, width, layers):
        adj = layered_adjacency(width, layers)
        n = len(adj)
        blocks = list(_source_blocks(adj, range(n)))
        assert [b for b, _, _ in blocks] == [
            range(start, min(start + 32, n)) for start in range(0, n, 32)
        ]
        dist = np.vstack([d for _, d, _ in blocks])
        sigma = np.vstack([s for _, _, s in blocks])
        assert sigma.dtype == np.float64
        expected = [counted_bfs(adj, source) for source in range(n)]
        assert dist.tolist() == [d for d, _ in expected]
        assert sigma.tolist() == [c for _, c in expected]
        assert sigma[0, 1] == width**layers

    @pytest.mark.parametrize("width, layers", CASES)
    def test_scores_equal_a_float64_pass(self, width, layers, monkeypatch):
        adj = layered_adjacency(width, layers)
        got = _path_scores(adj, PATH_KINDS)
        monkeypatch.setattr(metrics_module, "_EXACT_FLOAT32", 0)
        expected = _path_scores(adj, PATH_KINDS)
        for kind in PATH_KINDS:
            assert got[kind].tolist() == expected[kind].tolist(), kind


def cycle_with_trees(core: int, second: str) -> Multigraph:
    """A graph whose 2-core has ``core`` nodes, with a pendant tree and a
    second component: a cycle of ``core`` nodes and a 3-node path, or a
    cycle of ``core - 3`` nodes and a triangle with a leaf, whose core
    nodes the first's cannot reach."""
    ring = core - 3 if second == "triangle" else core
    cycle = [f"c{i:02d}" for i in range(ring)]
    edges = [(a, "rel", b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    # a pendant tree: a chain of two below c00, branching below its top
    edges += [("c00", "rel", "p0"), ("p0", "rel", "p1"), ("p2", "rel", "p0")]
    if second == "triangle":
        edges += [("x0", "rel", "x1"), ("x1", "rel", "x2"), ("x2", "rel", "x0"), ("x2", "rel", "x3")]
        others = ["x0", "x1", "x2", "x3"]
    else:
        edges += [("x0", "rel", "x1"), ("x1", "rel", "x2")]
        others = ["x0", "x1", "x2"]
    # the trees and the second component among the cycle's nodes, so that
    # they fall inside closeness's row blocks too
    nodes = cycle[:20] + ["p0", "p1", "p2"] + others + cycle[20:]
    return graph_of(nodes, edges)


class TestSourceBlockBoundaries:
    """Cores of 32 and 64 nodes fill whole source blocks; cores of 33 and 65
    leave one row over."""

    @pytest.mark.parametrize("second", ["path", "triangle"])
    @pytest.mark.parametrize("core", [32, 33, 64, 65])
    def test_metrics_equal_the_oracles(self, core, second, bfs_calls):
        g = cycle_with_trees(core, second)
        assert len(two_core(g)) == core
        score_stack(compile_graph(g), PATH_KINDS)
        assert bfs_calls == [(core, core)]
        assert_path_metrics_equal_oracles(g)

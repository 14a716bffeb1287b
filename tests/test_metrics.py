import functools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    ConvergenceError,
    MetricError,
    MetricKind,
    Multigraph,
    Node,
    compute_metric,
)

from kgrerank import metrics as metrics_module
from kgrerank.metrics import (
    _SOURCE_BLOCK,
    _Stack,
    _hhi_rows,
    _running_total,
    compile_graph,
    score_stack,
)

from conftest import (
    betweenness,
    closeness,
    collapse,
    compiled_edges,
    core_passes,
    disjoint_batch,
    node_scores,
    pagerank,
    record_bfs_calls,
    unprefixed,
)
from oracles import (
    INF,
    brute_betweenness,
    brute_harmonic_closeness,
    dense_pagerank,
    floyd_warshall,
    random_multigraph,
    reference_harmonic_closeness,
    reference_pagerank,
    undirected_adjacency,
)


def undirected(edges):
    g = Multigraph()
    nodes = {v for e in edges for v in e}
    for v in sorted(nodes):
        g.add_node(Node(v, "other"))
    for a, b in edges:
        g.add_edge(a, "rel", b)
    return g


def path_graph(*names):
    return undirected(list(zip(names, names[1:])))


def cycle_graph(n):
    names = [f"c{i}" for i in range(n)]
    return undirected(list(zip(names, names[1:])) + [(names[-1], names[0])])


def complete_graph(n):
    names = [f"k{i}" for i in range(n)]
    return undirected(
        [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(leaves):
    return undirected([("hub", f"leaf{i}") for i in range(leaves)])


@st.composite
def simplex(draw, min_n=1, max_n=40):
    n = draw(st.integers(min_n, max_n))
    raw = draw(
        st.lists(
            st.floats(1e-4, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    return [x / total for x in raw]


# more nodes than one source block, and not a multiple of it
MAX_ENGINE_NODES = 2 * _SOURCE_BLOCK + 7


def _graph_from(draw, n, edges):
    """Nodes inserted in a drawn order, so block boundaries fall anywhere."""
    g = Multigraph()
    for i in draw(st.permutations(range(n))):
        g.add_node(Node(f"n{i}", "other"))
    for a, predicate, b in edges:
        g.add_edge(f"n{a}", predicate, f"n{b}")
    return g


@st.composite
def multigraphs(draw, max_nodes=MAX_ENGINE_NODES):
    """Sparse multigraphs: isolated nodes, disconnected parts, self-loops and
    parallel edges (same direction with another predicate, or reversed)."""
    n = draw(st.integers(1, max_nodes))
    ends = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(ends, st.sampled_from(["rel", "alt"]), ends),
                 max_size=2 * n)
    )
    return _graph_from(draw, n, edges)


@st.composite
def forests(draw, max_nodes=MAX_ENGINE_NODES):
    """Forests whose edges point either way, some doubled, plus self-loops."""
    n = draw(st.integers(1, max_nodes))
    edges = []
    for child in range(1, n):
        parent = draw(st.none() | st.integers(0, child - 1))
        if parent is None:
            continue
        a, b = draw(st.permutations([parent, child]))
        edges.append((a, "rel", b))
        if draw(st.booleans()):
            edges.append((b, "alt", a))
    loops = draw(st.lists(st.integers(0, n - 1), max_size=3))
    edges += [(v, "self", v) for v in loops]
    return _graph_from(draw, n, edges)


def hhi(shares):
    """The sum of squared shares of one row, by ``_hhi_rows``."""
    return _hhi_rows(np.array([shares], dtype=float))[0].item()


class TestHhiRows:
    def test_monopoly(self):
        assert hhi([1.0]) == 1.0

    def test_uniform_quarters(self):
        assert hhi([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.25, abs=1e-12)

    def test_mixed_shares(self):
        # 0.25 + 0.09 + 0.04
        assert hhi([0.5, 0.3, 0.2]) == pytest.approx(0.38, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(MetricError, match="sum to 1"):
            hhi([0.5, 0.4])

    def test_names_the_first_unnormalized_row(self):
        with pytest.raises(MetricError, match="got 0.9") as info:
            _hhi_rows(np.array([[0.5, 0.5], [0.5, 0.4], [0.25, 0.25]]))
        # a Python int, as ``MetricError.row`` is declared
        assert (type(info.value.row), info.value.row) == (int, 1)


class TestCollapse:
    """``_Stack.collapse`` of a one-row batch, whose scores are shares."""

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 100])
    def test_uniform_is_zero(self, n):
        assert collapse([1.0 / n] * n) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_one_hot_is_one(self, n):
        shares = [0.0] * n
        shares[0] = 1.0
        assert collapse(shares) == 1.0

    def test_single_share_is_one(self):
        assert collapse([1.0]) == 1.0

    def test_mixed_value(self):
        expected = (0.38 - 1.0 / 3.0) / (1.0 - 1.0 / 3.0)
        assert collapse([0.5, 0.3, 0.2]) == pytest.approx(expected, abs=1e-12)

    @given(simplex())
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, shares):
        value = collapse(shares)
        assert 0.0 <= value <= 1.0

    @given(simplex(min_n=2, max_n=15), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, shares, rng):
        shuffled = list(shares)
        rng.shuffle(shuffled)
        assert collapse(shuffled) == pytest.approx(collapse(shares), abs=1e-12)

    @given(simplex(min_n=2))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_formula(self, shares):
        n = len(shares)
        direct = (sum(s * s for s in shares) - 1.0 / n) / (1.0 - 1.0 / n)
        assert collapse(shares) == pytest.approx(direct, abs=1e-12)


@st.composite
def summands(draw):
    """A (rows x width) block of signed terms of magnitude 1e-8 to 1e8, with
    some exact zeros of either sign."""
    rows = draw(st.integers(1, 40))
    width = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, width)
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return values


def left_to_right(values):
    """Each row's terms added one after another, as a float64 array."""
    return np.array([functools.reduce(operator.add, row) for row in values.tolist()])


class TestSequentialSums:
    """``_running_total`` adds left to right, on every Python version: numpy's
    ``np.sum`` adds pairwise, and the builtin ``sum`` of floats compensates
    from Python 3.12 on."""

    @given(summands())
    @settings(max_examples=200, deadline=None)
    def test_running_total_is_reduce_add_bit_for_bit(self, values):
        assert _running_total(values).tobytes() == left_to_right(values).tobytes()
        # a 1-D array is one row
        assert _running_total(values[0]).tobytes() == left_to_right(values[:1])[0].tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 8, 9, 40])
    def test_rows_of_negative_zeros_keep_their_sign(self, rows):
        values = np.full((rows, 12), -0.0)
        values[1:, 3] = 5e-324
        got = _running_total(values)
        assert np.signbit(got[0]) and got[0] == 0.0
        assert got[1:].tolist() == [5e-324] * (rows - 1)

    @pytest.mark.parametrize(
        "shares", [[0.1] * 10, [0.05] * 20], ids=["tenths", "twentieths"]
    )
    def test_hhi_is_the_sequential_sum_of_squares(self, shares):
        squares = np.array(shares) ** 2
        sequential = functools.reduce(operator.add, squares.tolist())
        # these shares tell a left-to-right sum from a correctly rounded one;
        # the twentieths also from numpy's pairwise sum
        assert sequential != math.fsum(squares.tolist())
        assert hhi(shares) == sequential


class TestCollapseScores:
    """``_Stack.collapse`` of a one-row batch of per-node scores."""

    def test_proportional(self):
        # the scores' shares are 0.5, 0.25 and 0.25
        assert collapse({"a": 2.0, "b": 1.0, "c": 1.0}) == collapse([0.5, 0.25, 0.25])
        assert collapse({"a": 2.0, "b": 1.0, "c": 1.0}) == pytest.approx(
            (0.375 - 1.0 / 3.0) / (1.0 - 1.0 / 3.0), abs=1e-12
        )

    def test_zero_total_becomes_uniform(self):
        assert collapse({"a": 0.0, "b": 0.0}) == 0.0

    def test_star_center_monopolizes(self):
        scores = betweenness(star_graph(4))
        assert max(scores.values()) > 0.0
        assert collapse(scores) == 1.0

    @pytest.mark.parametrize("scores, node", [
        ({"a": -1.0}, "a"),
        ({"a": 1.5, "b": -0.5}, "b"),
    ])
    def test_rejects_negative_scores_naming_the_node(self, scores, node):
        with pytest.raises(MetricError, match=f"'{node}' is negative") as info:
            collapse(scores)
        assert (type(info.value.row), info.value.row) == (int, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_scores_naming_the_node(self, bad):
        with pytest.raises(MetricError, match="'a'.*not finite"):
            collapse({"a": bad, "b": 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scores_naming_the_first_node(self, bad):
        for scores in ([bad, 1.0], [0.5, bad, 0.5], [bad, 0.5, bad]):
            index = next(i for i, score in enumerate(scores) if not math.isfinite(score))
            with pytest.raises(MetricError, match=f"'n{index:03d}' is not finite: {bad!r}"):
                collapse(scores)

    def test_names_the_node_in_sorted_label_order(self):
        # columns in node order b, a; the collapse checks a first
        with pytest.raises(MetricError, match="'a' is not finite"):
            collapse({"b": math.nan, "a": math.inf})


class TestBetweenness:
    def test_three_path(self):
        scores = betweenness(path_graph("a", "b", "c"))
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_four_path(self):
        scores = betweenness(path_graph("a", "b", "c", "d"))
        assert scores["b"] == pytest.approx(2.0)
        assert scores["c"] == pytest.approx(2.0)
        assert scores["a"] == scores["d"] == 0.0

    def test_complete_graph_zero(self):
        scores = betweenness(complete_graph(4))
        assert all(v == 0.0 for v in scores.values())

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=10)
            mine = betweenness(g)
            exact = brute_betweenness(g)
            for v in mine:
                assert mine[v] == pytest.approx(float(exact[v]), abs=1e-9)

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_path_enumeration(self, g):
        mine = betweenness(g)
        exact = brute_betweenness(g)
        assert list(mine) == list(g.node_ids())
        for v in mine:
            assert abs(mine[v] - float(exact[v])) <= 1e-9

    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_property_exact_on_forests(self, g):
        exact = brute_betweenness(g)
        assert betweenness(g) == {v: float(exact[v]) for v in g.node_ids()}


class TestEngineLimits:
    def test_too_many_nodes_for_int16_distances(self):
        g = Multigraph()
        for i in range(2**15 + 1):
            g.add_node(Node(f"v{i}", "other"))
        for kind in (MetricKind.BETWEENNESS, MetricKind.CLOSENESS):
            with pytest.raises(MetricError, match="too large"):
                compute_metric(g, kind)


class TestCloseness:
    def test_disconnected_pair(self):
        g = Multigraph()
        g.add_node(Node("a", "x"))
        g.add_node(Node("b", "x"))
        assert closeness(g) == {"a": 0.0, "b": 0.0}

    def test_three_path(self):
        scores = closeness(path_graph("a", "b", "c"))
        assert scores["b"] == pytest.approx(2.0)
        assert scores["a"] == pytest.approx(1.5)
        assert scores["c"] == pytest.approx(1.5)

    def test_triangle(self):
        scores = closeness(complete_graph(3))
        assert all(v == pytest.approx(2.0) for v in scores.values())

    def test_matches_floyd_warshall_oracle(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=10)
            mine = closeness(g)
            exact = brute_harmonic_closeness(g)
            for v in mine:
                assert mine[v] == pytest.approx(exact[v], abs=1e-9)

    @given(multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_property_equals_ordered_sum_of_inverse_distances(self, g):
        dist = floyd_warshall(undirected_adjacency(g))
        mine = closeness(g)
        assert list(mine) == list(g.node_ids())
        for v, row in dist.items():
            total = 0.0
            for d in sorted(d for u, d in row.items() if u != v and d != INF):
                total += 1.0 / d
            assert mine[v] == total


class TestFloatContract:
    """Closeness equals a queue BFS per source that adds 1/d in the order it
    reaches the nodes, bit for bit; betweenness on forests is the exact pair
    count (``TestBetweenness.test_property_exact_on_forests``)."""

    @given(multigraphs() | forests())
    @settings(max_examples=100, deadline=None)
    def test_closeness_equals_the_queue_bfs(self, g):
        assert closeness(g) == reference_harmonic_closeness(g)


class TestPagerank:
    def test_single_node(self):
        g = Multigraph()
        g.add_node(Node("only", "x"))
        assert pagerank(g) == {"only": 1.0}

    def test_directed_cycle_uniform(self):
        g = Multigraph()
        for v in ("a", "b", "c"):
            g.add_node(Node(v, "x"))
        g.add_edge("a", "p", "b")
        g.add_edge("b", "p", "c")
        g.add_edge("c", "p", "a")
        scores = pagerank(g)
        for v in scores:
            assert scores[v] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_two_node_chain_against_dense_solve(self):
        g = Multigraph()
        g.add_node(Node("a", "x"))
        g.add_node(Node("b", "x"))
        g.add_edge("a", "p", "b")
        scores = pagerank(g)
        assert scores["b"] > scores["a"]
        # frozen from the dense fixed-point solve of (I - dM) x = (1-d)/N
        assert scores["a"] == pytest.approx(0.3508771929824562, abs=1e-8)
        assert scores["b"] == pytest.approx(0.6491228070175439, abs=1e-8)

    def test_matches_dense_solve_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_multigraph(rng, max_nodes=10)
            mine = pagerank(g)
            exact = dense_pagerank(g)
            for v in mine:
                assert mine[v] == pytest.approx(exact[v], abs=1e-8)

    def test_scores_sum_to_one(self):
        rng = random.Random(24)
        for _ in range(20):
            g = random_multigraph(rng, max_nodes=12)
            assert sum(pagerank(g).values()) == pytest.approx(1.0, abs=1e-9)

    def test_nonconvergence_carries_last_iterate(self):
        g = random_multigraph(random.Random(25), max_nodes=8)
        with pytest.raises(ConvergenceError) as info:
            pagerank(g, tol=0.0, max_iter=3)
        assert sum(info.value.last_scores.values()) == pytest.approx(1.0, abs=1e-6)

    @given(multigraphs(), st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_property_equals_reference_iteration(self, g, damping):
        # isolated nodes are dangling; self-loops and parallel edges weight
        # the transitions; high damping may not converge within max_iter
        def outcome(fn):
            try:
                return "converged", fn(g, damping=damping)
            except ConvergenceError as exc:
                return "diverged", exc.last_scores

        assert outcome(pagerank) == outcome(reference_pagerank)

    @given(multigraphs(), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_property_nonconvergence_equals_reference_iteration(self, g, max_iter):
        with pytest.raises(ConvergenceError) as mine:
            pagerank(g, tol=0.0, max_iter=max_iter)
        with pytest.raises(ConvergenceError) as reference:
            reference_pagerank(g, tol=0.0, max_iter=max_iter)
        assert str(mine.value) == str(reference.value)
        assert mine.value.last_scores == reference.value.last_scores


class TestComputeMetric:
    def test_directed_cycle_density(self):
        g = Multigraph()
        for v in ("a", "b", "c"):
            g.add_node(Node(v, "x"))
        g.add_edge("a", "p", "b")
        g.add_edge("b", "p", "c")
        g.add_edge("c", "p", "a")
        assert compute_metric(g, MetricKind.DENSITY).value == pytest.approx(0.5)
        assert compute_metric(g, MetricKind.NODE_COUNT).value == 3
        assert compute_metric(g, MetricKind.EDGE_COUNT).value == 3
        assert compute_metric(g, MetricKind.AVERAGE_DEGREE).value == pytest.approx(1.0)

    def test_star_betweenness_fully_concentrated(self):
        value = compute_metric(star_graph(4), MetricKind.BETWEENNESS)
        assert value.value == pytest.approx(1.0, abs=1e-12)

    def test_six_cycle_betweenness_balanced(self):
        value = compute_metric(cycle_graph(6), MetricKind.BETWEENNESS)
        assert value.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(MetricKind, key=lambda k: k.value))
    def test_empty_graph(self, kind):
        g = Multigraph()
        if kind in (MetricKind.NODE_COUNT, MetricKind.EDGE_COUNT,
                    MetricKind.DENSITY, MetricKind.AVERAGE_DEGREE):
            assert compute_metric(g, kind).value == 0.0
        else:
            with pytest.raises(MetricError, match="empty"):
                compute_metric(g, kind)

    @pytest.mark.parametrize(
        "graph", [cycle_graph(3), cycle_graph(5), cycle_graph(8),
                  complete_graph(3), complete_graph(5)],
        ids=["c3", "c5", "c8", "k3", "k5"],
    )
    @pytest.mark.parametrize(
        "kind",
        [MetricKind.IN_DEGREE, MetricKind.OUT_DEGREE, MetricKind.PAGERANK,
         MetricKind.BETWEENNESS, MetricKind.CLOSENESS],
        ids=lambda k: k.value,
    )
    def test_vertex_transitive_graphs_have_zero_concentration(self, graph, kind):
        # the undirected builders orient edges one way, which skews in/out
        # degrees; symmetrize for this property
        g = Multigraph()
        for node in graph.nodes():
            g.add_node(node)
        for s, p, t in graph.edges():
            g.add_edge(s, p, t)
            g.add_edge(t, p, s)
        assert compute_metric(g, kind).value == pytest.approx(0.0, abs=1e-9)

    def test_density_in_unit_interval(self):
        rng = random.Random(26)
        for _ in range(20):
            g = random_multigraph(rng, max_nodes=10, p=0.4)
            # parallel predicates can push the raw count past the simple
            # maximum; restrict the check to simple-edge graphs
            if any(len(p) > 1 for v in g.node_ids() for p in g.successors(v).values()):
                continue
            assert 0.0 <= compute_metric(g, MetricKind.DENSITY).value <= 1.0

    def test_counts_match_direct_enumeration(self):
        rng = random.Random(27)
        for _ in range(15):
            g = random_multigraph(rng, max_nodes=12)
            assert compute_metric(g, MetricKind.NODE_COUNT).value == len(
                list(g.node_ids())
            )
            assert compute_metric(g, MetricKind.EDGE_COUNT).value == len(
                list(g.edges())
            )

    def test_from_name(self):
        assert MetricKind.from_name("betweenness") is MetricKind.BETWEENNESS
        with pytest.raises(MetricError, match="unknown metric"):
            MetricKind.from_name("bogus")


def _pagerank_rows(graphs, **kwargs):
    """Each graph's PageRank from one batched run."""
    return node_scores(graphs, MetricKind.PAGERANK, **kwargs)


def _outcome(fn, g, **kwargs):
    try:
        return "converged", fn(g, **kwargs)
    except ConvergenceError as exc:
        return str(exc), exc.last_scores


def _fixed_graphs():
    """A 1-node graph, and one with an isolated node, a dangling node, a
    self-loop and parallel edges."""
    single = Multigraph()
    single.add_node(Node("only", "x"))
    mixed = Multigraph()
    for v in ("a", "b", "c", "d"):
        mixed.add_node(Node(v, "x"))
    mixed.add_edge("a", "rel", "b")
    mixed.add_edge("a", "alt", "b")
    mixed.add_edge("b", "rel", "b")
    mixed.add_edge("d", "rel", "a")
    return [single, mixed]


@st.composite
def batches(draw, max_nodes=MAX_ENGINE_NODES, max_size=6):
    """Random multigraphs of mixed sizes, with the fixed graphs mixed in."""
    graphs = draw(st.lists(multigraphs(max_nodes), min_size=0, max_size=max_size))
    for g in _fixed_graphs():
        graphs.insert(draw(st.integers(0, len(graphs))), g)
    return graphs


class TestBatch:
    """A row of a batch equals its graph scored alone."""

    @given(batches(), st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_converging_rows_equal_batch_of_one_and_reference(self, graphs, damping):
        # max_iter is high enough here for every row to converge
        rows = _pagerank_rows(graphs, damping=damping, max_iter=10_000)
        for g, row in zip(graphs, rows):
            assert row == pagerank(g, damping=damping, max_iter=10_000)
            assert row == reference_pagerank(g, damping=damping, max_iter=10_000)

    @given(batches(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_first_row_left_moving_raises_as_reference(self, graphs, max_iter):
        # with few iterations some rows converge and some do not; rows that
        # stop early are frozen while the others go on
        expected = [_outcome(reference_pagerank, g, max_iter=max_iter) for g in graphs]
        failing = [i for i, (status, _) in enumerate(expected) if status != "converged"]
        if not failing:
            rows = _pagerank_rows(graphs, max_iter=max_iter)
            assert [("converged", row) for row in rows] == expected
            return
        with pytest.raises(ConvergenceError) as info:
            _pagerank_rows(graphs, max_iter=max_iter)
        assert info.value.row == failing[0]
        assert (str(info.value), info.value.last_scores) == expected[failing[0]]

    @given(batches(), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_non_converging_rows_carry_their_last_iterate(self, graphs, max_iter):
        # tol=0 never converges: every suffix of the batch fails on its first row
        for start, g in enumerate(graphs):
            with pytest.raises(ConvergenceError) as info:
                _pagerank_rows(graphs[start:], tol=0.0, max_iter=max_iter)
            assert (type(info.value.row), info.value.row) == (int, 0)
            expected = _outcome(reference_pagerank, g, tol=0.0, max_iter=max_iter)
            assert (str(info.value), info.value.last_scores) == expected
            assert _outcome(pagerank, g, tol=0.0, max_iter=max_iter) == expected

    @given(batches(max_nodes=20, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_every_metric_row_equals_the_graph_alone(self, graphs):
        kinds = list(MetricKind)
        values = score_stack(disjoint_batch(graphs), kinds)
        assert list(values) == kinds
        for kind in kinds:
            assert values[kind] == [compute_metric(g, kind) for g in graphs]

    def test_empty_batch(self):
        empty = score_stack(disjoint_batch([]), [MetricKind.PAGERANK])
        assert empty == {MetricKind.PAGERANK: []}

    def test_error_names_its_row(self):
        graphs = [*_fixed_graphs(), Multigraph()]
        with pytest.raises(MetricError, match="pagerank is undefined") as info:
            score_stack(disjoint_batch(graphs), [MetricKind.NODE_COUNT, MetricKind.PAGERANK])
        assert info.value.row == 2

    @given(st.lists(st.text(max_size=3), max_size=12, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_label_order_is_sorted_labels(self, labels, data):
        """Each batch row's label order sorts its labels: in a batch cut from
        one graph by a membership mask, in one cut from two such (graph,
        mask) pairs whose graphs share every label, in one cut from the
        disjoint union of one-row batches, and in one cut from the union of
        both kinds of rows, where each row keeps its input's nodes and
        pairs."""

        def edges(size):
            ends = st.integers(0, size - 1)
            return data.draw(st.lists(st.tuples(ends, ends), max_size=3 * size)) if size else []

        base = compiled_edges(labels, edges(len(labels)))
        row_masks = st.lists(st.booleans(), min_size=len(labels), max_size=len(labels))
        mask = data.draw(st.lists(row_masks, min_size=1, max_size=4))
        mask = np.array(mask, dtype=bool).reshape(len(mask), len(labels))
        cut = _Stack.cut([(base, mask)])
        # a second graph on the same labels, cut by a second mask
        other = compiled_edges(labels, edges(len(labels)))
        other_mask = mask[::-1]
        twice = _Stack.cut([(base, mask), (other, other_mask)])
        assert len(twice) == 2 * len(mask)
        for part, (graph, part_mask) in enumerate(((base, mask), (other, other_mask))):
            alone = _Stack.cut([(graph, part_mask)])
            for row in range(len(alone)):
                got, want = twice.rows([part * len(mask) + row]), alone.rows([row])
                assert got.nodes(0) == want.nodes(0)
                for name in ("row_src", "row_dst", "mult"):
                    assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
        # some of the nodes, each row in a drawn order
        orders = data.draw(st.lists(st.permutations(labels), min_size=1, max_size=4))
        rows = [order[: data.draw(st.integers(0, len(labels)))] for order in orders]
        graphs = [compiled_edges(row, edges(len(row))) for row in rows]
        # the cut's rows and the one-row batches, in a drawn order
        inputs = data.draw(st.permutations([cut.rows([r]) for r in range(len(cut))] + graphs))
        mixed = disjoint_batch(inputs)
        for stack in (cut, twice, disjoint_batch(graphs), mixed):
            for row in range(len(stack)):
                nodes = stack.nodes(row)
                order = stack.label_order[row, : stack.sizes[row]]
                assert [nodes[i] for i in order] == sorted(nodes)
        assert len(mixed) == len(inputs)
        for row, graph in enumerate(inputs):
            assert [label.split("/", 1)[1] for label in mixed.nodes(row)] == graph.nodes(0)
            alone = mixed.rows([row])
            for name in ("row_src", "row_dst", "mult"):
                assert getattr(alone, name).tolist() == getattr(graph, name).tolist(), name


def _kernel_calls(monkeypatch):
    """Record every BFS pass as (graph size, source rows) and the rows of
    every `_pagerank_batch` stack."""
    calls = {"bfs": record_bfs_calls(monkeypatch), "pagerank_rows": []}
    pagerank_batch = metrics_module._pagerank_batch

    def counting_pagerank(stack, *args, **kwargs):
        calls["pagerank_rows"].append(len(stack))
        return pagerank_batch(stack, *args, **kwargs)

    monkeypatch.setattr(metrics_module, "_pagerank_batch", counting_pagerank)
    return calls


def _plus(base: _Stack, added, edges) -> _Stack:
    """The one-row batch ``base`` plus the ``added`` nodes, last, and one
    more edge per (source, target) label pair of ``edges``."""
    nodes = base.nodes(0) + list(added)
    index = {v: i for i, v in enumerate(nodes)}
    pairs = zip(base.row_src.tolist(), base.row_dst.tolist(), base.mult.tolist())
    ends = [(i, j) for i, j, mult in pairs for _ in range(mult)]
    return compiled_edges(nodes, ends + [(index[s], index[t]) for s, t in edges])


def _attached(base: _Stack, labels, anchor):
    """``base`` plus one node per label, each alone and tied to ``anchor`` by
    one edge each way: one shape under different labels."""
    return [_plus(base, [label], [(anchor, label), (label, anchor)]) for label in labels]


def _alone(graphs, kinds):
    """Each metric of ``kinds`` on each one-row batch of ``graphs`` scored
    alone, as :func:`score_stack` gives them for the batch of all."""
    alone = [score_stack(graph, kinds) for graph in graphs]
    return {kind: [values[kind][0] for values in alone] for kind in kinds}


class TestRepeatedGraphs:
    """The kernels run once per distinct graph; every row is still collapsed
    in its own label order and equals its graph scored alone."""

    # an added label sorts first, among the others, or last
    LABELS = ["0", "n1z", "~", "n"]

    @given(multigraphs(max_nodes=20), st.permutations(LABELS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_copies_of_one_shape_share_one_kernel_pass(self, g, labels, data):
        base = compile_graph(g)
        anchor = data.draw(st.sampled_from(base.nodes(0)))
        graphs = _attached(base, labels[: data.draw(st.integers(2, 4))], anchor)
        kinds = list(MetricKind)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _kernel_calls(monkeypatch)
            values = score_stack(disjoint_batch(graphs), kinds)
        # one distinct extension: the BFS from each node of its 2-core, if any
        assert calls == {"bfs": core_passes(graphs[:1]), "pagerank_rows": [1]}
        assert values == _alone(graphs, kinds)

    def test_other_multiplicity_or_an_isolated_node_is_not_merged(self, monkeypatch):
        base = compile_graph(cycle_graph(3))
        graphs = [
            _plus(base, ["x"], [("c0", "x")]),
            _plus(base, ["y"], [("c0", "y"), ("c0", "y")]),
            _plus(base, ["z", "w"], [("c0", "z")]),
        ]
        # the same pairs each time, so only the multiplicity or the node count
        # tells the graphs apart
        assert len({(g.src.tobytes(), g.dst.tobytes()) for g in graphs}) == 1
        calls = _kernel_calls(monkeypatch)
        values = score_stack(disjoint_batch(graphs), list(MetricKind))
        # three distinct graphs: one BFS on each one's 2-core, the triangle
        assert calls == {"bfs": [(3, 3)] * 3, "pagerank_rows": [3]}
        monkeypatch.undo()
        assert values == _alone(graphs, list(MetricKind))

    def test_error_for_a_shared_shape_names_its_first_row(self, monkeypatch):
        base = compile_graph(cycle_graph(4))
        # two shapes, each under two labels: rows 0-1 and rows 2-3
        graphs = [*_attached(base, ["p", "q"], "c0"), *_attached(base, ["x", "y"], "c1")]
        expected = pagerank(graphs[2])
        real = metrics_module._pagerank_batch

        def failing(stack, *args, **kwargs):
            # the stack's last row holds the second shape
            ranks = real(stack, *args, **kwargs)
            row = len(stack) - 1
            raise ConvergenceError("injected", stack.by_node(row, ranks[row]), row)

        monkeypatch.setattr(metrics_module, "_pagerank_batch", failing)
        with pytest.raises(ConvergenceError, match="injected") as info:
            score_stack(disjoint_batch(graphs), [MetricKind.PAGERANK])
        assert info.value.row == 2
        assert unprefixed(info.value.last_scores) == expected
        assert "x" in expected

"""Network metrics and the concentration collapse.

Scalar metrics (node count, edge count, density, average degree) come out
directly. Distribution-valued metrics (degrees, PageRank, betweenness,
closeness) are collapsed to one number with the normalized Herfindahl-
Hirschman index: 0 means the scores spread evenly over the graph, 1 means a
single node monopolizes them. ``compute_metric`` is the one entry for a
metric: it returns that one number for a graph.
"""

from kgrerank import MetricKind, Multigraph, Node, compute_metric, hhi, hhi_normalized


def graph_from(edges, directed=False):
    g = Multigraph()
    for v in sorted({v for e in edges for v in e}):
        g.add_node(Node(v, "node"))
    for a, b in edges:
        g.add_edge(a, "rel", b)
        if not directed:
            g.add_edge(b, "rel", a)
    return g


# The index itself: shares of 1 summing to 1.
print("HHI  of [0.5, 0.3, 0.2]:", hhi([0.5, 0.3, 0.2]))
print("HHI* of [0.5, 0.3, 0.2]:", round(hhi_normalized([0.5, 0.3, 0.2]), 4))
print("HHI* of uniform fifths: ", hhi_normalized([0.2] * 5))
print("HHI* of a monopoly:     ", hhi_normalized([1.0, 0.0, 0.0]))

# A star concentrates betweenness entirely on the hub; a cycle spreads it.
star = graph_from([("hub", f"leaf{i}") for i in range(5)])
cycle = graph_from([(f"c{i}", f"c{(i + 1) % 6}") for i in range(6)])
print()
for name, g in (("star", star), ("cycle", cycle)):
    value = compute_metric(g, MetricKind.BETWEENNESS).value
    print(f"betweenness concentration of the {name}: {value:.1f}")

# Harmonic closeness handles disconnected graphs without special cases: on
# two disconnected edges each node reaches one other at distance 1, so the
# scores are even.
split = graph_from([("a", "b"), ("c", "d")])
value = compute_metric(split, MetricKind.CLOSENESS).value
print(f"\ncloseness concentration of two disconnected edges: {value:.1f}")

# PageRank runs on the directed view with uniform teleport, so rank gathers
# at the end of a chain.
chain = graph_from([("a", "b"), ("b", "c")], directed=True)
value = compute_metric(chain, MetricKind.PAGERANK).value
print(f"pagerank concentration of a -> b -> c: {value:.4f}")

# Every metric lands in a comparable scalar via compute_metric.
print("\nall metrics on the 6-cycle:")
for kind in sorted(MetricKind, key=lambda k: k.value):
    print(f"  {kind.value:>14}: {compute_metric(cycle, kind).value:.4f}")

"""Network metrics and the concentration collapse.

Scalar metrics (node count, edge count, density, average degree) come out
directly. Distribution-valued metrics (degrees, PageRank, betweenness,
closeness) are collapsed to one number with the normalized Herfindahl-
Hirschman index: 0 means the scores spread evenly over the graph, 1 means a
single node monopolizes them. ``compute_metric`` is the one entry for a
metric: it returns that one number for a graph.
"""

from kgrerank import MetricKind, Multigraph, Node, compute_metric


def graph_from(edges, directed=False):
    g = Multigraph()
    for v in sorted({v for e in edges for v in e}):
        g.add_node(Node(v, "node"))
    for a, b in edges:
        g.add_edge(a, "rel", b)
        if not directed:
            g.add_edge(b, "rel", a)
    return g


# The index itself, on in-degrees: a node's share is its in-degree over all
# in-degrees, HHI is the sum of the squared shares (in [1/N, 1]), and the value
# is (HHI - 1/N) / (1 - 1/N). A directed ring gives every node the same share
# (0); a fan-in star gives the hub all of it (1); on a, b -> c -> d the shares
# are 0, 0, 2/3 and 1/3, so HHI = 5/9 and the value is (5/9 - 1/4) / (3/4) = 11/27.
ring = graph_from([(f"r{i}", f"r{(i + 1) % 5}") for i in range(5)], directed=True)
fan_in = graph_from([(f"leaf{i}", "hub") for i in range(5)], directed=True)
mixed = graph_from([("a", "c"), ("b", "c"), ("c", "d")], directed=True)
for name, g in (("directed 5-ring", ring), ("fan-in star", fan_in), ("a, b -> c -> d", mixed)):
    value = compute_metric(g, MetricKind.IN_DEGREE).value
    print(f"in-degree concentration of the {name}: {value:.4f}")

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

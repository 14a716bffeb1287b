"""Independent brute-force oracles used to check the library implementations.

These deliberately take different algorithmic routes: distances come from
Floyd-Warshall instead of BFS, betweenness from explicit enumeration of every
shortest path with exact Fraction accounting instead of Brandes accumulation,
and PageRank from a dense linear solve instead of power iteration.
``reference_pagerank`` is the exception: the same power iteration as the
library, written as plain Python loops over dicts, so that the library's
array form can be held to it bit for bit; so are ``reference_baseline`` and
``reference_recommend``, the scalar form of the base recommender; and
``reference_harmonic_closeness``, a queue BFS per source that fixes the order
in which closeness adds its terms. ``reference_rerank`` is the paper's method
end to end on these oracles, with no code shared with the library's engine.
Float sums add left to right (``reduce(add, ...)``), because built-in ``sum``
compensates from Python 3.12 on.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from kgrerank import (
    CatalogGraph,
    ConvergenceError,
    MetricKind,
    Multigraph,
    NeighborhoodMode,
    Node,
    RecommendationList,
    SortOrder,
)

INF = float("inf")


def undirected_adjacency(g) -> dict[str, set[str]]:
    """Adjacency sets rebuilt from the edge list alone."""
    adj: dict[str, set[str]] = {v: set() for v in g.node_ids()}
    for s, _, t in g.edges():
        if s != t:
            adj[s].add(t)
            adj[t].add(s)
    return adj


def two_core(g) -> set[str]:
    """The nodes left after removing nodes of degree 0 or 1 again and again,
    degrees counted on the undirected view without self-loops."""
    adj = undirected_adjacency(g)
    left = set(adj)
    while True:
        low = {v for v in left if len(adj[v] & left) <= 1}
        if not low:
            return left
        left -= low


def floyd_warshall(adj: dict[str, set[str]]) -> dict[str, dict[str, float]]:
    nodes = sorted(adj)
    dist = {
        a: {b: 0.0 if a == b else (1.0 if b in adj[a] else INF) for b in nodes}
        for a in nodes
    }
    for k in nodes:
        dk = dist[k]
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in nodes:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def enumerate_shortest_paths(adj, dist, source, target) -> list[list[str]]:
    """Every shortest path from source to target, as explicit node lists."""
    if dist[source][target] == INF:
        return []
    paths: list[list[str]] = []

    def walk(v, acc):
        if v == target:
            paths.append(list(acc))
            return
        for w in sorted(adj[v]):
            if dist[w][target] == dist[v][target] - 1:
                acc.append(w)
                walk(w, acc)
                acc.pop()

    walk(source, [source])
    return paths


def brute_betweenness(g) -> dict[str, Fraction]:
    """Exact betweenness over unordered pairs by enumerating shortest paths."""
    adj = undirected_adjacency(g)
    dist = floyd_warshall(adj)
    nodes = sorted(adj)
    scores = {v: Fraction(0) for v in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            paths = enumerate_shortest_paths(adj, dist, s, t)
            if not paths:
                continue
            share = Fraction(1, len(paths))
            for path in paths:
                for interior in path[1:-1]:
                    scores[interior] += share
    return scores


def brute_harmonic_closeness(g) -> dict[str, float]:
    adj = undirected_adjacency(g)
    dist = floyd_warshall(adj)
    return {
        v: reduce(add, (
            1.0 / dist[v][u] for u in adj if u != v and dist[v][u] != INF
        ), 0.0)
        for v in adj
    }


def reference_harmonic_closeness(g) -> dict[str, float]:
    """Harmonic closeness from a queue BFS per source: the terms 1/d are
    added left to right in the order the BFS reaches their nodes, which is
    non-decreasing distance order."""
    adj = undirected_adjacency(g)
    scores = {}
    for source in g.node_ids():
        dist = {source: 0}
        queue = deque([source])
        terms = []
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    terms.append(1.0 / dist[w])
                    queue.append(w)
        scores[source] = reduce(add, terms, 0.0)
    return scores


def dense_pagerank(g, damping: float = 0.85) -> dict[str, float]:
    """Fixed point of the PageRank equations via a dense linear solve."""
    nodes = list(g.node_ids())
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    M = np.zeros((n, n))
    for v in nodes:
        succ = g.successors(v)
        total = sum(len(p) for p in succ.values())
        if total == 0:
            M[:, index[v]] = 1.0 / n
        else:
            for t, preds in succ.items():
                M[index[t], index[v]] += len(preds) / total
    x = np.linalg.solve(np.eye(n) - damping * M, (1.0 - damping) / n * np.ones(n))
    return dict(zip(nodes, x))


def reference_pagerank(
    g, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 200
) -> dict[str, float]:
    """PageRank by power iteration in pure Python, summing in node order.

    Each node's contributions reach their targets in source order, and the
    dangling mass and the L1 change are left-to-right sums.
    """
    nodes = list(g.node_ids())
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    out_lists: list[list[tuple[int, float]]] = []
    for v in nodes:
        succ = g.successors(v)
        total = sum(len(p) for p in succ.values())
        if total == 0:
            out_lists.append([])
        else:
            out_lists.append(
                [(index[t], len(p) / total) for t, p in sorted(succ.items())]
            )

    ranks = [1.0 / n] * n
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = [base] * n
        dangling = reduce(add, (ranks[i] for i in range(n) if not out_lists[i]), 0.0)
        if dangling:
            spread = damping * dangling / n
            nxt = [x + spread for x in nxt]
        for i, targets in enumerate(out_lists):
            if targets:
                r = damping * ranks[i]
                for j, w in targets:
                    nxt[j] += r * w
        change = reduce(add, (abs(a - b) for a, b in zip(nxt, ranks)), 0.0)
        ranks = nxt
        if change < tol:
            return dict(zip(nodes, ranks))
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations",
        dict(zip(nodes, ranks)),
    )


def brute_extension(graph, catalog, item: str, closed: bool):
    """(added node ids, added edges) of extending ``graph`` by ``item``.

    Straight from the rule, over the whole catalog edge list: the added nodes
    are the candidate and, in closed mode, its neighbors, less those already
    in ``graph``. A catalog edge is added if one end is the candidate or an
    added node, the other end is in ``graph`` or (closed mode only) added,
    and ``graph`` does not have it yet.
    """
    reach = {item}
    if closed:
        for s, _, t in catalog.edges():
            if item in (s, t):
                reach.update((s, t))
    present = set(graph.node_ids())
    added = reach - present
    touched = added | {item}
    ends = present | added if closed else present
    have = set(graph.edges())
    edges = {
        (s, p, t)
        for s, p, t in catalog.edges()
        if ((s in touched and t in ends) or (t in touched and s in ends))
        and (s, p, t) not in have
    }
    return sorted(added), sorted(edges)


def materialized_extension(graph, catalog, item: str, closed: bool) -> Multigraph:
    """A new graph of ``graph``'s nodes, then :func:`brute_extension`'s added
    in sorted order, and of ``graph``'s edges and its added edges."""
    added, edges = brute_extension(graph, catalog, item, closed)
    extended = type(graph)()
    for node in graph.nodes():
        extended.add_node(node)
    for v in added:
        extended.add_node(catalog.node(v))
    for s, p, t in [*graph.edges(), *edges]:
        extended.add_edge(s, p, t)
    return extended


def plain_hhi(scores) -> float:
    """Normalized HHI of a per-node score map, in sorted-label order: 0 for
    a uniform split, 1 for a monopoly; zero total mass counts as uniform."""
    values = [float(scores[k]) for k in sorted(scores)]
    n = len(values)
    if n == 1:
        return 1.0
    total = reduce(add, values, 0.0)
    shares = [v / total for v in values] if total else [1.0 / n] * n
    raw = reduce(add, (s * s for s in shares), 0.0)
    return min(1.0, max(0.0, (raw - 1.0 / n) / (1.0 - 1.0 / n)))


def induced_profile(catalog, history) -> Multigraph:
    """The history items, their catalog neighbours and every catalog edge
    between two of those nodes, by one loop over the catalog's edges."""
    nodes = set(history)
    for s, _, t in catalog.edges():
        if s in history:
            nodes.add(t)
        if t in history:
            nodes.add(s)
    return induced_subgraph(catalog, sorted(nodes))


def induced_subgraph(catalog, nodes, loopless=()) -> Multigraph:
    """A new graph of ``nodes``, added in that order, and of every catalog
    edge between two of them, by one loop over the catalog's edges; a node
    in ``loopless`` keeps no self-loop."""
    members = set(nodes)
    g = Multigraph()
    for v in nodes:
        g.add_node(catalog.node(v))
    for s, p, t in catalog.edges():
        if s in members and t in members and not (s == t and s in loopless):
            g.add_edge(s, p, t)
    return g


def reference_metric(g, metric: MetricKind) -> float:
    """One metric of ``g`` from the brute-force oracles; distributions are
    collapsed with :func:`plain_hhi`."""
    nodes = list(g.node_ids())
    edges = list(g.edges())
    n, m = len(nodes), len(edges)
    if metric is MetricKind.NODE_COUNT:
        return float(n)
    if metric is MetricKind.EDGE_COUNT:
        return float(m)
    if metric is MetricKind.DENSITY:
        return 0.0 if n <= 1 else m / (n * (n - 1))
    if metric is MetricKind.AVERAGE_DEGREE:
        return 0.0 if n == 0 else m / n
    if metric in (MetricKind.IN_DEGREE, MetricKind.OUT_DEGREE):
        end = 2 if metric is MetricKind.IN_DEGREE else 0
        degree = dict.fromkeys(nodes, 0)
        for edge in edges:
            degree[edge[end]] += 1
        return plain_hhi(degree)
    scores = {
        MetricKind.PAGERANK: dense_pagerank,
        MetricKind.BETWEENNESS: brute_betweenness,
        MetricKind.CLOSENESS: brute_harmonic_closeness,
    }[metric](g)
    return plain_hhi(scores)


def reference_values(catalog, history, recs, metric, mode) -> dict[str, float]:
    """Each candidate's metric value on its extension of the profile."""
    profile = induced_profile(catalog, set(history))
    closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
    return {
        item: reference_metric(materialized_extension(profile, catalog, item, closed), metric)
        for item, _ in recs.items
    }


def reference_rerank(catalog, history, recs, metric, order, mode, top_n):
    """The paper's re-ranking from the oracles: (item, value) pairs ordered
    by metric value (ascending or descending), then by descending base score,
    then by item id, and cut to ``top_n``."""
    values = reference_values(catalog, history, recs, metric, mode)
    sign = 1.0 if order is SortOrder.ASCENDING else -1.0
    ordered = sorted(recs.items, key=lambda e: (sign * values[e[0]], -e[1], e[0]))
    return [(item, values[item]) for item, _ in ordered[:top_n]]


# PageRank stops at an L1 change of 1e-9, so its values match the dense solve
# only to about 1e-8; every other metric is exact up to float rounding
REFERENCE_TOLERANCE = {MetricKind.PAGERANK: 1e-7}


def assert_matches_reference(got, expected, values, metric) -> None:
    """``got`` holds the library's (item, value, base score) triples in its
    order. Its items are the ``expected`` order up to swaps of candidates
    whose oracle ``values`` agree within the metric's tolerance (1e-9 unless
    :data:`REFERENCE_TOLERANCE` says otherwise), and where the library's own
    values tie exactly, the tie-break holds: descending base score, then
    item id."""
    tolerance = REFERENCE_TOLERANCE.get(metric, 1e-9)
    items = [item for item, _, _ in got]
    assert len(items) == len(set(items)) == len(expected), (items, expected)
    for position, (item, (want, value)) in enumerate(zip(items, expected)):
        assert item == want or abs(values[item] - value) <= tolerance, (
            f"{metric.value} position {position + 1}: {item!r} "
            f"({values[item]!r}) in place of {want!r} ({value!r})"
        )
    for (a, value_a, score_a), (b, value_b, score_b) in zip(got, got[1:]):
        if value_a == value_b:
            assert (-score_a, a) < (-score_b, b), (
                f"{metric.value}: the tie of {a!r} and {b!r} is not broken by "
                "descending base score, then item id"
            )


def _by_user_and_item(ratings):
    """``ratings`` ({user: {item: rating}}) without its users who rated
    nothing, and the same ratings by item."""
    by_user = {user: dict(row) for user, row in ratings.items() if row}
    by_item = {}
    for user, row in by_user.items():
        for item, value in row.items():
            by_item.setdefault(item, {})[user] = value
    return by_user, by_item


def reference_baseline(ratings, epochs: int = 10, damping: float = 10.0):
    """(mu, user biases, item biases) of the bias baseline, fitted with dicts
    and per-item and per-user loops over ``ratings``, the mapping a
    ``RatingMatrix`` is made from."""
    by_user, by_item = _by_user_and_item(ratings)
    users = sorted(by_user)
    items = sorted(by_item)
    total = 0.0
    count = 0
    for user in users:
        rated = by_user[user]
        for item in sorted(rated):
            total += rated[item]
            count += 1
    mu = total / count if count else 0.0
    bu = dict.fromkeys(users, 0.0)
    bi = dict.fromkeys(items, 0.0)
    for _ in range(epochs):
        for item in items:
            raters = by_item[item]
            residual = reduce(
                add, (raters[u] - mu - bu[u] for u in sorted(raters)), 0.0
            )
            bi[item] = residual / (damping + len(raters))
        for user in users:
            rated = by_user[user]
            residual = reduce(
                add, (rated[i] - mu - bi[i] for i in sorted(rated)), 0.0
            )
            bu[user] = residual / (damping + len(rated))
    return mu, bu, bi


def reference_predict(fit, user: str, item: str) -> float:
    """``mu + b_user + b_item`` of a :func:`reference_baseline` fit, clamped
    to [1, 1000]; an unknown user or item adds a zero bias."""
    mu, bu, bi = fit
    return min(1000.0, max(1.0, mu + bu.get(user, 0.0) + bi.get(item, 0.0)))


def reference_recommend(ratings, predict, user: str, n: int):
    """Top-n (item, score) pairs: ``predict(user, item)`` for each item that
    someone rated in ``ratings`` and ``user`` did not, sorted by (-score,
    item id)."""
    by_user, by_item = _by_user_and_item(ratings)
    if user not in by_user:
        raise ValueError(f"unknown user {user!r}")
    candidates = sorted(set(by_item) - set(by_user[user]))
    scored = sorted(
        ((predict(user, item), item) for item in candidates),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [(item, score) for score, item in scored[:n]]


def brute_cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))


def brute_ild(vectors: list[np.ndarray]) -> float:
    n = len(vectors)
    if n <= 1:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += brute_cosine_distance(vectors[i], vectors[j])
    return total / (n * (n - 1))


def brute_unexpectedness(history: list[np.ndarray], recs: list[np.ndarray]) -> float:
    total = 0.0
    for r in recs:
        for h in history:
            total += brute_cosine_distance(r, h)
    return total / (len(recs) * len(history))


def brute_ndcg(base_ids: list[str], reranked_ids: list[str], k: int) -> float:
    relevance = {item: k - r + 1 for r, item in enumerate(base_ids[:k], start=1)}

    def dcg(ids):
        return reduce(add, (
            relevance.get(item, 0) / math.log2(pos + 1)
            for pos, item in enumerate(ids[:k], start=1)
        ), 0.0)

    ideal = dcg(base_ids)
    if ideal == 0.0:
        return 1.0
    return dcg(reranked_ids) / ideal


# ---------------------------------------------------------------------------
# seeded random structure generators


def random_multigraph(rng: random.Random, max_nodes: int = 12, p: float = 0.3):
    """A small random directed graph, occasionally with parallel predicates."""
    n = rng.randint(2, max_nodes)
    g = Multigraph()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        g.add_node(Node(name, "other"))
    for a in names:
        for b in names:
            if a != b and rng.random() < p:
                g.add_edge(a, "rel", b)
                if rng.random() < 0.1:
                    g.add_edge(a, "alt", b)
    return g


def random_catalog_with_profile(
    rng: random.Random,
    n_tracks: int = 10,
    n_artists: int = 4,
    n_genres: int = 3,
    equal_scores: bool = False,
    entity_links: float = 0.0,
):
    """A random track/artist/genre catalog plus a history and candidate list.

    With ``entity_links`` > 0, each artist also links to each other artist
    and each genre with that probability, so that a candidate's new
    neighbours can bring edges to the profile of their own.
    """
    catalog = CatalogGraph()
    tracks = [f"t{i}" for i in range(n_tracks)]
    artists = [f"a{i}" for i in range(n_artists)]
    genres = [f"g{i}" for i in range(n_genres)]
    for t in tracks:
        catalog.add_node(Node(t, "track"))
    for a in artists:
        catalog.add_node(Node(a, "artist"))
    for ge in genres:
        catalog.add_node(Node(ge, "genre"))
    for t in tracks:
        catalog.add_edge(t, "maker", rng.choice(artists))
        for ge in genres:
            if rng.random() < 0.4:
                catalog.add_edge(t, "genre", ge)
    history = set(rng.sample(tracks, rng.randint(1, max(1, n_tracks // 2))))
    candidates = sorted(set(tracks) - history)[:6]
    if equal_scores:
        items = tuple((c, 1.0) for c in candidates)
    else:
        scores = sorted((round(rng.uniform(0, 10), 3) for _ in candidates), reverse=True)
        items = tuple(zip(candidates, scores))
    recs = RecommendationList(user="u", items=items)
    if entity_links:
        for a in artists:
            for other in artists + genres:
                if other != a and rng.random() < entity_links:
                    catalog.add_edge(a, "genre" if other in genres else "influenced_by", other)
    return catalog, history, recs

"""Network metrics on graph views, collapsed to scalars where needed.

Four metrics are plain scalars (node count, edge count, density, average
degree). The remaining five (in-/out-degree, PageRank, betweenness, closeness)
produce a score per node; those distributions are collapsed to a single
concentration value with the normalized Herfindahl-Hirschman index, so every
metric ends up as one number in a comparable range.

Betweenness and closeness are computed on the undirected view of the graph;
PageRank and the degree distributions use edge directions.

Betweenness and closeness share one engine. The undirected view is compiled
into a dense 0/1 float64 adjacency ``A`` in ``g.node_ids()`` order, and
sources are processed in blocks of ``_SOURCE_BLOCK`` rows: a level-synchronous
BFS (``frontier @ A``) yields hop distances and shortest-path counts (integer
valued float64, exact below 2**53). Betweenness runs Brandes' dependency pass
level by level as ``delta += sigma * (((1 + delta) / sigma) @ A)`` and adds each
source's dependencies in source order; closeness adds 1/d per source in
non-decreasing distance order.

Float contract: closeness equals a per-source queue BFS bit for bit, and so
does betweenness on trees. On graphs with cycles betweenness may differ from
it by a few ulps (up to about 4e-12 per node on 200-node profiles), because the
matrix products sum in another order; exact ties between candidates can then
break differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MetricError(ValueError):
    """Raised when a metric is requested on an unsuitable input."""


class ConvergenceError(MetricError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_scores: dict[str, float]):
        super().__init__(message)
        self.last_scores = last_scores


class MetricKind(Enum):
    NODE_COUNT = "node_count"
    EDGE_COUNT = "edge_count"
    DENSITY = "density"
    AVERAGE_DEGREE = "average_degree"
    IN_DEGREE = "in_degree"
    OUT_DEGREE = "out_degree"
    PAGERANK = "pagerank"
    BETWEENNESS = "betweenness"
    CLOSENESS = "closeness"

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise MetricError(f"unknown metric {name!r}; expected one of: {valid}")


SCALAR_KINDS = frozenset(
    {
        MetricKind.NODE_COUNT,
        MetricKind.EDGE_COUNT,
        MetricKind.DENSITY,
        MetricKind.AVERAGE_DEGREE,
    }
)
DISTRIBUTIONAL_KINDS = frozenset(set(MetricKind) - SCALAR_KINDS)


@dataclass(frozen=True)
class MetricValue:
    value: float
    kind: MetricKind


def hhi(shares: Sequence[float]) -> float:
    """Herfindahl-Hirschman index: sum of squared shares.

    ``shares`` must be non-negative and sum to 1 (within 1e-9). The result
    lies in [1/N, 1]: 1/N for a uniform split, 1 for a single monopoly.
    """
    if len(shares) == 0:
        raise MetricError("hhi requires at least one share")
    if any(s < 0 for s in shares):
        raise MetricError("shares must be non-negative")
    total = sum(shares)
    if abs(total - 1.0) > 1e-9:
        raise MetricError(f"shares must sum to 1, got {total!r}")
    return sum(s * s for s in shares)


def hhi_normalized(shares: Sequence[float]) -> float:
    """Normalized HHI in [0, 1]: 0 for uniform shares, 1 for a monopoly.

    Computed as (HHI - 1/N) / (1 - 1/N). A single share is maximally
    concentrated by definition, so N = 1 returns 1.0.
    """
    raw = hhi(shares)
    n = len(shares)
    if n == 1:
        return 1.0
    value = (raw - 1.0 / n) / (1.0 - 1.0 / n)
    # clamp away float dust so uniform inputs land exactly on 0
    return min(1.0, max(0.0, value))


def centrality_to_shares(scores: Mapping[str, float]) -> list[float]:
    """Normalize a per-node score map to shares (in sorted key order).

    A distribution with zero total mass (e.g. betweenness on a single edge)
    is treated as uniform: no node monopolizes anything. A NaN, infinite or
    negative score raises :class:`MetricError` naming its node.
    """
    if not scores:
        raise MetricError("empty centrality distribution")
    keys = sorted(scores)
    for k in keys:
        value = scores[k]
        if not math.isfinite(value):
            raise MetricError(f"centrality score of {k!r} is not finite: {value!r}")
        if value < 0:
            raise MetricError(f"centrality score of {k!r} is negative: {value!r}")
    total = sum(scores[k] for k in keys)
    if total == 0:
        return [1.0 / len(keys)] * len(keys)
    return [scores[k] / total for k in keys]


# sources per forward/backward pass; bounds the (block x n) work arrays
_SOURCE_BLOCK = 32


def _dense_undirected(g) -> tuple[list[str], np.ndarray]:
    """Node ids and the 0/1 float64 adjacency of the undirected view.

    Rows follow ``g.node_ids()``; self-loops are dropped and parallel edges
    collapse into one entry.
    """
    nodes = list(g.node_ids())
    n = len(nodes)
    if n > np.iinfo(np.int16).max + 1:
        # distances are held as int16 and reach at most n - 1
        raise MetricError(f"graph too large for the dense engine: {n} nodes")
    index = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((n, n))
    for v, i in index.items():
        for w in g.neighbors(v):
            adj[i, index[w]] = 1.0
    np.fill_diagonal(adj, 0.0)
    return nodes, adj


def _source_blocks(
    adj: np.ndarray,
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from consecutive blocks of sources.

    Yields (sources, dist, sigma) with one row per source: hop distances (-1
    where unreachable) and the number of shortest paths, held exactly as
    integer-valued float64.
    """
    n = adj.shape[0]
    for start in range(0, n, _SOURCE_BLOCK):
        sources = range(start, min(start + _SOURCE_BLOCK, n))
        rows = np.arange(len(sources))
        dist = np.full((len(sources), n), -1, dtype=np.int16)
        sigma = np.zeros(dist.shape)
        dist[rows, sources] = 0
        sigma[rows, sources] = 1.0
        frontier = sigma.copy()
        level = 0
        while True:
            reached = frontier @ adj
            new = reached > 0
            new &= dist < 0
            if not new.any():
                break
            level += 1
            np.copyto(dist, level, where=new)
            frontier = np.where(new, reached, 0.0)
            sigma += frontier
        yield sources, dist, sigma


def betweenness(g) -> dict[str, float]:
    """Shortest-path betweenness on the undirected view (Brandes accumulation).

    Returns raw, unnormalized scores counting unordered node pairs; parallel
    edges collapse into a single adjacency.
    """
    nodes, adj = _dense_undirected(g)
    bc = np.zeros(len(nodes))
    for _, dist, sigma in _source_blocks(adj):
        delta = np.zeros(dist.shape)
        coef = np.empty(dist.shape)
        top = int(dist.max())
        upper = dist == top
        # level 1 would only feed the sources, which score nothing
        for level in range(top, 1, -1):
            lower = dist == level - 1
            # where= keeps unreachable nodes (sigma 0) out: 0 * inf is NaN
            coef.fill(0.0)
            np.divide(1.0 + delta, sigma, out=coef, where=upper)
            np.add(delta, sigma * (coef @ adj), out=delta, where=lower)
            upper = lower
        # row by row in source order: the summation order of a per-source
        # loop, which the float contract in the module docstring relies on
        for row in delta:
            bc += row
    # each unordered pair was counted from both endpoints
    return {v: float(value) / 2.0 for v, value in zip(nodes, bc)}


def closeness(g) -> dict[str, float]:
    """Harmonic closeness on the undirected view: sum of 1/distance.

    Unreachable nodes contribute 0, so disconnected graphs are handled
    without special cases.
    """
    nodes, adj = _dense_undirected(g)
    out = np.empty(len(nodes))
    for sources, dist, _ in _source_blocks(adj):
        inv = np.zeros(dist.shape)
        np.divide(1.0, dist, out=inv, where=dist > 0)
        # sequential sum in non-decreasing distance, i.e. BFS, order
        inv = np.sort(inv, axis=1)[:, ::-1]
        out[sources.start : sources.stop] = np.cumsum(inv, axis=1)[:, -1]
    return {v: float(value) for v, value in zip(nodes, out)}


def pagerank(
    g, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 200
) -> dict[str, float]:
    """PageRank by power iteration on the directed graph.

    Teleport is uniform, dangling-node mass is redistributed uniformly, and
    parallel edges weight the transition proportionally. Convergence is an L1
    change below ``tol``; exceeding ``max_iter`` raises
    :class:`ConvergenceError` carrying the last iterate.
    """
    if not 0.0 < damping < 1.0:
        raise MetricError(f"damping must lie in (0, 1), got {damping!r}")
    nodes = list(g.node_ids())
    n = len(nodes)
    if n == 0:
        raise MetricError("pagerank is undefined on an empty graph")
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
        dangling = sum(ranks[i] for i in range(n) if not out_lists[i])
        if dangling:
            spread = damping * dangling / n
            nxt = [x + spread for x in nxt]
        for i, targets in enumerate(out_lists):
            if targets:
                r = damping * ranks[i]
                for j, w in targets:
                    nxt[j] += r * w
        change = sum(abs(a - b) for a, b in zip(nxt, ranks))
        ranks = nxt
        if change < tol:
            return dict(zip(nodes, ranks))
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations",
        dict(zip(nodes, ranks)),
    )


def in_degree_scores(g) -> dict[str, float]:
    return {v: float(g.in_degree(v)) for v in g.node_ids()}


def out_degree_scores(g) -> dict[str, float]:
    return {v: float(g.out_degree(v)) for v in g.node_ids()}


_DISTRIBUTIONS = {
    MetricKind.IN_DEGREE: in_degree_scores,
    MetricKind.OUT_DEGREE: out_degree_scores,
    MetricKind.PAGERANK: pagerank,
    MetricKind.BETWEENNESS: betweenness,
    MetricKind.CLOSENESS: closeness,
}


def compute_metric(g, kind: MetricKind) -> MetricValue:
    """Evaluate one metric on a graph view.

    Scalar metrics follow their definitions directly (density uses the
    directed formula |E| / (|V| (|V|-1)), average degree counts each directed
    edge once). Distributional metrics are collapsed via the normalized HHI of
    the per-node shares and therefore land in [0, 1].
    """
    n = g.num_nodes
    if kind is MetricKind.NODE_COUNT:
        return MetricValue(float(n), kind)
    if kind is MetricKind.EDGE_COUNT:
        return MetricValue(float(g.num_edges), kind)
    if kind is MetricKind.DENSITY:
        value = 0.0 if n <= 1 else g.num_edges / (n * (n - 1))
        return MetricValue(value, kind)
    if kind is MetricKind.AVERAGE_DEGREE:
        value = 0.0 if n == 0 else g.num_edges / n
        return MetricValue(value, kind)
    if kind in _DISTRIBUTIONS:
        if n == 0:
            raise MetricError(f"{kind.value} is undefined on an empty graph")
        scores = _DISTRIBUTIONS[kind](g)
        return MetricValue(hhi_normalized(centrality_to_shares(scores)), kind)
    raise MetricError(f"unknown metric kind {kind!r}")  # pragma: no cover

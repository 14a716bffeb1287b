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

Both metrics read the same per-block distances and path counts, so asking
for both costs one forward BFS. :class:`PathEngine` compiles a graph's
adjacency once (the re-ranker does this once per user profile) and evaluates
it extended by one candidate's delta at a time: the base array is copied into
an (n + k)-square array with the k added nodes last and the added edges set,
which is the array ``OverlayView`` of the same delta would compile. The
source block stays at 32 rows: from 64 rows on, OpenBLAS sums the backward
``coef @ A`` products in another order and betweenness bits change.

Float contract: closeness equals a per-source queue BFS bit for bit, and so
does betweenness on trees. On graphs with cycles betweenness may differ from
it by a few ulps (up to about 4e-12 per node on 200-node profiles), because the
matrix products sum in another order; exact ties between candidates can then
break differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
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


# Sources per forward/backward pass; bounds the (block x n) work arrays. Keep
# it at 32: from 64 rows on, OpenBLAS sums the backward ``coef @ adj``
# products in another order and betweenness values change in their last bits.
_SOURCE_BLOCK = 32

PATH_KINDS = frozenset({MetricKind.BETWEENNESS, MetricKind.CLOSENESS})


def _check_dense_size(n: int) -> None:
    # distances are held as int16 and reach at most n - 1
    if n > np.iinfo(np.int16).max + 1:
        raise MetricError(f"graph too large for the dense engine: {n} nodes")


def _dense_undirected(g) -> tuple[list[str], np.ndarray]:
    """Node ids and the 0/1 float64 adjacency of the undirected view.

    Rows follow ``g.node_ids()``; self-loops are dropped and parallel edges
    collapse into one entry.
    """
    nodes = list(g.node_ids())
    n = len(nodes)
    _check_dense_size(n)
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


def _add_dependencies(
    adj: np.ndarray, dist: np.ndarray, sigma: np.ndarray, bc: np.ndarray
) -> None:
    """Brandes' dependency pass for one source block, added into ``bc``."""
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


def _harmonic_rows(dist: np.ndarray) -> np.ndarray:
    """Sum of 1/d over each source row; unreachable nodes add nothing."""
    inv = np.zeros(dist.shape)
    np.divide(1.0, dist, out=inv, where=dist > 0)
    # sequential sum in non-decreasing distance, i.e. BFS, order
    inv = np.sort(inv, axis=1)[:, ::-1]
    return np.cumsum(inv, axis=1)[:, -1]


def _path_scores(adj: np.ndarray, kinds) -> dict[MetricKind, np.ndarray]:
    """Per-row betweenness and/or closeness of ``adj`` from one shared pass.

    Every source block's distances and path counts feed both metrics, so
    asking for both costs one forward BFS, not two.
    """
    n = adj.shape[0]
    bc = np.zeros(n) if MetricKind.BETWEENNESS in kinds else None
    cl = np.empty(n) if MetricKind.CLOSENESS in kinds else None
    for sources, dist, sigma in _source_blocks(adj):
        if bc is not None:
            _add_dependencies(adj, dist, sigma, bc)
        if cl is not None:
            cl[sources.start : sources.stop] = _harmonic_rows(dist)
    out = {}
    if bc is not None:
        # each unordered pair was counted from both endpoints
        out[MetricKind.BETWEENNESS] = bc / 2.0
    if cl is not None:
        out[MetricKind.CLOSENESS] = cl
    return out


def betweenness(g) -> dict[str, float]:
    """Shortest-path betweenness on the undirected view (Brandes accumulation).

    Returns raw, unnormalized scores counting unordered node pairs; parallel
    edges collapse into a single adjacency.
    """
    nodes, adj = _dense_undirected(g)
    scores = _path_scores(adj, (MetricKind.BETWEENNESS,))[MetricKind.BETWEENNESS]
    return dict(zip(nodes, scores.tolist()))


def closeness(g) -> dict[str, float]:
    """Harmonic closeness on the undirected view: sum of 1/distance.

    Unreachable nodes contribute 0, so disconnected graphs are handled
    without special cases.
    """
    nodes, adj = _dense_undirected(g)
    scores = _path_scores(adj, (MetricKind.CLOSENESS,))[MetricKind.CLOSENESS]
    return dict(zip(nodes, scores.tolist()))


class PathEngine:
    """Betweenness and closeness of one graph, extended by one delta at a time.

    The graph's undirected adjacency is compiled once, in ``g.node_ids()``
    order. :meth:`evaluate` copies it into a larger array with the added
    nodes last, sets the added edges and derives every requested path metric
    from one shared BFS pass. The values equal :func:`compute_metric` on the
    extended graph whose ``node_ids()`` list the added nodes last, in the
    given order, as ``OverlayView`` and ``extend_subgraph`` do.
    """

    def __init__(self, g) -> None:
        self._nodes, self._adj = _dense_undirected(g)
        self._index = {v: i for i, v in enumerate(self._nodes)}

    def evaluate(
        self,
        added: Sequence[str],
        edges: Iterable[tuple[str, str]],
        kinds: Sequence[MetricKind],
    ) -> dict[MetricKind, MetricValue]:
        """Betweenness and/or closeness (``kinds``) of the graph plus the
        ``added`` nodes and the (source, target) ``edges``; every endpoint is a
        graph node or an added one."""
        n = len(self._nodes)
        size = n + len(added)
        _check_dense_size(size)
        adj = np.zeros((size, size))
        adj[:n, :n] = self._adj
        index = self._index
        extra = {v: n + k for k, v in enumerate(added)}
        for source, target in edges:
            i = index[source] if source in index else extra[source]
            j = index[target] if target in index else extra[target]
            if i != j:
                adj[i, j] = adj[j, i] = 1.0
        nodes = self._nodes + list(added)
        scores = _path_scores(adj, kinds)
        return {
            kind: _concentration(dict(zip(nodes, scores[kind].tolist())), kind)
            for kind in kinds
        }


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
        return _concentration(_DISTRIBUTIONS[kind](g), kind)
    raise MetricError(f"unknown metric kind {kind!r}")  # pragma: no cover


def _concentration(scores: Mapping[str, float], kind: MetricKind) -> MetricValue:
    """A per-node distribution collapsed to its normalized HHI."""
    return MetricValue(hhi_normalized(centrality_to_shares(scores)), kind)

"""Network metrics on graphs, collapsed to scalars where needed.

Four metrics are plain scalars (node count, edge count, density, average
degree). The remaining five (in-/out-degree, PageRank, betweenness, closeness)
produce a score per node; those distributions are collapsed to a single
concentration value with the normalized Herfindahl-Hirschman index, so every
metric ends up as one number in a comparable range.

Every metric reads one array form of the graph, :class:`CompiledGraph` (in
the linear-algebra style of Kepner & Gilbert, *Graph Algorithms in the
Language of Linear Algebra*, 2011): the node ids in ``g.node_ids()`` order,
each directed (source, target) pair once with its number of parallel edges,
sorted by source, and, built only when a path metric asks for it, the dense
0/1 adjacency ``A`` of the undirected view. The re-ranker compiles each user
profile once and extends it by one candidate's delta at a time, added nodes
last (:meth:`CompiledGraph.extend`).

The degrees are ``np.bincount`` over the multiplicities and PageRank is a
power iteration over the pairs; both use edge directions. Betweenness and
closeness use ``A``. Sources are processed in blocks of ``_SOURCE_BLOCK`` rows:
a level-synchronous BFS (``frontier @ A``) yields hop distances and
shortest-path counts (integer valued float64, exact below 2**53). Betweenness
runs Brandes' dependency pass level by level as
``delta += sigma * (((1 + delta) / sigma) @ A)`` and adds each source's
dependencies in source order; closeness adds 1/d per source in non-decreasing
distance order. Both read the same blocks, so asking for both costs one
forward BFS. The block stays at 32 rows: from 64 rows on, OpenBLAS sums the
backward ``coef @ A`` products in another order and betweenness bits change.

Float contract: PageRank adds each pair's contribution with ``np.add.at``,
which adds in source order, and takes the dangling mass and the L1 change as
sequential left-to-right sums, not numpy's pairwise ones, so it equals a
per-node Python loop bit for bit. Degrees are exact integers. Closeness equals
a per-source queue BFS bit for bit, and so does betweenness on trees. On graphs
with cycles betweenness may differ from it by a few ulps (up to about 4e-12 per
node on 200-node profiles), because the matrix products sum in another order;
exact ties between candidates can then break differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


class CompiledGraph:
    """A graph as arrays, in one fixed node order.

    Node ``i`` is ``nodes[i]``, in ``g.node_ids()`` order. ``src``, ``dst`` and
    ``mult`` hold each directed (source, target) pair once with its number of
    parallel edges, sorted by source and then target index. Build one with
    :func:`compile_graph` or :meth:`extend`.
    """

    def __init__(
        self, nodes: list[str], src: np.ndarray, dst: np.ndarray, mult: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.src = src
        self.dst = dst
        self.mult = mult
        self.num_edges = int(mult.sum())

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The 0/1 float64 adjacency of the undirected view; self-loops are
        dropped and parallel edges collapse into one entry."""
        n = len(self.nodes)
        _check_dense_size(n)
        adj = np.zeros((n, n))
        adj[self.src, self.dst] = 1.0
        adj[self.dst, self.src] = 1.0
        np.fill_diagonal(adj, 0.0)
        return adj

    def by_node(self, values: np.ndarray) -> dict[str, float]:
        return dict(zip(self.nodes, values.tolist()))

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, weights=self.mult, minlength=len(self.nodes))

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, weights=self.mult, minlength=len(self.nodes))

    def extend(
        self, added: Sequence[str], edges: Iterable[tuple[str, str]]
    ) -> "CompiledGraph":
        """This graph plus the ``added`` nodes, last and in the given order, and
        one more parallel edge per (source, target) in ``edges``; every endpoint
        is a node of this graph or an added one."""
        index = self._index
        extra = {v: len(index) + k for k, v in enumerate(added)}
        size = len(index) + len(extra)
        ends = np.array(
            [index[v] if v in index else extra[v] for edge in edges for v in edge],
            dtype=np.intp,
        )
        # one key per parallel edge; sorted unique keys are sorted pairs
        keys = np.concatenate(
            (np.repeat(self.src * size + self.dst, self.mult), ends[::2] * size + ends[1::2])
        )
        pairs, mult = np.unique(keys, return_counts=True)
        return CompiledGraph(self.nodes + list(added), pairs // size, pairs % size, mult)


_NO_PAIRS = np.zeros(0, dtype=np.intp)


def compile_graph(g) -> CompiledGraph:
    """The array form of a graph; a :class:`CompiledGraph` is returned as is."""
    if isinstance(g, CompiledGraph):
        return g
    empty = CompiledGraph([], _NO_PAIRS, _NO_PAIRS, _NO_PAIRS)
    return empty.extend(list(g.node_ids()), [(s, t) for s, _, t in g.edges()])


# Sources per forward/backward pass; bounds the (block x n) work arrays. Keep
# it at 32: from 64 rows on, OpenBLAS sums the backward ``coef @ adj``
# products in another order and betweenness values change in their last bits.
_SOURCE_BLOCK = 32

PATH_KINDS = frozenset({MetricKind.BETWEENNESS, MetricKind.CLOSENESS})


def _check_dense_size(n: int) -> None:
    # distances are held as int16 and reach at most n - 1
    if n > np.iinfo(np.int16).max + 1:
        raise MetricError(f"graph too large for the dense engine: {n} nodes")


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
    cg = compile_graph(g)
    scores = _path_scores(cg.adjacency, (MetricKind.BETWEENNESS,))
    return cg.by_node(scores[MetricKind.BETWEENNESS])


def closeness(g) -> dict[str, float]:
    """Harmonic closeness on the undirected view: sum of 1/distance.

    Unreachable nodes contribute 0, so disconnected graphs are handled
    without special cases.
    """
    cg = compile_graph(g)
    scores = _path_scores(cg.adjacency, (MetricKind.CLOSENESS,))
    return cg.by_node(scores[MetricKind.CLOSENESS])


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
    cg = compile_graph(g)
    n = len(cg.nodes)
    if n == 0:
        raise MetricError("pagerank is undefined on an empty graph")
    out = cg.out_degrees()
    dangling = out == 0
    src, dst = cg.src, cg.dst
    weight = cg.mult / out[src]
    ranks = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = np.full(n, base)
        # sequential sums, in node order, not numpy's pairwise ones
        mass = sum(ranks[dangling].tolist())
        if mass:
            nxt += damping * mass / n
        # unbuffered, so each target adds its sources in source order
        np.add.at(nxt, dst, (damping * ranks)[src] * weight)
        change = sum(np.abs(nxt - ranks).tolist())
        ranks = nxt
        if change < tol:
            return cg.by_node(ranks)
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations", cg.by_node(ranks)
    )


def compute_metrics(g, kinds: Sequence[MetricKind]) -> dict[MetricKind, MetricValue]:
    """Evaluate several metrics on one graph, compiled once.

    Scalar metrics follow their definitions directly (density uses the
    directed formula |E| / (|V| (|V|-1)), average degree counts each directed
    edge once). Distributional metrics are collapsed via the normalized HHI of
    the per-node shares and therefore land in [0, 1]. Betweenness and
    closeness share one BFS pass.
    """
    cg = compile_graph(g)
    n, m = len(cg.nodes), cg.num_edges
    if n == 0:
        for kind in kinds:
            if kind in DISTRIBUTIONAL_KINDS:
                raise MetricError(f"{kind.value} is undefined on an empty graph")
    path_kinds = [k for k in kinds if k in PATH_KINDS]
    paths = _path_scores(cg.adjacency, path_kinds) if path_kinds else {}
    values = {}
    for kind in kinds:
        if kind is MetricKind.NODE_COUNT:
            value = float(n)
        elif kind is MetricKind.EDGE_COUNT:
            value = float(m)
        elif kind is MetricKind.DENSITY:
            value = 0.0 if n <= 1 else m / (n * (n - 1))
        elif kind is MetricKind.AVERAGE_DEGREE:
            value = 0.0 if n == 0 else m / n
        elif kind is MetricKind.PAGERANK:
            value = _concentration(pagerank(cg))
        elif kind is MetricKind.IN_DEGREE:
            value = _concentration(cg.by_node(cg.in_degrees()))
        elif kind is MetricKind.OUT_DEGREE:
            value = _concentration(cg.by_node(cg.out_degrees()))
        elif kind in PATH_KINDS:
            value = _concentration(cg.by_node(paths[kind]))
        else:  # pragma: no cover - enum is closed
            raise MetricError(f"unknown metric kind {kind!r}")
        values[kind] = MetricValue(value, kind)
    return values


def compute_metric(g, kind: MetricKind) -> MetricValue:
    """Evaluate one metric on a graph; see :func:`compute_metrics`."""
    return compute_metrics(g, (kind,))[kind]


def _concentration(scores: Mapping[str, float]) -> float:
    """A per-node distribution collapsed to its normalized HHI."""
    return hhi_normalized(centrality_to_shares(scores))

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

:func:`compute_metrics` scores a batch of graphs, one row per graph: the
re-ranker passes all of a user's candidate extensions at once, and a single
graph is a batch of one. The rows are stacked into one zero-padded (graphs x
largest graph) block whose pairs are numbered ``row * width + node``. The
degrees are one ``np.bincount`` over those pairs and PageRank is one power
iteration over the whole block; both use edge directions. Betweenness and
closeness run per graph on ``A``. Sources are processed in blocks of
``_SOURCE_BLOCK`` rows: a level-synchronous BFS (``frontier @ A``) yields hop
distances and shortest-path counts (integer valued float64, exact below
2**53). Betweenness runs Brandes' dependency pass level by level as
``delta += sigma * (((1 + delta) / sigma) @ A)`` and adds each source's
dependencies in source order; closeness adds 1/d per source in non-decreasing
distance order. Both read the same blocks, so asking for both costs one
forward BFS. The block stays at 32 rows: from 64 rows on, OpenBLAS sums the
backward ``coef @ A`` products in another order and betweenness bits change.
Every distribution is then collapsed to its HHI row by row, in sorted-label
order (:attr:`CompiledGraph.label_order`).

The kernels (PageRank, betweenness, closeness) run once per distinct graph of
a batch. Graphs with the same node count and the same ``src``, ``dst`` and
``mult`` arrays are one group: the kernels run on its first graph, and every
row of the group takes those per-node scores. Candidates that attach the same
shape to the same nodes differ only in the labels of their added nodes, and
no kernel reads a label. Degrees, scalars and the collapse stay per row, each
in the row's own label order. No bit changes: a kernel's output depends only
on those arrays, and by the float contract below a row's value does not
depend on its batch.

When betweenness or closeness meets two or more distinct extensions of one
base whose added pairs all touch an added node
(:attr:`CompiledGraph.touches_added`), the forward pass runs once per base,
not once per extension. The base's all-pairs distances (int16) and path
counts come from one BFS from every base node and are kept on the base. Each
extension runs the BFS from its k added nodes only and then updates the
base's rows source block by source block (:func:`_updated_blocks`): the
per-source distance and path-count bookkeeping of streaming betweenness
(Green, McColl & Bader, "A Fast Algorithm for Streaming Betweenness
Centrality", SocialCom 2012) on top of Brandes (2001). Every source's
dependency pass still runs. No bit changes: below 2**53 the forward pass is
exact integer arithmetic, so the update yields the BFS's 32-row blocks
exactly, and the backward products see those same blocks. A graph compiled
alone, a base with one distinct extension, an extension that adds a pair
between two base nodes and an extension whose counts reach 2**53 run the
BFS from every node.

Float contract: a row's value does not depend on the other rows of its batch,
and equals a per-node Python loop over that graph alone. Padding is zero and
adds nothing. PageRank adds each pair's contribution with ``np.add.at`` over
the stacked pairs, which are candidate-major and sorted by source, so every
target adds its sources in source order. Each row stops at its own iteration
and is frozen there while the others go on. Every other sum (the dangling
mass, the L1 change, the shares' total, the squared shares) is
``np.cumsum(..., axis=1)[:, -1]``: strictly left to right, unlike numpy's
pairwise ``sum`` and the compensated builtin ``sum`` of Python 3.12 and later.
Degrees are exact integers. Closeness equals a per-source queue BFS bit for
bit, and so does betweenness on trees. On graphs with cycles betweenness may
differ from it by a few ulps (up to about 4e-12 per node on 200-node
profiles), because the matrix products sum in another order; exact ties
between candidates can then break differently. Betweenness bits also depend
on the number of OpenBLAS threads: on the 72 extensions (216-228 nodes) of
the rich-h100 benchmark workload at seeds 1-3, ``OPENBLAS_NUM_THREADS=1``
against the default two threads of a 2-CPU host (OpenBLAS 0.3.31) changed 5
of them, by up to 1.1e-13 per node. Closeness never changed, and no ranking
moved.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class MetricError(ValueError):
    """Raised when a metric is requested on an unsuitable input.

    In a batch, ``row`` is the index of the graph the error concerns.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConvergenceError(MetricError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(
        self, message: str, last_scores: dict[str, float], row: int | None = None
    ):
        super().__init__(message, row)
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


def _running_total(values: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis."""
    return np.cumsum(values, axis=-1)[..., -1]


def _to_shares(ordered: np.ndarray, sizes: np.ndarray, label) -> np.ndarray:
    """Each row's scores divided by the row's total; ``label(row, col)`` names
    a score in errors.

    Row ``r`` holds ``sizes[r]`` scores, then zero padding. A row with zero
    total mass (e.g. betweenness on a single edge) is treated as uniform: no
    node monopolizes anything. A NaN, infinite or negative score raises
    :class:`MetricError` naming the first such node of the first such row.
    """
    bad = ~np.isfinite(ordered) | (ordered < 0)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        value = ordered[row, col].item()
        problem = "is negative" if math.isfinite(value) else "is not finite"
        raise MetricError(
            f"centrality score of {label(row, col)!r} {problem}: {value!r}", row
        )
    n = sizes[:, None].astype(float)
    total = _running_total(ordered)[:, None]
    uniform = np.where(np.arange(ordered.shape[1]) < n, 1.0 / n, 0.0)
    return np.divide(ordered, total, out=uniform, where=total != 0)


def _hhi_rows(shares: np.ndarray) -> np.ndarray:
    """Each row's sum of squared shares, once the row is checked to sum to 1."""
    total = _running_total(shares)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        row = int(np.argmax(off))
        raise MetricError(f"shares must sum to 1, got {total[row].item()!r}", row)
    return _running_total(shares * shares)


def _normalize_hhi(raw: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(HHI - 1/N) / (1 - 1/N) per row, in [0, 1]; 1 where N is 1."""
    value = np.ones(raw.shape)
    many = sizes > 1
    inv = 1.0 / sizes[many]
    value[many] = (raw[many] - inv) / (1.0 - inv)
    # clamp away float dust so uniform inputs land exactly on 0
    value = np.where(value > 0.0, value, 0.0)
    return np.where(value < 1.0, value, 1.0)


def hhi(shares: Sequence[float]) -> float:
    """Herfindahl-Hirschman index: sum of squared shares.

    ``shares`` must be non-negative and sum to 1 (within 1e-9). The result
    lies in [1/N, 1]: 1/N for a uniform split, 1 for a single monopoly. Both
    sums run left to right.
    """
    if len(shares) == 0:
        raise MetricError("hhi requires at least one share")
    if any(s < 0 for s in shares):
        raise MetricError("shares must be non-negative")
    return _hhi_rows(np.asarray(shares, dtype=float)[None, :])[0].item()


def hhi_normalized(shares: Sequence[float]) -> float:
    """Normalized HHI in [0, 1]: 0 for uniform shares, 1 for a monopoly.

    Computed as (HHI - 1/N) / (1 - 1/N). A single share is maximally
    concentrated by definition, so N = 1 returns 1.0.
    """
    raw = np.array([hhi(shares)])
    return _normalize_hhi(raw, np.array([len(shares)])).item()


def centrality_to_shares(scores: Mapping[str, float]) -> list[float]:
    """Normalize a per-node score map to shares (in sorted key order).

    A distribution with zero total mass (e.g. betweenness on a single edge)
    is treated as uniform: no node monopolizes anything. A NaN, infinite or
    negative score raises :class:`MetricError` naming its node.
    """
    if not scores:
        raise MetricError("empty centrality distribution")
    keys = sorted(scores)
    ordered = np.array([[scores[k] for k in keys]], dtype=float)
    shares = _to_shares(ordered, np.array([len(keys)]), lambda row, col: keys[col])
    return shares[0].tolist()


class CompiledGraph:
    """A graph as arrays, in one fixed node order.

    Node ``i`` is ``nodes[i]``, in ``g.node_ids()`` order. ``src``, ``dst`` and
    ``mult`` hold each directed (source, target) pair once with its number of
    parallel edges, sorted by source and then target index. Build one with
    :func:`compile_graph` or :meth:`extend`. A graph built by :meth:`extend`
    records the graph it extends as ``base``, and :attr:`touches_added`
    tells whether every added non-loop pair has an added end: then the
    undirected view of its first ``len(base.nodes)`` nodes is that of
    ``base``.
    """

    def __init__(
        self, nodes: list[str], src: np.ndarray, dst: np.ndarray, mult: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.src = src
        self.dst = dst
        self.mult = mult
        self.num_edges = int(mult.sum())
        self.base: CompiledGraph | None = None
        # the delta's (source, target) index pairs, flattened
        self._delta_ends = _NO_PAIRS

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def label_order(self) -> np.ndarray:
        """Node indices in sorted-label order, ``sorted(nodes)``: the order
        in which every distribution is collapsed."""
        order = sorted(range(len(self.nodes)), key=self.nodes.__getitem__)
        return np.array(order, dtype=np.intp)

    @cached_property
    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Hop distances (int16, -1 where unreachable) and shortest-path
        counts between every two nodes of the undirected view, from one BFS
        per node; kept for the extensions of this graph."""
        n = len(self.nodes)
        dist = np.empty((n, n), dtype=np.int16)
        sigma = np.empty((n, n))
        for block, d, s in _source_blocks(self.adjacency, range(n)):
            dist[block.start : block.stop] = d
            sigma[block.start : block.stop] = s
        return dist, sigma

    @property
    def adjacency(self) -> np.ndarray:
        """The 0/1 float64 adjacency of the undirected view; self-loops are
        dropped and parallel edges collapse into one entry. Built on each
        access, so that a batch does not keep one per graph."""
        n = len(self.nodes)
        _check_dense_size(n)
        adj = np.zeros((n, n))
        adj[self.src, self.dst] = 1.0
        adj[self.dst, self.src] = 1.0
        np.fill_diagonal(adj, 0.0)
        return adj

    def by_node(self, values: np.ndarray) -> dict[str, float]:
        return dict(zip(self.nodes, values.tolist()))

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
        graph = CompiledGraph(self.nodes + list(added), pairs // size, pairs % size, mult)
        graph.base = self
        graph._delta_ends = ends
        return graph

    @cached_property
    def touches_added(self) -> bool:
        """Whether this graph extends ``base`` and every added non-loop pair
        has an added end; built on first access, as only the path kernels
        ask."""
        if self.base is None:
            return False
        sources, targets = self._delta_ends[::2], self._delta_ends[1::2]
        added = np.maximum(sources, targets) >= len(self.base.nodes)
        return bool((added | (sources == targets)).all())


_NO_PAIRS = np.zeros(0, dtype=np.intp)


def compile_graph(g) -> CompiledGraph:
    """The array form of a graph; a :class:`CompiledGraph` is returned as is."""
    if isinstance(g, CompiledGraph):
        return g
    empty = CompiledGraph([], _NO_PAIRS, _NO_PAIRS, _NO_PAIRS)
    return empty.extend(list(g.node_ids()), [(s, t) for s, _, t in g.edges()])


class _Stack:
    """A non-empty batch of non-empty graphs as one zero-padded block.

    Row ``r`` holds graph ``r``'s nodes in columns ``0 .. sizes[r] - 1``. The
    pairs of all graphs follow one another, row by row and each in its own
    order, as flat indices ``r * width + node``.
    """

    def __init__(self, graphs: Sequence[CompiledGraph]) -> None:
        self.graphs = graphs
        self.sizes = np.array([len(g.nodes) for g in graphs])
        self.shape = (len(graphs), int(self.sizes.max()))
        self.valid = np.arange(self.shape[1]) < self.sizes[:, None]
        starts = np.arange(len(graphs)) * self.shape[1]
        offsets = np.repeat(starts, [len(g.src) for g in graphs])
        self.src = np.concatenate([g.src for g in graphs]) + offsets
        self.dst = np.concatenate([g.dst for g in graphs]) + offsets
        self.mult = np.concatenate([g.mult for g in graphs])

    def degrees(self, ends: np.ndarray) -> np.ndarray:
        """Per-node sums of the multiplicities, by ``self.src`` or ``self.dst``."""
        flat = np.bincount(ends, weights=self.mult, minlength=self.valid.size)
        return flat.reshape(self.shape)

    def collapse(self, block: np.ndarray) -> np.ndarray:
        """The normalized HHI of each row's distribution (see
        :func:`hhi_normalized`), summed in sorted-label order."""
        orders = [g.label_order for g in self.graphs]
        rows = np.repeat(np.arange(len(orders)), self.sizes)
        ordered = np.zeros(self.shape)
        ordered[self.valid] = block[rows, np.concatenate(orders)]

        def label(row: int, col: int) -> str:
            return self.graphs[row].nodes[orders[row][col]]

        shares = _to_shares(ordered, self.sizes, label)
        return _normalize_hhi(_hhi_rows(shares), self.sizes)


# Sources per forward/backward pass; bounds the (block x n) work arrays. Keep
# it at 32: from 64 rows on, OpenBLAS sums the backward ``coef @ adj``
# products in another order and betweenness values change in their last bits.
_SOURCE_BLOCK = 32

PATH_KINDS = frozenset({MetricKind.BETWEENNESS, MetricKind.CLOSENESS})


def _check_dense_size(n: int, row: int | None = None) -> None:
    # distances are held as int16 and reach at most n - 1
    if n > np.iinfo(np.int16).max + 1:
        raise MetricError(f"graph too large for the dense engine: {n} nodes", row)


def _source_blocks(
    adj: np.ndarray, sources: range
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from consecutive blocks of ``sources``.

    Yields (block, dist, sigma) with one row per source of the block: hop
    distances (-1 where unreachable) and the number of shortest paths, held
    exactly as integer-valued float64.
    """
    n = adj.shape[0]
    for start in range(sources.start, sources.stop, _SOURCE_BLOCK):
        block = range(start, min(start + _SOURCE_BLOCK, sources.stop))
        rows = np.arange(len(block))
        dist = np.full((len(block), n), -1, dtype=np.int16)
        sigma = np.zeros(dist.shape)
        dist[rows, block] = 0
        sigma[rows, block] = 1.0
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
        yield block, dist, sigma


# float64 holds every integer below this; a count that reaches it may have
# been rounded, and the update may round otherwise than the BFS
_EXACT_COUNT = 2.0**53
# stands for "no path" in int32 distance sums: above any int16 distance, and
# the sum of two stays far below the int32 range
_FAR = 2**16


def _far_where_unreachable(dist: np.ndarray) -> np.ndarray:
    """``dist`` as int32, with ``_FAR`` in place of -1."""
    out = dist.astype(np.int32)
    out[dist < 0] = _FAR
    return out


class _Inexact(Exception):
    """A path count reached 2**53, so the update may differ from the BFS."""


def _updated_blocks(
    graph: CompiledGraph, adj: np.ndarray
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """The blocks of ``_source_blocks(adj, range(n))`` for an extension whose
    added pairs all touch an added node, built from its base's all-pairs
    arrays one block at a time.

    The BFS from the k added nodes gives their own rows and, by symmetry,
    d'(s, x) and sigma'(s, x) for every source s and added node x. A
    shortest s-v path either avoids the added nodes or has a first one, x,
    entered from a base neighbour u with d(s, u) = d'(s, x) - 1. So for a
    base source s, with alpha(s, x) the sum of sigma(s, u) over those u:

        d'(s, v) = min(d(s, v), min_x d'(s, x) + d'(x, v))
        sigma'(s, v) = sigma(s, v) [d(s, v) = d'(s, v)] + sum_x
                       alpha(s, x) sigma'(x, v) [d'(s, x) + d'(x, v) = d'(s, v)]

    Every term is an integer no larger than sigma'(s, v), so below 2**53 the
    blocks equal the BFS's bit for bit; a block whose counts reach it raises
    :class:`_Inexact`.
    """
    dist0, sigma0 = graph.base._all_pairs
    n0, n = len(dist0), adj.shape[0]
    own_dist = np.empty((n - n0, n), dtype=np.int16)
    own_sigma = np.empty(own_dist.shape)
    for block, dist, sigma in _source_blocks(adj, range(n0, n)):
        own_dist[block.start - n0 : block.stop - n0] = dist
        own_sigma[block.start - n0 : block.stop - n0] = sigma
    reach = _far_where_unreachable(own_dist)
    links = [np.flatnonzero(row) for row in adj[n0:, :n0]]
    for start in range(0, n, _SOURCE_BLOCK):
        block = range(start, min(start + _SOURCE_BLOCK, n))
        # sources from split on are added nodes
        split = min(max(block.start, n0), block.stop)
        d0, s0 = dist0[block.start : split], sigma0[block.start : split]
        to_added = reach[:, block.start : split]
        dist = np.full((len(d0), n), _FAR, dtype=np.int32)
        dist[:, :n0] = _far_where_unreachable(d0)
        for x_to_s, x_to_v in zip(to_added, reach):
            np.minimum(dist, x_to_s[:, None] + x_to_v, out=dist)
        sigma = np.zeros(dist.shape)
        # -1 in d0 never equals dist, and unreachable pairs keep sigma 0
        np.copyto(sigma[:, :n0], s0, where=d0 == dist[:, :n0])
        for x_to_s, x_to_v, x_sigma, u in zip(to_added, reach, own_sigma, links):
            alpha = np.where(d0[:, u] == x_to_s[:, None] - 1, s0[:, u], 0.0).sum(axis=1)
            through = x_to_s[:, None] + x_to_v == dist
            np.add(sigma, alpha[:, None] * x_sigma, out=sigma, where=through)
        dist = np.where(dist < _FAR, dist, -1).astype(np.int16)
        if split < block.stop:
            dist = np.concatenate((dist, own_dist[split - n0 : block.stop - n0]))
            sigma = np.concatenate((sigma, own_sigma[split - n0 : block.stop - n0]))
        if sigma.max() >= _EXACT_COUNT:
            raise _Inexact
        yield block, dist, sigma


def _add_dependencies(
    adj: np.ndarray, dist: np.ndarray, sigma: np.ndarray, bc: np.ndarray
) -> None:
    """Brandes' dependency pass for one source block, added into ``bc``."""
    delta = np.zeros(dist.shape)
    # unreachable nodes (sigma 0) divide by 1, so no 0 * inf makes a NaN;
    # the level masks then zero them, as x * 0 = +0 for finite x >= 0 and
    # x * 1 = x, which keeps every bit of the masked division and sum
    safe = np.where(sigma == 0.0, 1.0, sigma)
    top = int(dist.max())
    upper = dist == top
    # level 1 would only feed the sources, which score nothing
    for level in range(top, 1, -1):
        lower = dist == level - 1
        coef = (1.0 + delta) / safe
        coef *= upper
        prod = coef @ adj
        prod *= sigma
        prod *= lower
        delta += prod
        upper = lower
    # row by row in source order: the summation order of a per-source
    # loop, which the float contract in the module docstring relies on
    bc[:] = np.cumsum(np.vstack((bc, delta)), axis=0)[-1]


def _harmonic_rows(dist: np.ndarray) -> np.ndarray:
    """Sum of 1/d over each source row; unreachable nodes add nothing."""
    inv = np.zeros(dist.shape)
    np.divide(1.0, dist, out=inv, where=dist > 0)
    # sequential sum in non-decreasing distance, i.e. BFS, order
    inv = np.sort(inv, axis=1)[:, ::-1]
    return _running_total(inv)


def _path_scores(
    adj: np.ndarray, kinds, blocks: Iterable | None = None
) -> dict[MetricKind, np.ndarray]:
    """Per-row betweenness and/or closeness of ``adj`` from one shared pass.

    ``blocks`` are the forward blocks of ``adj``, by default the BFS from
    every node. Each block's distances and path counts feed both metrics, so
    asking for both costs one forward pass, not two.
    """
    n = adj.shape[0]
    if blocks is None:
        blocks = _source_blocks(adj, range(n))
    bc = np.zeros(n) if MetricKind.BETWEENNESS in kinds else None
    cl = np.empty(n) if MetricKind.CLOSENESS in kinds else None
    for block, dist, sigma in blocks:
        if bc is not None:
            _add_dependencies(adj, dist, sigma, bc)
        if cl is not None:
            cl[block.start : block.stop] = _harmonic_rows(dist)
    out = {}
    if bc is not None:
        # each unordered pair was counted from both endpoints
        out[MetricKind.BETWEENNESS] = bc / 2.0
    if cl is not None:
        out[MetricKind.CLOSENESS] = cl
    return out


def _graph_path_scores(
    graph: CompiledGraph, kinds, update: bool
) -> dict[MetricKind, np.ndarray]:
    """:func:`_path_scores` of ``graph``; with ``update``, from the blocks of
    :func:`_updated_blocks` unless a count reaches 2**53."""
    adj = graph.adjacency
    if update:
        try:
            return _path_scores(adj, kinds, _updated_blocks(graph, adj))
        except _Inexact:
            pass
    return _path_scores(adj, kinds)


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


def _pagerank_batch(
    stack: _Stack, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 200
) -> np.ndarray:
    """PageRank of every graph of a batch, one row each (see :func:`pagerank`).

    All rows step together. A row whose L1 change falls below ``tol`` keeps
    that iterate from then on; the first row still moving after ``max_iter``
    steps raises :class:`ConvergenceError` with its last iterate.
    """
    n = stack.sizes[:, None].astype(float)
    # 0/1 masks as floats: multiplying by them is exact and cheaper than where
    valid = stack.valid.astype(float)
    out = stack.degrees(stack.src)
    dangling = valid * (out == 0)
    weight = stack.mult / out.reshape(-1)[stack.src]
    base = valid * ((1.0 - damping) / n)
    ranks = valid * (1.0 / n)
    moving = np.ones(len(stack.graphs), dtype=bool)
    for _ in range(max_iter):
        mass = _running_total(ranks * dangling)[:, None]
        nxt = base + (damping * mass / n) * valid
        # unbuffered over candidate-major, source-sorted pairs, so each
        # target adds its sources in source order
        contributions = (damping * ranks).reshape(-1)[stack.src] * weight
        np.add.at(nxt.reshape(-1), stack.dst, contributions)
        change = _running_total(np.abs(nxt - ranks))
        ranks = np.where(moving[:, None], nxt, ranks)
        moving &= ~(change < tol)
        if not moving.any():
            return ranks
    row = int(np.argmax(moving))
    graph = stack.graphs[row]
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations",
        graph.by_node(ranks[row, : len(graph.nodes)]),
        row,
    )


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
    if not cg.nodes:
        raise MetricError("pagerank is undefined on an empty graph")
    return cg.by_node(_pagerank_batch(_Stack([cg]), damping, tol, max_iter)[0])


def _scalar(kind: MetricKind, g: CompiledGraph) -> float:
    n, m = len(g.nodes), g.num_edges
    if kind is MetricKind.NODE_COUNT:
        return float(n)
    if kind is MetricKind.EDGE_COUNT:
        return float(m)
    if kind is MetricKind.DENSITY:
        return 0.0 if n <= 1 else m / (n * (n - 1))
    if kind is MetricKind.AVERAGE_DEGREE:
        return 0.0 if n == 0 else m / n
    raise MetricError(f"unknown metric kind {kind!r}")  # pragma: no cover


def _distinct(graphs: Sequence[CompiledGraph]) -> tuple[list[int], list[int]]:
    """The first row of each distinct graph, in first-occurrence order, and
    each row's index into that list.

    Graphs are the same when their node count and ``src``, ``dst`` and
    ``mult`` arrays are; labels do not count, because no kernel reads them.
    """
    firsts: list[int] = []
    index: dict[tuple, int] = {}
    group = []
    for row, g in enumerate(graphs):
        key = (len(g.nodes), g.src.tobytes(), g.dst.tobytes(), g.mult.tobytes())
        if key not in index:
            index[key] = len(firsts)
            firsts.append(row)
        group.append(index[key])
    return firsts, group


def compute_metrics(
    graphs: Sequence, kinds: Sequence[MetricKind]
) -> dict[MetricKind, list[MetricValue]]:
    """Evaluate several metrics on a batch of graphs, one value per graph.

    Scalar metrics follow their definitions directly (density uses the
    directed formula |E| / (|V| (|V|-1)), average degree counts each directed
    edge once). Distributional metrics are collapsed via the normalized HHI of
    the per-node shares and therefore land in [0, 1]. PageRank, betweenness
    and closeness run once per distinct graph (see :func:`_distinct`), and
    betweenness and closeness share one BFS pass. A failure that concerns one
    graph raises :class:`MetricError` with ``row`` set to that graph's index;
    for a graph that occurs more than once, the index of its first row.
    """
    graphs = [compile_graph(g) for g in graphs]
    if not graphs:
        return {kind: [] for kind in kinds}
    distributional = [k for k in kinds if k in DISTRIBUTIONAL_KINDS]
    path_kinds = [k for k in kinds if k in PATH_KINDS]
    for row, g in enumerate(graphs):
        if not g.nodes and distributional:
            raise MetricError(
                f"{distributional[0].value} is undefined on an empty graph", row
            )
        if path_kinds:
            _check_dense_size(len(g.nodes), row)
    stack = _Stack(graphs) if distributional else None
    # grouping costs about a microsecond per graph; only the kernels need it
    kernels = path_kinds or MetricKind.PAGERANK in kinds
    firsts, group = _distinct(graphs) if kernels else ([], [])
    paths = []
    if path_kinds:
        distinct = [graphs[row] for row in firsts]
        # the base's all-pairs pass pays off from its second extension on
        shared = Counter(g.base for g in distinct if g.touches_added)
        paths = [
            _graph_path_scores(g, path_kinds, g.touches_added and shared[g.base] > 1)
            for g in distinct
        ]
    values = {}
    for kind in kinds:
        if kind in SCALAR_KINDS:
            column = [_scalar(kind, g) for g in graphs]
        else:
            if kind is MetricKind.PAGERANK:
                # the widest graph is among firsts, so the block keeps the
                # stack's width
                try:
                    block = _pagerank_batch(_Stack([graphs[row] for row in firsts]))[group]
                except MetricError as exc:
                    # the first row of the failing graph is the one whose
                    # labels the error carries
                    if exc.row is not None:
                        exc.row = firsts[exc.row]
                    raise
            elif kind is MetricKind.IN_DEGREE:
                block = stack.degrees(stack.dst)
            elif kind is MetricKind.OUT_DEGREE:
                block = stack.degrees(stack.src)
            else:
                block = np.zeros(stack.shape)
                block[stack.valid] = np.concatenate([paths[i][kind] for i in group])
            column = stack.collapse(block).tolist()
        values[kind] = [MetricValue(value, kind) for value in column]
    return values


def compute_metric(g, kind: MetricKind) -> MetricValue:
    """Evaluate one metric on a graph, as a batch of one; see
    :func:`compute_metrics`."""
    return compute_metrics([g], (kind,))[kind][0]

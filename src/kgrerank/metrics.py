"""Network metrics on graphs, collapsed to scalars where needed.

Four metrics are plain scalars (node count, edge count, density, average
degree). The remaining five (in-/out-degree, PageRank, betweenness, closeness)
produce a score per node; those distributions are collapsed to a single
concentration value with the normalized Herfindahl-Hirschman index, so every
metric ends up as one number in a comparable range.

Every metric reads one array form of the graph, a batch (:class:`_Stack`),
in the linear-algebra style of Kepner & Gilbert (*Graph Algorithms in the
Language of Linear Algebra*, 2011); a single graph is a batch of one row. A
batch is one zero-padded (rows x widest row) block. It holds each row's node
ids and each directed (source, target) pair once with its number of parallel
edges, sorted by source and numbered ``row * width + node``, so all pairs are
row-major and each row's sorted by source; a row's dense 0/1 adjacency ``A``
of the undirected view is built only when a path metric asks for it.
:func:`compile_graph` is the one builder of a graph: it compiles the subgraph
of a graph on given nodes (by default all of them, in ``g.node_ids()`` order)
as a batch of one. :meth:`_Stack.cut` is the one builder of a batch of many.
One core (:func:`score_stack`) scores every batch, and :func:`compute_metric`
scores one graph as a batch of one. The re-ranker compiles, once per user,
the catalog subgraph on the profile's nodes and every node a candidate adds,
with a (candidates x union nodes) membership mask: row ``r`` is the subgraph
that candidate ``r``'s nodes induce, the profile's first, then its added
nodes in union order. That order is monotone in the union's, so the union's
sorted pairs, masked and relabelled, stay row-major and source-sorted with no
sort per row. It scores users in groups: :meth:`_Stack.cut` cuts the (union,
mask) pairs of a whole group of users as one batch, one user's rows after
another's. No graph object is built per candidate. The row sizes and pair
bounds, the distinct rows (below) and each row's label order (one sort of
all labels, then one argsort of the rank matrix) are computed once per batch
and shared by every metric; the path kernels read only the adjacency of each
distinct row. The degrees are one ``np.bincount`` over the pairs and
PageRank is one power iteration over the distinct rows' block; both use edge
directions. Every distribution is then collapsed to its HHI row by row, in
sorted-label order (:attr:`_Stack.label_order`).

Betweenness and closeness run per row on ``A``, peeled to its 2-core first
(:func:`_peel`): nodes of degree 0 or 1 (self-loops and parallel edges do not
count) are removed round after round until none is left, the exact reduction
of Baglioni, Geraci, Pellegrini & Lastres ("Fast exact computation of
betweenness centrality in social networks", ASONAM 2012) and of Sariyuce,
Saule, Kaya & Catalyurek ("Shattering and compressing networks for
betweenness centrality", SDM 2013). Each removed node hangs from the one
neighbour it still had, so every node lies in a tree below a root: a core
node, or the last node of a component that is a whole tree. A core node
weighs 1 plus the size of the forest hanging from it. Only the core is
searched, and a forest is not searched at all:

- the forward pass is a level-synchronous BFS (``frontier @ A``) from blocks
  of ``_SOURCE_BLOCK`` core nodes, giving hop distances and shortest-path
  counts. A block counts in float32 first: each count, and each partial sum
  of a product with the 0/1 ``A``, is a sum of non-negative integers no larger
  than its result, so all of them are exact while the block's largest count
  stays below 2**24. A block that reaches 2**24, or overflows, runs again in
  float64 (exact below 2**53). The counts are handed on as float64. A pair's
  distance is the number of levels at which it was still unseen, and each
  level is masked by multiplying with a bool array, not by masked copies;
- betweenness runs Brandes' dependency pass on the core, level by level, as
  ``delta += sigma * (((weight + delta) / sigma) @ A)``, scales each source's
  row by its weight and adds the rows in source order. That counts every
  pair of nodes whose shortest paths cross the core between two roots. Every
  other pair has all its shortest paths through a node that separates it:
  removing a node splits its component into its subtrees and the rest, and
  the pairs between two parts, ``sum_{i<j} c_i c_j`` over the part sizes,
  are added as exact integers. For a core node these are the pairs between
  its own subtrees and those between its forest and the rest;
- closeness builds each node's exact integer distance row: the distance
  between the two roots, plus both depths, less twice the depth at which
  the two meet when they share a root (a float32 product of 0/1 rows, exact
  as it counts at most n <= 2**15 nodes). The distances are int32 keys; self
  and unreachable pairs take the key n, which sorts after every distance.
  32 rows at a time, each row's keys are sorted and 1/d is looked up in a
  table (``1.0 / np.arange(1, n)``, the same IEEE division as ``1.0 / d``),
  then added left to right: in non-decreasing distance order, as a queue
  BFS adds them.

Both metrics read one forward pass. The backward block stays at 32 rows:
from 64 rows on, OpenBLAS sums the ``coef @ A`` products in another order
and betweenness bits change.

The kernels (PageRank, betweenness, closeness) run once per distinct row of
a batch. Rows with the same node count and the same ``src``, ``dst`` and
``mult`` slices are one group: the kernels run on its first row, and every
row of the group takes those per-node scores. Candidates that attach the same
shape to the same nodes differ only in the labels of their added nodes, and
no kernel reads a label; so do the candidates of two users whose extensions
are the same graphs under other labels, when they share a batch. Degrees,
scalars and the collapse stay per row, each in the row's own label order. No
bit changes: a kernel's output depends only on those arrays, and by the float
contract below a row's value does not depend on its batch.

Float contract: a row's value does not depend on the other rows of its batch,
and equals a per-node Python loop over that graph alone. Padding is zero and
adds nothing. PageRank adds each pair's contribution with ``np.add.at`` over
the stacked pairs, which are candidate-major and sorted by source, so every
target adds its sources in source order. Each row stops at its own iteration
and is frozen there while the others go on. Every other sum (the dangling
mass, the L1 change, the shares' total, the squared shares, closeness's row
sums and betweenness's sum over sources) goes through
:func:`_running_total`: strictly left to right, unlike numpy's pairwise
``np.sum`` and the compensated builtin ``sum`` of Python 3.12 and later.
From ``_REDUCE_ROWS`` rows on it adds down axis 0 of a C-contiguous
(terms x rows) block, which numpy does term after term: its ``np.sum``
Notes say pairwise summation "is only used when the summation is along the
fast axis in memory". That is numpy's behaviour, not its promise, so the
contract is pinned on the numpy version that ``manifest.json`` records.
Degrees are exact integers. Closeness equals a per-source queue BFS bit for
bit, since its distances are exact and its sums keep their order. On a
forest betweenness is the exact pair count. On a graph with cycles it is the
core's float sum plus an exact integer, and may differ from exact path
counting by a few ulps, because the matrix products sum in their own order;
exact ties between candidates can then break differently. Against the
whole-graph pass it replaced, the values on the 72 extensions (216-228
nodes, 2-cores of 107-137) of the rich-h100 benchmark workload at seeds 1-3
moved by at most 2.4e-15 relative per node. Betweenness bits may also depend
on the number of OpenBLAS threads on larger cores. On those 72 extensions
(24 per seed), scored in two processes and compared with ``np.array_equal``,
``OPENBLAS_NUM_THREADS=1`` and the default two threads of a 2-CPU host
(OpenBLAS 0.3.31) gave the same betweenness and closeness bits on all 72,
before and after the forward pass moved to float32; with the whole-graph
pass before the 2-core kernels, 5 of the 72 changed. On 12 random graphs of
317-962 nodes (2-cores of 243-845), betweenness changed with the thread
count on the 9 with cores of 523 nodes or more, in 2-12 nodes each and by at
most 3.1e-16 relative; closeness was equal on all 12.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterator, Sequence
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


# from this many rows on, the sum down the slow axis beats ``np.cumsum``
# (2-CPU x86-64, numpy 2.4: from 2 rows on for rows of 10 terms, from 8 for
# rows of 300)
_REDUCE_ROWS = 8


def _running_total(values: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis: each row's
    ``functools.reduce(operator.add, row)``, bit for bit.

    numpy adds pairwise only along the fast axis in memory (the Notes of
    ``np.sum``). Down axis 0 of the C-contiguous (terms x rows) block it
    adds each column term after term, starting from -0.0, which leaves the
    first term as it is. From ``_REDUCE_ROWS`` rows on that is cheaper than
    ``np.cumsum``. Fewer rows take ``np.cumsum``, and one row must: its axis
    0 is the fast axis, which would be summed pairwise.
    """
    if values.ndim == 2 and len(values) >= _REDUCE_ROWS:
        return np.add.reduce(np.ascontiguousarray(values.T), axis=0, initial=-0.0)
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


class _Stack:
    """A batch of graphs as one zero-padded (rows x width) block; a single
    graph is a batch of one row.

    Row ``r`` holds ``sizes[r]`` nodes in columns ``0 .. sizes[r] - 1``; the
    node in column ``c`` is ``labels[members[node_starts[r] + c]]``. Its
    pairs are ``row_src``, ``row_dst`` and ``mult`` from ``bounds[r]`` to
    ``bounds[r + 1]``: each directed (source, target) pair once with its
    number of parallel edges, sorted by source and then target. ``src`` and
    ``dst`` hold them as flat indices ``r * width + node``, so all pairs are
    row-major and each row's sorted by source. Build a graph with
    :func:`compile_graph` or :meth:`from_edges`, and cut the subgraphs that
    the rows of membership masks induce from one or more graphs with
    :meth:`cut`, the one builder of a batch of many rows.
    """

    def __init__(
        self,
        labels: Sequence[str],
        members: np.ndarray,
        sizes: np.ndarray,
        row_src: np.ndarray,
        row_dst: np.ndarray,
        mult: np.ndarray,
        pairs: np.ndarray,
    ) -> None:
        self.labels = labels
        self.members = members
        self.sizes = sizes
        self.row_src = row_src
        self.row_dst = row_dst
        self.mult = mult
        self.node_starts = np.concatenate(([0], np.cumsum(sizes)))
        self.bounds = np.concatenate(([0], np.cumsum(pairs)))
        self.shape = (len(sizes), int(sizes.max(initial=0)))
        self.valid = np.arange(self.shape[1]) < sizes[:, None]
        offsets = np.repeat(np.arange(len(sizes)) * self.shape[1], pairs)
        self.src = row_src + offsets
        self.dst = row_dst + offsets

    @classmethod
    def from_edges(cls, nodes: list[str], edges: Sequence[tuple[int, int]]) -> "_Stack":
        """The graph on ``nodes``, as a batch of one row, with one edge per
        (source index, target index) pair of ``edges``, which may come in
        any order."""
        ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
        size = len(nodes)
        # one key per edge; sorted unique keys are sorted pairs
        pairs, mult = np.unique(ends[:, 0] * size + ends[:, 1], return_counts=True)
        return cls(
            nodes, np.arange(size), np.array([size]),
            pairs // size, pairs % size, mult, np.array([len(pairs)]),
        )

    @classmethod
    def cut(cls, parts: Sequence[tuple["_Stack", np.ndarray]]) -> "_Stack":
        """The rows of every (graph, mask) pair of ``parts``, in order, as one
        batch: row ``r`` of a pair is the subgraph of its one-row batch
        ``graph`` that the nodes where ``mask[r]`` is true induce, in
        ``graph``'s node order.

        A row keeps its graph's order, so its positions rise with the graph's
        indices and its pairs, taken in the graph's order, stay sorted. The
        batch's labels are the graphs' labels one after the other; a row's
        labels are its own graph's, so they stay distinct within the row."""
        labels: list[str] = []
        members, sizes, row_src, row_dst, mult, pairs = [], [], [], [], [], []
        for graph, mask in parts:
            position = np.cumsum(mask, axis=1, dtype=np.intp) - 1
            keep = mask[:, graph.row_src] & mask[:, graph.row_dst]
            rows, kept = np.nonzero(keep)
            members.append(graph.members[np.nonzero(mask)[1]] + len(labels))
            labels += graph.labels
            sizes.append(np.count_nonzero(mask, axis=1))
            row_src.append(position[rows, graph.row_src[kept]])
            row_dst.append(position[rows, graph.row_dst[kept]])
            mult.append(graph.mult[kept])
            pairs.append(np.count_nonzero(keep, axis=1))
        arrays = (members, sizes, row_src, row_dst, mult, pairs)
        return cls(labels, *map(np.concatenate, arrays))

    def __len__(self) -> int:
        return len(self.sizes)

    def rows(self, selected: Sequence[int]) -> "_Stack":
        """The stack of the rows ``selected``, which must be ascending."""
        chosen = np.zeros(len(self), dtype=bool)
        chosen[selected] = True
        pairs = np.diff(self.bounds)
        on_pair = np.repeat(chosen, pairs)
        return _Stack(
            self.labels,
            self.members[np.repeat(chosen, self.sizes)],
            self.sizes[chosen],
            self.row_src[on_pair],
            self.row_dst[on_pair],
            self.mult[on_pair],
            pairs[chosen],
        )

    def nodes(self, row: int) -> list[str]:
        """The labels of row ``row``, in column order."""
        members = self.members[self.node_starts[row] : self.node_starts[row + 1]]
        return [self.labels[i] for i in members.tolist()]

    def adjacency(self, row: int) -> np.ndarray:
        """The 0/1 float64 adjacency of row ``row``'s undirected view;
        self-loops are dropped and parallel edges collapse into one entry.
        Built on each call, so that a batch does not keep one per row."""
        n = int(self.sizes[row])
        _check_dense_size(n)
        lo, hi = self.bounds[row], self.bounds[row + 1]
        src, dst = self.row_src[lo:hi], self.row_dst[lo:hi]
        adj = np.zeros((n, n))
        adj[src, dst] = 1.0
        adj[dst, src] = 1.0
        np.fill_diagonal(adj, 0.0)
        return adj

    def by_node(self, row: int, values: np.ndarray) -> dict[str, float]:
        return dict(zip(self.nodes(row), values.tolist()))

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Each row's number of edges, parallel ones included."""
        total = np.concatenate(([0], np.cumsum(self.mult)))
        return total[self.bounds[1:]] - total[self.bounds[:-1]]

    @cached_property
    def distinct(self) -> tuple[list[int], list[int]]:
        """The first row of each distinct graph, in first-occurrence order,
        and each row's index into that list.

        Rows are the same graph when their node count and their ``row_src``,
        ``row_dst`` and ``mult`` slices are; labels do not count, because no
        kernel reads them.
        """
        firsts: list[int] = []
        index: dict[tuple, int] = {}
        group = []
        bounds = self.bounds.tolist()
        for row, (size, lo, hi) in enumerate(zip(self.sizes.tolist(), bounds, bounds[1:])):
            key = (
                size,
                self.row_src[lo:hi].tobytes(),
                self.row_dst[lo:hi].tobytes(),
                self.mult[lo:hi].tobytes(),
            )
            if key not in index:
                index[key] = len(firsts)
                firsts.append(row)
            group.append(index[key])
        return firsts, group

    @cached_property
    def label_order(self) -> np.ndarray:
        """Each row's columns in sorted-label order, then its padding: the
        order in which every distribution is collapsed.

        One sort of all labels ranks them; a row's labels are distinct, so
        sorting its ranks sorts its labels."""
        rank = np.empty(len(self.labels), dtype=np.intp)
        rank[sorted(range(len(self.labels)), key=self.labels.__getitem__)] = np.arange(
            len(self.labels)
        )
        ranks = np.full(self.shape, len(self.labels))
        ranks[self.valid] = rank[self.members]
        return np.argsort(ranks, axis=1, kind="stable")

    def degrees(self, ends: np.ndarray) -> np.ndarray:
        """Per-node sums of the multiplicities, by ``self.src`` or ``self.dst``."""
        flat = np.bincount(ends, weights=self.mult, minlength=self.valid.size)
        return flat.reshape(self.shape)

    def collapse(self, block: np.ndarray) -> np.ndarray:
        """The normalized HHI of each row's distribution, summed in
        sorted-label order: (HHI - 1/N) / (1 - 1/N) of the row's shares, 0
        for uniform shares and 1 for a monopoly or a single node."""
        order = self.label_order
        ordered = np.zeros(self.shape)
        ordered[self.valid] = np.take_along_axis(block, order, axis=1)[self.valid]

        def label(row: int, col: int) -> str:
            return self.nodes(row)[order[row, col]]

        shares = _to_shares(ordered, self.sizes, label)
        return _normalize_hhi(_hhi_rows(shares), self.sizes)


def compile_graph(
    g, nodes: Sequence[str] | None = None, loopless: Container[str] = ()
) -> _Stack:
    """The subgraph of ``g`` on ``nodes`` as a batch of one row, compiled
    straight from ``g.successors``.

    Node ``i`` is ``nodes[i]``; by default every node of ``g``, in
    ``g.node_ids()`` order. The nodes in ``loopless`` keep no self-loop.
    """
    nodes = list(g.node_ids() if nodes is None else nodes)
    index = {v: i for i, v in enumerate(nodes)}
    edges = [
        (i, j)
        for i, source in enumerate(nodes)
        for target, preds in g.successors(source).items()
        if (j := index.get(target)) is not None and (i != j or source not in loopless)
        for _ in preds
    ]
    return _Stack.from_edges(nodes, edges)


# Sources per forward/backward pass, and closeness rows per block; bounds the
# (block x n) work arrays. Keep it at 32: from 64 rows on, OpenBLAS sums the
# backward ``coef @ adj`` products in another order and betweenness values
# change in their last bits.
_SOURCE_BLOCK = 32

PATH_KINDS = frozenset({MetricKind.BETWEENNESS, MetricKind.CLOSENESS})


def _check_dense_size(n: int, row: int | None = None) -> None:
    # distances are held as int16 and reach at most n - 1
    if n > np.iinfo(np.int16).max + 1:
        raise MetricError(f"graph too large for the dense engine: {n} nodes", row)


# Path counts below this are exact in float32: see :func:`_source_blocks`.
_EXACT_FLOAT32 = 2**24


def _source_blocks(
    adj: np.ndarray, sources: range
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from consecutive blocks of ``sources``.

    Yields (block, dist, sigma) with one row per source of the block: hop
    distances (-1 where unreachable) and the number of shortest paths, held
    exactly as integer-valued float64.

    Each block runs in float32 first. Every count, and every product of the
    0/1 ``adj``, is a sum of non-negative integers, so no partial sum exceeds
    its result: while every count stays below 2**24, each one is exact in
    float32. A block whose largest count reaches 2**24 (or overflows) runs
    again in float64, exact below 2**53.
    """
    single = adj.astype(np.float32)
    for start in range(sources.start, sources.stop, _SOURCE_BLOCK):
        block = range(start, min(start + _SOURCE_BLOCK, sources.stop))
        # a count past float32's range overflows to inf, and a masked inf to
        # NaN; both send the block to float64
        with np.errstate(over="ignore", invalid="ignore"):
            dist, sigma = _bfs(single, block)
        if not sigma.max() < _EXACT_FLOAT32:
            dist, sigma = _bfs(adj, block)
        yield block, dist, sigma.astype(float)


def _bfs(adj: np.ndarray, block: range) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances and shortest-path counts from the sources ``block``, the
    counts in ``adj``'s dtype.

    Each level adds the pairs still unseen to ``dist``, so a pair's count of
    unseen levels is its distance; the pairs never reached become -1 at the
    end. Masks multiply, as a finite count times False is +0."""
    rows = np.arange(len(block))
    unseen = np.ones((len(block), adj.shape[0]), dtype=bool)
    unseen[rows, block] = False
    dist = np.zeros(unseen.shape, dtype=np.int16)
    frontier = np.zeros(unseen.shape, dtype=adj.dtype)
    frontier[rows, block] = 1
    sigma = frontier.copy()
    while True:
        reached = frontier @ adj
        new = reached > 0
        new &= unseen
        if not new.any():
            break
        dist += unseen
        unseen ^= new
        frontier = reached * new
        sigma += frontier
    dist[unseen] = -1
    return dist, sigma


def _add_dependencies(
    adj: np.ndarray,
    dist: np.ndarray,
    sigma: np.ndarray,
    weight: np.ndarray,
    source_weight: np.ndarray,
    bc: np.ndarray,
) -> None:
    """Brandes' dependency pass for one source block, added into ``bc``.

    As a target, node ``v`` stands for ``weight[v]`` nodes; each source row
    is scaled by its source's weight, ``source_weight``.
    """
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
        coef = (weight + delta) / safe
        coef *= upper
        prod = coef @ adj
        prod *= sigma
        prod *= lower
        delta += prod
        upper = lower
    delta *= source_weight[:, None]
    # row by row in source order: the summation order of a per-source
    # loop, which the float contract in the module docstring relies on
    bc[:] = _running_total(np.vstack((bc, delta)).T)


def _peel(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Remove the nodes of degree 0 or 1 of the undirected view ``adj`` until
    none is left.

    Returns the 2-core (the nodes left, ascending), each node's parent and
    the nodes removed in each round. A removed node's parent is the one
    neighbour it still had, removed in a later round or left in the core;
    a node removed with none roots a tree component, and it and every core
    node have parent -1.
    """
    n = adj.shape[0]
    degree = adj.sum(axis=1)
    alive = np.ones(n, dtype=bool)
    parent = np.full(n, -1)
    rounds = []
    while True:
        leaves = alive & (degree <= 1)
        if not leaves.any():
            return np.flatnonzero(alive), parent, rounds
        linked = np.flatnonzero(leaves & (degree == 1))
        # each one's live neighbour
        neighbour = np.argmax(adj[linked] * alive, axis=1)
        # of two leaves joined to each other, the smaller stays one more
        # round and then goes as its tree's root
        stays = leaves[neighbour] & (degree[neighbour] == 1) & (linked < neighbour)
        leaves[linked[stays]] = False
        parent[linked[~stays]] = neighbour[~stays]
        gone = np.flatnonzero(leaves)
        alive[gone] = False
        degree -= adj[gone].sum(axis=0)
        rounds.append(gone)


def _path_scores(adj: np.ndarray, kinds) -> dict[MetricKind, np.ndarray]:
    """Per-node betweenness and/or closeness of the undirected view whose
    adjacency is ``adj``, with one BFS pass on its 2-core shared by both; see
    the module docstring."""
    n = adj.shape[0]
    core, parent, rounds = _peel(adj)
    # each node's root (a core node, or the root of a tree component), its
    # depth below the root, and ``size``: itself and everything hanging
    # below it
    root = np.arange(n)
    depth = np.zeros(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    squares_below = np.zeros(n, dtype=np.int64)
    for gone in rounds:
        hung = gone[parent[gone] >= 0]
        np.add.at(size, parent[hung], size[hung])
        np.add.at(squares_below, parent[hung], size[hung] ** 2)
    # ``above[v, u]``: u is v or lies between v and its root
    above = np.identity(n, dtype=bool) if MetricKind.CLOSENESS in kinds else None
    for gone in reversed(rounds):
        hung = gone[parent[gone] >= 0]
        root[hung] = root[parent[hung]]
        depth[hung] = depth[parent[hung]] + 1
        if above is not None:
            above[hung] |= above[parent[hung]]

    k = len(core)
    core_adj = adj[np.ix_(core, core)]
    weight = size[core]
    # a core node's component counts the weights of the core nodes it
    # reaches; a tree component, its root's size
    component = size.copy()
    if above is not None:
        # hop distances between roots: the core's, and 0 from a root to itself
        between_roots = np.full((n, n), -1, dtype=np.int16)
        np.fill_diagonal(between_roots, 0)
    bc_core = np.zeros(k)
    float_weight = weight.astype(float)
    # a forest needs no search at all
    blocks = _source_blocks(core_adj, range(k)) if k else ()
    for block, dist, sigma in blocks:
        sources = core[block.start : block.stop]
        component[sources] = np.where(dist >= 0, weight, 0).sum(axis=1)
        if above is not None:
            between_roots[np.ix_(sources, core)] = dist
        if MetricKind.BETWEENNESS in kinds:
            source_weight = float_weight[block.start : block.stop]
            _add_dependencies(core_adj, dist, sigma, float_weight, source_weight, bc_core)

    out = {}
    if MetricKind.BETWEENNESS in kinds:
        # the pairs split by removing a node, between its subtrees and the
        # rest of its component: all their shortest paths run through it
        total = component[root]
        pairs = ((total - 1) ** 2 - squares_below - (total - size) ** 2) // 2
        bc = pairs.astype(float)
        # the core pass counted each pair from both ends
        bc[core] = bc_core / 2.0 + bc[core]
        out[MetricKind.BETWEENNESS] = bc
    if above is not None:
        # two nodes below one root meet at the depth of their lowest common
        # node: the count of the nodes at depth 1 or more above both
        # counts of at most n <= 2**15 nodes: exact in float32
        hanging = above[:, depth > 0].astype(np.float32)
        depth = depth.astype(np.int32)
        # 1/d by distance d < n; self and unreachable pairs take the key n,
        # which sorts after every distance and adds 0
        inverse = np.zeros(n + 1)
        inverse[1:n] = 1.0 / np.arange(1, n)
        cl = np.empty(n)
        # in row blocks: (block x n) temporaries, and faster than one pass
        for start in range(0, n, _SOURCE_BLOCK):
            rows = slice(start, start + _SOURCE_BLOCK)
            via = between_roots[root[rows]][:, root]
            meet = (hanging[rows] @ hanging.T).astype(np.int32)
            dist = depth[rows, None] + depth + via - 2 * meet
            dist[(via < 0) | (dist == 0)] = n
            # each row's 1/d in non-decreasing distance, i.e. BFS, order
            dist.sort(axis=1)
            cl[rows] = _running_total(inverse[dist])
        out[MetricKind.CLOSENESS] = cl
    return out


# PageRank's damping factor, the L1 change below which a row has converged,
# and the steps after which a row still moving fails
_DAMPING = 0.85
_TOL = 1e-9
_MAX_ITER = 200


def _pagerank_batch(stack: _Stack) -> np.ndarray:
    """PageRank of every graph of a batch, one row each, by power iteration on
    the directed graph.

    Teleport is uniform, dangling-node mass is redistributed uniformly, and
    parallel edges weight the transition proportionally. All rows step
    together. A row whose L1 change falls below ``_TOL`` keeps that iterate
    from then on; the first row still moving after ``_MAX_ITER`` steps raises
    :class:`ConvergenceError` with its last iterate.
    """
    n = stack.sizes[:, None].astype(float)
    # 0/1 masks as floats: multiplying by them is exact and cheaper than where
    valid = stack.valid.astype(float)
    out = stack.degrees(stack.src)
    dangling = valid * (out == 0)
    weight = stack.mult / out.reshape(-1)[stack.src]
    base = valid * ((1.0 - _DAMPING) / n)
    ranks = valid * (1.0 / n)
    moving = np.ones(len(stack), dtype=bool)
    for _ in range(_MAX_ITER):
        mass = _running_total(ranks * dangling)[:, None]
        nxt = base + (_DAMPING * mass / n) * valid
        # unbuffered over candidate-major, source-sorted pairs, so each
        # target adds its sources in source order
        contributions = (_DAMPING * ranks).reshape(-1)[stack.src] * weight
        np.add.at(nxt.reshape(-1), stack.dst, contributions)
        change = _running_total(np.abs(nxt - ranks))
        ranks = np.where(moving[:, None], nxt, ranks)
        moving &= ~(change < _TOL)
        if not moving.any():
            return ranks
    row = int(np.argmax(moving))
    raise ConvergenceError(
        f"pagerank did not converge within {_MAX_ITER} iterations",
        stack.by_node(row, ranks[row]),
        row,
    )


def _scalar(kind: MetricKind, n: int, m: int) -> float:
    """A scalar metric of a graph with ``n`` nodes and ``m`` edges."""
    if kind is MetricKind.NODE_COUNT:
        return float(n)
    if kind is MetricKind.EDGE_COUNT:
        return float(m)
    if kind is MetricKind.DENSITY:
        return 0.0 if n <= 1 else m / (n * (n - 1))
    if kind is MetricKind.AVERAGE_DEGREE:
        return 0.0 if n == 0 else m / n
    raise MetricError(f"unknown metric kind {kind!r}")  # pragma: no cover


def score_stack(stack: _Stack, kinds: Sequence[MetricKind]) -> dict[MetricKind, list[MetricValue]]:
    """Evaluate several metrics on every row of a batch, one value per row.

    Scalar metrics follow their definitions directly (density uses the
    directed formula |E| / (|V| (|V|-1)), average degree counts each directed
    edge once). Distributional metrics are collapsed via the normalized HHI of
    the per-node shares and therefore land in [0, 1]. Betweenness counts the
    shortest paths between unordered node pairs on the undirected view, and
    closeness is harmonic (a sum of 1/distance, to which an unreachable node
    adds 0); both collapse parallel edges into one adjacency.

    PageRank, betweenness and closeness run once per distinct row (see
    :attr:`_Stack.distinct`), and betweenness and closeness share one BFS
    pass. A failure that concerns one row raises :class:`MetricError` with
    ``row`` set to that row's index; for a graph that occurs more than once,
    the index of its first row.
    """
    if not len(stack):
        return {kind: [] for kind in kinds}
    distributional = [k for k in kinds if k in DISTRIBUTIONAL_KINDS]
    path_kinds = [k for k in kinds if k in PATH_KINDS]
    for row, size in enumerate(stack.sizes.tolist()):
        if not size and distributional:
            raise MetricError(
                f"{distributional[0].value} is undefined on an empty graph", row
            )
        if path_kinds:
            _check_dense_size(size, row)
    # grouping costs about a microsecond per row; only the kernels need it
    kernels = path_kinds or MetricKind.PAGERANK in kinds
    firsts, group = stack.distinct if kernels else ([], [])
    paths = [_path_scores(stack.adjacency(row), path_kinds) for row in firsts] if path_kinds else []
    values = {}
    for kind in kinds:
        if kind in SCALAR_KINDS:
            counts = zip(stack.sizes.tolist(), stack.edge_counts.tolist())
            column = [_scalar(kind, n, m) for n, m in counts]
        else:
            if kind is MetricKind.PAGERANK:
                # the widest row is among firsts, so the block keeps the
                # stack's width
                try:
                    block = _pagerank_batch(stack.rows(firsts))[group]
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
    :func:`score_stack`."""
    return score_stack(compile_graph(g), (kind,))[kind][0]

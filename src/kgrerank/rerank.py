"""Re-rank a recommendation list by each candidate's impact on a network metric.

Every candidate is merged into the user's original profile subgraph (never
cumulatively), each configured metric is evaluated on the extended subgraph,
and :func:`rerank` reorders the list by those metric values. Sorting
ascending by a concentration-style metric surfaces candidates that leave the
profile graph balanced; descending favors candidates that centralize it.

Both :func:`rerank` and :func:`evaluate_metrics` take a sequence of
(profile subgraph, recommendation list) pairs, one per user, and return one
result per user. They score users in memory-bounded groups, each group as
one batch, so each kernel runs once per distinct extension across a group's
users; a single user is a sequence of one.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import CatalogGraph, NeighborhoodMode, ProfileSubgraph, added_nodes
from .metrics import PATH_KINDS, MetricKind, MetricValue, _Stack, compile_graph, score_stack


class RerankError(RuntimeError):
    """Raised when candidate evaluation fails; names the user, item and metric."""


class SortOrder(Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"


@dataclass(frozen=True)
class RecommendationList:
    """Ordered recommendation candidates with base recommender scores.

    Items must be unique and ordered by non-increasing score, and no score may
    be NaN (every comparison with NaN is false, so it would hide an increase);
    construction validates all three and builds the id tuple once.
    """

    user: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((str(i), float(s)) for i, s in self.items)
        )
        seen: dict[str, None] = {}  # in list order: the id tuple
        previous = None
        for item, score in self.items:
            if item in seen:
                raise ValueError(f"duplicate item {item!r} in recommendation list")
            seen[item] = None
            if math.isnan(score):
                raise ValueError(f"score of item {item!r} is not a number")
            if previous is not None and score > previous:
                raise ValueError(
                    f"scores must be non-increasing; item {item!r} breaks the order"
                )
            previous = score
        object.__setattr__(self, "_ids", tuple(seen))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def item_ids(self) -> tuple[str, ...]:
        return self._ids

    def top(self, k: int) -> tuple[str, ...]:
        return self._ids[:k]


@dataclass(frozen=True)
class CandidateEvaluation:
    """Metric outcome for one candidate; ``original_rank`` is its 1-based
    position in the base list."""

    item: str
    base_score: float
    original_rank: int
    metric_value: MetricValue


# The cells (rows x widest row) of one group's zero-padded block: 128 KiB of
# float64. A group takes the next user while its cells stay within this.
_GROUP_CELLS = 2**14


def evaluate_metrics(
    catalog: CatalogGraph,
    users: Iterable[tuple[ProfileSubgraph, RecommendationList]],
    metrics: Sequence[MetricKind],
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> list[dict[MetricKind, list[CandidateEvaluation]]]:
    """Evaluate every metric on the extension of each user's profile ``sg``
    by each candidate of their list ``recs``, for every (sg, recs) pair of
    ``users``; one result per user, in input order.

    Each candidate is applied to the original subgraph independently, so the
    outcome does not depend on list order. Each ``sg`` must be an induced
    subgraph of ``catalog``, as :func:`~kgrerank.graph.induce_profile_subgraph`
    builds it. For each user, the catalog subgraph on the profile's nodes and
    every node a candidate adds, those in sorted order, is compiled once,
    straight from the catalog's adjacency, by the one builder
    (:func:`~kgrerank.metrics.compile_graph`), with a (candidates x union
    nodes) mask: row ``r`` is candidate ``r``'s extension, the subgraph
    induced by the profile's nodes, then its added nodes in sorted order.
    The profile itself is no longer held once its union and mask are made.

    Users stream into groups: a group takes the next user while its rows,
    with that user's, times its widest row stay within ``_GROUP_CELLS``; a
    user who alone exceeds it forms a group of their own. Each group is cut
    as one batch (:meth:`~kgrerank.metrics._Stack.cut`) and every metric
    group scores it once (:func:`~kgrerank.metrics.score_stack`), so the
    kernels run once per distinct extension across its users. A row's value
    does not depend on its batch, so it equals ``compute_metric`` on the
    materialized extension, however the users are grouped.

    An error names the metrics, the user and, where it concerns one
    candidate, the item; one that concerns no row names every user of its
    group. Of several errors, the first the work reaches is raised: users'
    extensions are built in input order (an item the catalog lacks fails
    there), and a group is scored once the next user does not fit or the
    input ends, in (metric group, row) order.
    """
    kinds = list(dict.fromkeys(metrics))
    # betweenness and closeness share one BFS pass, so they are computed, and
    # named in errors, together; every other metric on its own
    paths = [k for k in kinds if k in PATH_KINDS]
    groups = ([paths] if paths else []) + [[k] for k in kinds if k not in PATH_KINDS]
    results: list[dict[MetricKind, list[CandidateEvaluation]]] = []
    batch: list[tuple[str, RecommendationList, _Stack, np.ndarray]] = []
    rows = width = 0
    for sg, recs in users:
        union, mask = _extensions(catalog, sg, recs, kinds, mode)
        widest = int(np.count_nonzero(mask, axis=1).max(initial=0))
        if batch and (rows + len(mask)) * max(width, widest) > _GROUP_CELLS:
            results += _score_group(batch, groups, kinds)
            batch, rows, width = [], 0, 0
        batch.append((sg.user, recs, union, mask))
        rows += len(mask)
        width = max(width, widest)
    if batch:
        results += _score_group(batch, groups, kinds)
    return results


def _extensions(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    kinds: list[MetricKind],
    mode: NeighborhoodMode,
) -> tuple[_Stack, np.ndarray]:
    """The union graph of ``sg``'s extensions by each candidate of ``recs``,
    and the (candidates x union nodes) mask whose row ``r`` picks candidate
    ``r``'s: the profile's nodes, then its added nodes, in union order."""
    adds = []
    for item, _ in recs.items:
        try:
            adds.append(added_nodes(sg.graph, catalog, item, mode))
        except Exception as exc:
            raise _failure(kinds, [sg.user], item, exc) from exc
    profile = list(sg.graph.node_ids())
    extra = sorted(set().union(*adds))
    # in edges mode every extra node is a new candidate, whose self-loops
    # stay out of its extension
    closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
    union = compile_graph(catalog, profile + extra, () if closed else set(extra))
    at = {v: i for i, v in enumerate(extra, start=len(profile))}
    mask = np.zeros((len(adds), len(profile) + len(extra)), dtype=bool)
    mask[:, : len(profile)] = True
    mask[
        [row for row, added in enumerate(adds) for _ in added],
        [at[v] for added in adds for v in added],
    ] = True
    return union, mask


def _score_group(
    batch: list[tuple[str, RecommendationList, _Stack, np.ndarray]],
    groups: list[list[MetricKind]],
    kinds: list[MetricKind],
) -> list[dict[MetricKind, list[CandidateEvaluation]]]:
    """Score the (user, recs, union, mask) entries of ``batch`` as one batch;
    one result per entry, in order."""
    stack = _Stack.cut([(union, mask) for _, _, union, mask in batch])
    # each user's first row in the batch
    starts = np.cumsum([0] + [len(recs) for _, recs, _, _ in batch[:-1]]).tolist()
    values: dict[MetricKind, list[MetricValue]] = {}
    for group in groups:
        try:
            values.update(score_stack(stack, group))
        except Exception as exc:
            row = getattr(exc, "row", None)
            if row is None:
                raise _failure(group, [user for user, *_ in batch], None, exc) from exc
            at = bisect.bisect_right(starts, row) - 1
            user, recs = batch[at][:2]
            item = recs.items[row - starts[at]][0]
            raise _failure(group, [user], item, exc) from exc
    return [
        {
            kind: [
                CandidateEvaluation(item, score, position, values[kind][start + position - 1])
                for position, (item, score) in enumerate(recs.items, start=1)
            ]
            for kind in kinds
        }
        for start, (_, recs, _, _) in zip(starts, batch)
    ]


def _failure(kinds, users: list[str], item: str | None, exc: Exception) -> RerankError:
    """The error for a failed evaluation; ``item`` is None when the failure
    concerns no single candidate, and ``users`` then names every user it
    concerns."""
    names = ", ".join(k.value for k in kinds)
    who = ", ".join(map(repr, users))
    where = f"user {who}" if len(users) == 1 else f"users {who}"
    if item is not None:
        where += f", item {item!r}"
    return RerankError(f"{names} evaluation failed for {where}: {exc}")


def evaluate_candidates(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metric: MetricKind,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> list[CandidateEvaluation]:
    """Evaluate one metric on the extension of ``sg`` by each candidate."""
    return evaluate_metrics(catalog, [(sg, recs)], (metric,), mode)[0][metric]


def rerank(
    catalog: CatalogGraph,
    users: Iterable[tuple[ProfileSubgraph, RecommendationList]],
    metrics: Sequence[MetricKind],
    orders: Sequence[SortOrder],
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
    top_n: int = 100,
) -> list[dict[tuple[MetricKind, SortOrder], list[CandidateEvaluation]]]:
    """Re-rank each user's recommendation list by metric impact on their
    profile subgraph; one result per (profile, list) pair of ``users``, in
    input order. A single user is a sequence of one pair.

    Every candidate is evaluated once for all ``metrics``
    (:func:`evaluate_metrics`, which scores users in groups); each (metric,
    order) pair then gets its own ordering of those evaluations, truncated
    to ``top_n``. Ties on the metric value fall back to descending base
    score, then to the item id, which keeps the output deterministic.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    results = []
    for evaluations in evaluate_metrics(catalog, users, metrics, mode):
        ranked = {}
        for kind, evaluated in evaluations.items():
            for order in orders:
                sign = 1.0 if order is SortOrder.ASCENDING else -1.0
                ranked[kind, order] = sorted(
                    evaluated,
                    key=lambda e: (sign * e.metric_value.value, -e.base_score, e.item),
                )[:top_n]
        results.append(ranked)
    return results

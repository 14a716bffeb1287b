"""Re-rank a recommendation list by each candidate's impact on a network metric.

Every candidate is merged into the user's original profile subgraph (never
cumulatively), each configured metric is evaluated on the extended subgraph,
and :func:`rerank` reorders the list by those metric values. Sorting
ascending by a concentration-style metric surfaces candidates that leave the
profile graph balanced; descending favors candidates that centralize it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def evaluate_metrics(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metrics: Sequence[MetricKind],
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> dict[MetricKind, list[CandidateEvaluation]]:
    """Evaluate every metric on the extension of ``sg`` by each candidate.

    Each candidate is applied to the original subgraph independently, so the
    outcome does not depend on list order. ``sg`` must be an induced subgraph
    of ``catalog``, as :func:`~kgrerank.graph.induce_profile_subgraph` builds
    it. The catalog subgraph on the profile's nodes and every node a
    candidate adds, those in sorted order, is compiled once, straight from
    the catalog's adjacency, by the one builder
    (:func:`~kgrerank.metrics.compile_graph`). Candidate ``r``'s extension
    is row ``r`` of one batch cut from it
    (:meth:`~kgrerank.metrics._Stack.cut`): the subgraph induced by the
    profile's nodes, then the candidate's added nodes in sorted order. Every
    metric group scores that one batch
    (:func:`~kgrerank.metrics.score_stack`), which gives the values of
    ``compute_metric`` on each materialized extension.
    """
    kinds = list(dict.fromkeys(metrics))
    # betweenness and closeness share one BFS pass, so they are computed, and
    # named in errors, together; every other metric on its own
    paths = [k for k in kinds if k in PATH_KINDS]
    groups = ([paths] if paths else []) + [[k] for k in kinds if k not in PATH_KINDS]
    adds = []
    for item, _ in recs.items:
        try:
            adds.append(added_nodes(sg.graph, catalog, item, mode))
        except Exception as exc:
            raise _failure(kinds, sg.user, item, exc) from exc
    profile = list(sg.graph.node_ids())
    extra = sorted(set().union(*adds))
    # in edges mode every extra node is a new candidate, whose self-loops
    # stay out of its extension
    closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
    union = compile_graph(catalog, profile + extra, () if closed else set(extra))
    # row r: the profile's nodes, then candidate r's added nodes, in union order
    at = {v: i for i, v in enumerate(extra, start=len(profile))}
    mask = np.zeros((len(adds), len(profile) + len(extra)), dtype=bool)
    mask[:, : len(profile)] = True
    mask[
        [row for row, added in enumerate(adds) for _ in added],
        [at[v] for added in adds for v in added],
    ] = True
    stack = _Stack.cut(union, mask)
    values: dict[MetricKind, list[MetricValue]] = {}
    for group in groups:
        try:
            values.update(score_stack(stack, group))
        except Exception as exc:
            row = getattr(exc, "row", None)
            item = None if row is None else recs.items[row][0]
            raise _failure(group, sg.user, item, exc) from exc
    return {
        kind: [
            CandidateEvaluation(item, score, position, values[kind][position - 1])
            for position, (item, score) in enumerate(recs.items, start=1)
        ]
        for kind in kinds
    }


def _failure(kinds, user: str, item: str | None, exc: Exception) -> RerankError:
    """The error for a failed evaluation; ``item`` is None when the failure
    concerns no single candidate."""
    names = ", ".join(k.value for k in kinds)
    where = f"user {user!r}" if item is None else f"user {user!r}, item {item!r}"
    return RerankError(f"{names} evaluation failed for {where}: {exc}")


def evaluate_candidates(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metric: MetricKind,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> list[CandidateEvaluation]:
    """Evaluate one metric on the extension of ``sg`` by each candidate."""
    return evaluate_metrics(catalog, sg, recs, (metric,), mode)[metric]


def rerank(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metrics: Sequence[MetricKind],
    orders: Sequence[SortOrder],
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
    top_n: int = 100,
) -> dict[tuple[MetricKind, SortOrder], list[CandidateEvaluation]]:
    """Re-rank a recommendation list by metric impact on the profile subgraph.

    Every candidate is evaluated once for all ``metrics``
    (:func:`evaluate_metrics`); each (metric, order) pair then gets its own
    ordering of those evaluations, truncated to ``top_n``. Ties on the metric
    value fall back to descending base score, then to the item id, which
    keeps the output deterministic.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    evaluations = evaluate_metrics(catalog, sg, recs, metrics, mode)
    ranked = {}
    for kind, evaluated in evaluations.items():
        for order in orders:
            sign = 1.0 if order is SortOrder.ASCENDING else -1.0
            ranked[kind, order] = sorted(
                evaluated,
                key=lambda e: (sign * e.metric_value.value, -e.base_score, e.item),
            )[:top_n]
    return ranked

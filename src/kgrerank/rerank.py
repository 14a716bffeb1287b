"""Re-rank a recommendation list by each candidate's impact on a network metric.

Every candidate is merged into a fresh view of the user's original profile
subgraph (never cumulatively), the configured metric is evaluated on the
extended subgraph, and the list is reordered by those metric values. Sorting
ascending by a concentration-style metric surfaces candidates that leave the
profile graph balanced; descending favors candidates that centralize it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from .graph import (
    CatalogGraph,
    NeighborhoodMode,
    OverlayView,
    ProfileSubgraph,
    extension_delta,
)
from .metrics import PATH_KINDS, MetricKind, MetricValue, PathEngine, compute_metric


class RerankError(RuntimeError):
    """Raised when candidate evaluation fails; names the user, item and metric."""


class SortOrder(Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"


@dataclass(frozen=True)
class RecommendationList:
    """Ordered recommendation candidates with base recommender scores.

    Items must be unique and ordered by non-increasing score; construction
    validates both.
    """

    user: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((str(i), float(s)) for i, s in self.items)
        )
        seen: set[str] = set()
        previous = None
        for item, score in self.items:
            if item in seen:
                raise ValueError(f"duplicate item {item!r} in recommendation list")
            seen.add(item)
            if previous is not None and score > previous:
                raise ValueError(
                    f"scores must be non-increasing; item {item!r} breaks the order"
                )
            previous = score

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def item_ids(self) -> tuple[str, ...]:
        return tuple(item for item, _ in self.items)

    def top(self, k: int) -> tuple[str, ...]:
        return self.item_ids()[:k]


@dataclass(frozen=True)
class RerankConfig:
    metric: MetricKind
    order: SortOrder = SortOrder.ASCENDING
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD
    top_n: int = 100

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")


@dataclass(frozen=True)
class RankedItem:
    item: str
    metric_value: MetricValue
    delta: float
    original_rank: int
    new_rank: int


@dataclass(frozen=True)
class CandidateEvaluation:
    """Metric outcome for one candidate, before any ordering is applied."""

    item: str
    base_score: float
    original_rank: int
    metric_value: MetricValue


def baseline_metric(
    sg: ProfileSubgraph,
    kind: MetricKind,
    cache: dict[tuple[str, MetricKind], MetricValue] | None = None,
) -> MetricValue:
    """Metric on the unextended profile subgraph, optionally cached per run.

    The cache is keyed by (user, metric); pass the same dict across calls
    within one run to avoid recomputing the baseline per candidate list.
    """
    if cache is not None:
        key = (sg.user, kind)
        hit = cache.get(key)
        if hit is not None:
            return hit
    value = compute_metric(sg.graph, kind)
    if cache is not None:
        cache[(sg.user, kind)] = value
    return value


def evaluate_metrics(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metrics: Sequence[MetricKind],
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> dict[MetricKind, list[CandidateEvaluation]]:
    """Evaluate every metric on the extension of ``sg`` by each candidate.

    One loop, candidates first and metrics second. Each candidate is applied
    to the original subgraph independently, so the outcome does not depend on
    list order, and its extension delta is computed once for all metrics.
    Betweenness and closeness read the profile's adjacency, compiled once, plus
    the delta, and share one BFS pass (:class:`~kgrerank.metrics.PathEngine`);
    the other metrics read an :class:`OverlayView`. Both give the values of
    ``compute_metric`` on the materialized extension.
    """
    kinds = list(dict.fromkeys(metrics))
    path_kinds = [k for k in kinds if k in PATH_KINDS]
    view_kinds = [k for k in kinds if k not in PATH_KINDS]
    engine = None
    results: dict[MetricKind, list[CandidateEvaluation]] = {k: [] for k in kinds}
    for position, (item, score) in enumerate(recs.items, start=1):
        failing = kinds
        try:
            delta = extension_delta(sg.graph, catalog, item, mode)
            values = {}
            if view_kinds:
                view = OverlayView(sg.graph, delta)
                for kind in view_kinds:
                    failing = [kind]
                    values[kind] = compute_metric(view, kind)
            if path_kinds:
                failing = path_kinds
                if engine is None:
                    engine = PathEngine(sg.graph)
                values.update(
                    engine.evaluate(
                        [node.id for node in delta.nodes],
                        [(source, target) for source, _, target in delta.edges],
                        path_kinds,
                    )
                )
        except Exception as exc:
            names = ", ".join(k.value for k in failing)
            raise RerankError(
                f"{names} evaluation failed for user {sg.user!r}, item {item!r}: {exc}"
            ) from exc
        for kind in kinds:
            results[kind].append(CandidateEvaluation(item, score, position, values[kind]))
    return results


def evaluate_candidates(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    metric: MetricKind,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> list[CandidateEvaluation]:
    """Evaluate one metric on the extension of ``sg`` by each candidate."""
    return evaluate_metrics(catalog, sg, recs, (metric,), mode)[metric]


def order_candidates(
    evaluations: Iterable[CandidateEvaluation],
    order: SortOrder,
    top_n: int,
) -> list[CandidateEvaluation]:
    """Order evaluated candidates and truncate to the requested length.

    Ties on the metric value fall back to descending base score, then to the
    item id, which keeps the output deterministic.
    """
    sign = 1.0 if order is SortOrder.ASCENDING else -1.0
    ordered = sorted(
        evaluations,
        key=lambda e: (sign * e.metric_value.value, -e.base_score, e.item),
    )
    return ordered[:top_n]


def rank_candidates(
    evaluations: Iterable[CandidateEvaluation],
    baseline: MetricValue,
    order: SortOrder,
    top_n: int,
) -> list[RankedItem]:
    """:func:`order_candidates`, each carrying its delta against ``baseline``."""
    return [
        RankedItem(
            item=e.item,
            metric_value=e.metric_value,
            delta=e.metric_value.value - baseline.value,
            original_rank=e.original_rank,
            new_rank=rank,
        )
        for rank, e in enumerate(order_candidates(evaluations, order, top_n), start=1)
    ]


def rerank(
    catalog: CatalogGraph,
    sg: ProfileSubgraph,
    recs: RecommendationList,
    cfg: RerankConfig,
    baseline_cache: dict[tuple[str, MetricKind], MetricValue] | None = None,
) -> list[RankedItem]:
    """Re-rank a recommendation list by metric impact on the profile subgraph.

    Returns at most ``cfg.top_n`` items ordered per ``cfg.order``; each carries
    its metric value on the extended subgraph and the delta against the
    baseline metric of the unextended subgraph.
    """
    if not recs.items:
        return []
    baseline = baseline_metric(sg, cfg.metric, baseline_cache)
    evaluations = evaluate_candidates(catalog, sg, recs, cfg.metric, cfg.mode)
    return rank_candidates(evaluations, baseline, cfg.order, cfg.top_n)


def ranked_item_ids(ranked: Sequence[RankedItem]) -> list[str]:
    return [r.item for r in ranked]

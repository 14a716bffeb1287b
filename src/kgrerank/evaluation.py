"""Beyond-accuracy evaluation of re-ranked recommendation lists.

Intra-list diversity and unexpectedness are measured over 8-dimensional
acoustic feature vectors with cosine distance; agreement between a re-ranked
list and its base list is measured with nDCG@k where the base ranking itself
provides the relevance grades. Report emission is deterministic so output
files can be compared byte for byte.

Float contract: each distance is an entry of one product
(``_distance_matrix``) and equals the per-pair formula
``1 - (a @ b) / (norm(a) * norm(b))`` on fresh 1-D arrays, clipped to [0, 1],
bit for bit. ILD adds the off-diagonal entries in row-major order
sequentially (``np.cumsum``; ``np.sum`` adds pairwise) and unexpectedness adds
its (recommendation, history) block with built-in ``sum``, as the per-pair
loops did. With OpenBLAS 0.3.31 (Haswell kernels), ``X @ X.T`` (syrk) and one
row at a time (gemv) differ from the per-pair dot on about 3% and 43% of
pairs, and unpadded gemm in the tail rows and columns of large n (from 193 on
some inputs) not a multiple of 8; rows zero-padded to a multiple of 8, times a
copy of their transpose (gemm), differ on none for any n from 1 to 419.
``tests/test_evaluation.py`` pins this; another BLAS may need another product.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .rerank import RecommendationList

FEATURE_NAMES = (
    "danceability",
    "energy",
    "speechiness",
    "acousticness",
    "instrumentalness",
    "liveness",
    "valence",
    "tempo",
)


@dataclass(frozen=True)
class FeatureVector:
    """Acoustic description of one track; every component lies in [0, 1]."""

    danceability: float
    energy: float
    speechiness: float
    acousticness: float
    instrumentalness: float
    liveness: float
    valence: float
    tempo: float

    def __post_init__(self) -> None:
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"feature {name} = {value!r} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])

    @classmethod
    def from_iterable(cls, values: Iterable[float]) -> "FeatureVector":
        values = tuple(float(v) for v in values)
        if len(values) != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} components, got {len(values)}"
            )
        return cls(*values)


def _distance_matrix(vectors: Sequence[FeatureVector]) -> np.ndarray:
    """Clipped cosine distances of all pairs; padded as the float contract says."""
    n = len(vectors)
    rows = np.zeros((-(-n // 8) * 8, len(FEATURE_NAMES)))
    rows[:n] = [v.as_array() for v in vectors]
    dots = (rows @ rows.T.copy())[:n, :n]
    norms = np.sqrt(dots.diagonal())
    scale = np.multiply.outer(norms, norms)
    if not scale.all():
        raise ValueError("cosine distance is undefined for a zero-norm vector")
    return np.clip(1.0 - dots / scale, 0.0, 1.0)


def cosine_distance(a: FeatureVector, b: FeatureVector) -> float:
    """1 - cosine similarity; in [0, 1] for the non-negative vectors used here."""
    return float(_distance_matrix([a, b])[0, 1])


def ild(items: Sequence[FeatureVector]) -> float:
    """Intra-list diversity: mean pairwise distance over ordered pairs.

    Lists with fewer than two items have no pairs and yield 0.
    """
    n = len(items)
    if n <= 1:
        return 0.0
    distances = _distance_matrix(items)[~np.eye(n, dtype=bool)]
    return float(np.cumsum(distances)[-1]) / (n * (n - 1))


def unexpectedness(
    history: Sequence[FeatureVector], recs: Sequence[FeatureVector]
) -> float:
    """Mean distance of each recommended item to each item in the history."""
    if not history:
        raise ValueError("unexpectedness requires a non-empty history")
    if not recs:
        raise ValueError("unexpectedness requires a non-empty recommendation list")
    r = len(recs)
    block = _distance_matrix([*recs, *history])[:r, r:]
    return sum(block.ravel().tolist()) / (r * len(history))


def lookup_features(
    items: Iterable[str], features: Mapping[str, FeatureVector]
) -> list[FeatureVector]:
    """Resolve items to feature vectors, failing loudly on the missing one."""
    out = []
    for item in items:
        try:
            out.append(features[item])
        except KeyError:
            raise KeyError(f"no feature vector for item {item!r}") from None
    return out


def _entry_item(entry) -> str:
    # accepts RankedItem-likes (anything with .item) or bare item ids
    return getattr(entry, "item", entry)


def ndcg_at_k(base: RecommendationList, reranked: Sequence, k: int = 10) -> float:
    """Agreement of a re-ranked list with its base list, as nDCG@k.

    The base ranking provides the relevance grades: the item at base rank r
    within the top k is worth k - r + 1, anything below rank k is worth 0.
    DCG is accumulated over the re-ranked top k with log2 position discounts
    and normalized by the DCG of the base order itself, so identical orderings
    score exactly 1 and disjoint top-k sets score exactly 0. ``reranked`` may
    hold item ids or ranked-item objects.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    base_ids = base.item_ids()
    relevance = {
        item: k - r + 1 for r, item in enumerate(base_ids[:k], start=1)
    }

    def dcg(items: Sequence[str]) -> float:
        return sum(
            relevance.get(item, 0) / math.log2(position + 1)
            for position, item in enumerate(items[:k], start=1)
        )

    ideal = dcg(list(base_ids))
    if ideal == 0.0:
        return 1.0  # empty base list: nothing to disagree about
    return dcg([_entry_item(e) for e in reranked]) / ideal


@dataclass(frozen=True)
class EvalRow:
    """One evaluation outcome for a (user, metric, order) combination.

    ``metric`` holds the metric name, or the pseudo-metrics ``base`` (the
    unmodified recommender output) and ``profile`` (the user history's own
    diversity reference). Measures that do not apply are None and serialize
    to empty CSV cells.
    """

    user: str
    metric: str
    order: str
    ild: float | None
    unexpectedness: float | None
    ndcg10: float | None


_REPORT_HEADER = "user,metric,order,ild,unexpectedness,ndcg10"
_SUMMARY_HEADER = "metric,order,ild,unexpectedness,ndcg10"


def _cell(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def emit_report(rows: Iterable[EvalRow], report_path, summary_path=None) -> None:
    """Write the per-user report CSV and, optionally, per-(metric, order) means.

    Rows are sorted by (user, metric, order) and floats are formatted with a
    fixed precision, so two runs over the same data produce identical bytes.
    """
    ordered = sorted(rows, key=lambda r: (r.user, r.metric, r.order))
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_REPORT_HEADER + "\n")
        for row in ordered:
            fh.write(
                f"{row.user},{row.metric},{row.order},"
                f"{_cell(row.ild)},{_cell(row.unexpectedness)},{_cell(row.ndcg10)}\n"
            )
    if summary_path is None:
        return
    def mean_of(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    groups: dict[tuple[str, str], list[EvalRow]] = {}
    for row in ordered:
        groups.setdefault((row.metric, row.order), []).append(row)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_SUMMARY_HEADER + "\n")
        for metric, order in sorted(groups):
            members = groups[(metric, order)]
            mean_ild = mean_of([r.ild for r in members if r.ild is not None])
            mean_unexp = mean_of(
                [r.unexpectedness for r in members if r.unexpectedness is not None]
            )
            mean_ndcg = mean_of([r.ndcg10 for r in members if r.ndcg10 is not None])
            fh.write(
                f"{metric},{order},{_cell(mean_ild)},"
                f"{_cell(mean_unexp)},{_cell(mean_ndcg)}\n"
            )


def write_qrels(
    base_lists: Mapping[str, RecommendationList], k: int, path
) -> None:
    """Write trec_eval-style relevance judgements derived from base lists.

    One line per (user, item) in the base top-k: ``<user> 0 <item> <rel>``
    with relevance k - rank + 1. Items below rank k are omitted (implicitly
    relevance 0).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in sorted(base_lists):
            for rank, item in enumerate(base_lists[user].top(k), start=1):
                fh.write(f"{user} 0 {item} {k - rank + 1}\n")


def write_trec_run(
    rankings: Mapping[str, Sequence[str]], tag: str, path
) -> None:
    """Write rankings as a trec_eval run file.

    ``<user> Q0 <item> <rank> <score> <tag>``; the score is derived from the
    position (list length - rank + 1) so it decreases with rank regardless of
    the metric direction that produced the ordering.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in sorted(rankings):
            items = list(rankings[user])
            n = len(items)
            for rank, entry in enumerate(items, start=1):
                item = _entry_item(entry)
                fh.write(f"{user} Q0 {item} {rank} {float(n - rank + 1)!r} {tag}\n")

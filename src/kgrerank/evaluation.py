"""Beyond-accuracy evaluation of re-ranked recommendation lists.

Intra-list diversity and unexpectedness are measured with cosine distance
over acoustic feature rows: a track's row is the read-only float64 array of
shape (8,), in ``FEATURE_NAMES`` order, that ``feature_vector`` builds. Its
rule (each component in [0, 1], no NaN) lives here alone: ``feature_vector``,
``ingest.merge_lastfm`` and ``cli._read_features`` call
``first_bad_feature_row``, and each decides what an all-zero row is. A feature
store maps item ids to rows; ``lookup_features`` stacks a list's rows into one
(n x 8) array, and the distance functions take such arrays. The readers that
fill a store reject a repeated id with its file, line and first line.
Agreement between a re-ranked list and its base list is measured with nDCG@k
where the base ranking itself provides the relevance grades. Report emission
is deterministic so output files can be compared byte for byte.

Float contract: each distance is an entry of one product
(``_distance_matrix``) and equals the per-pair formula
``1 - (a @ b) / (norm(a) * norm(b))`` on fresh 1-D arrays, clipped to [0, 1],
bit for bit. ILD adds the off-diagonal entries and unexpectedness its
(recommendation, history) block in row-major order, left to right
(``np.cumsum``; ``np.sum`` adds pairwise), as the per-pair loops did. Every
other float sum here (DCG, the summary means) also adds left to right, with
``reduce(add, ...)``: built-in ``sum`` compensates from Python 3.12 on.

With OpenBLAS 0.3.31 (Haswell kernels), ``X @ X.T`` (syrk) and one row at a
time (gemv) differ from the per-pair dot on about 3% and 43% of pairs, and
unpadded gemm in the tail rows and columns of large n (from 193 on some
inputs) not a multiple of 8; rows zero-padded to a multiple of 8, times a copy
of their transpose (gemm), differ on none for any n from 1 to 419.
``tests/test_evaluation.py`` pins this; another BLAS may need another product.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from numpy.typing import ArrayLike

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


def first_bad_feature_row(rows: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first of (n x 8) rows with a component outside
    [0, 1], NaN included; the reason names its first such component."""
    in_range = (rows >= 0.0) & (rows <= 1.0)
    if in_range.all():
        return None
    # row-major: the first False is in the first bad row, at its first bad column
    first, column = divmod(int(np.argmin(in_range)), len(FEATURE_NAMES))
    value = rows[first, column].item()
    return first, f"feature {FEATURE_NAMES[column]} = {value!r} outside [0, 1]"


def feature_vector(values: Iterable[float]) -> np.ndarray:
    """One track's acoustic row: read-only float64, shape (8,), in
    ``FEATURE_NAMES`` order, checked by ``first_bad_feature_row``."""
    row = np.array([float(v) for v in values])
    if len(row) != len(FEATURE_NAMES):
        raise ValueError(f"expected {len(FEATURE_NAMES)} components, got {len(row)}")
    bad = first_bad_feature_row(row[np.newaxis])
    if bad:
        raise ValueError(bad[1])
    row.flags.writeable = False
    return row


def _distance_matrix(vectors: ArrayLike) -> np.ndarray:
    """Clipped cosine distances of all pairs of (n x 8) rows; padded as the
    float contract says."""
    n = len(vectors)
    rows = np.zeros((-(-n // 8) * 8, len(FEATURE_NAMES)))
    rows[:n] = vectors
    dots = (rows @ rows.T.copy())[:n, :n]
    norms = np.sqrt(dots.diagonal())
    scale = np.multiply.outer(norms, norms)
    if not scale.all():
        raise ValueError("cosine distance is undefined for a zero-norm vector")
    return np.clip(1.0 - dots / scale, 0.0, 1.0)


def cosine_distance(a: ArrayLike, b: ArrayLike) -> float:
    """1 - cosine similarity; in [0, 1] for the non-negative vectors used here."""
    return float(_distance_matrix([a, b])[0, 1])


def ild(items: ArrayLike) -> float:
    """Intra-list diversity of (n x 8) rows: mean pairwise distance over
    ordered pairs.

    Lists with fewer than two items have no pairs and yield 0.
    """
    n = len(items)
    if n <= 1:
        return 0.0
    distances = _distance_matrix(items)[~np.eye(n, dtype=bool)]
    return float(np.cumsum(distances)[-1]) / (n * (n - 1))


def unexpectedness(history: ArrayLike, recs: ArrayLike) -> float:
    """Mean distance of each recommended row to each history row."""
    if len(history) == 0:
        raise ValueError("unexpectedness requires a non-empty history")
    if len(recs) == 0:
        raise ValueError("unexpectedness requires a non-empty recommendation list")
    r = len(recs)
    block = _distance_matrix(np.concatenate([recs, history]))[:r, r:]
    return float(np.cumsum(block.ravel())[-1]) / (r * len(history))


def lookup_features(
    items: Iterable[str], features: Mapping[str, np.ndarray]
) -> np.ndarray:
    """The (n x 8) rows of ``items``, failing loudly on the missing one."""
    rows = []
    for item in items:
        try:
            rows.append(features[item])
        except KeyError:
            raise KeyError(f"no feature vector for item {item!r}") from None
    return np.array(rows).reshape(-1, len(FEATURE_NAMES))


def ndcg_at_k(base: RecommendationList, reranked: Sequence[str], k: int = 10) -> float:
    """Agreement of a re-ranked list with its base list, as nDCG@k.

    The base ranking provides the relevance grades: the item at base rank r
    within the top k is worth k - r + 1, anything below rank k is worth 0.
    DCG is accumulated over the re-ranked top k with log2 position discounts
    and normalized by the DCG of the base order itself, so identical orderings
    score exactly 1 and disjoint top-k sets score exactly 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    base_ids = base.item_ids()
    relevance = {
        item: k - r + 1 for r, item in enumerate(base_ids[:k], start=1)
    }

    def dcg(items: Sequence[str]) -> float:
        return reduce(add, (
            relevance.get(item, 0) / math.log2(position + 1)
            for position, item in enumerate(items[:k], start=1)
        ), 0.0)

    ideal = dcg(list(base_ids))
    if ideal == 0.0:
        return 1.0  # empty base list: nothing to disagree about
    return dcg(reranked) / ideal


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
        return reduce(add, values, 0.0) / len(values) if values else None

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
            for rank, item in enumerate(items, start=1):
                fh.write(f"{user} Q0 {item} {rank} {float(n - rank + 1)!r} {tag}\n")

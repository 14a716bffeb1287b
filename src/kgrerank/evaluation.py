"""Beyond-accuracy evaluation of re-ranked recommendation lists.

Intra-list diversity and unexpectedness are measured with cosine distance
over acoustic feature rows: a track's row is the read-only float64 array of
shape (8,), in ``FEATURE_NAMES`` order, that ``feature_vector`` builds. Its
rule (each component in [0, 1], no NaN) lives here alone: ``feature_vector``
and ``ingest.merge_lastfm`` call ``first_bad_feature_row``, the workspace
reader ``cli._read_features`` calls ``feature_vector`` on each row, and each
reader decides what an all-zero row is. A feature store maps item ids to
rows; ``lookup_features`` stacks a list's rows into one (n x 8) array, and
``ild`` and ``unexpectedness`` take such arrays. The readers that fill a store
reject a repeated id with its file, line and first line.
Agreement between a re-ranked list and its base list is measured with nDCG@k
where the base ranking itself provides the relevance grades. Report emission
is deterministic so output files can be compared byte for byte.

Float contract: each distance is an entry of one product
(``_distance_matrix``) and equals the per-pair formula
``1 - (a @ b) / (norm(a) * norm(b))`` on fresh 1-D arrays, clipped to [0, 1],
bit for bit, whatever matrix it sits in. Every sum of distances adds its terms
in ascending order, left to right (``np.sort``, then
``metrics._running_total``; ``np.sum`` adds pairwise), so ILD and
unexpectedness are functions of the list's and the history's item sets:
reordering either changes no bit. ``_pair_means`` is the one such sum: it
takes blocks gathered from one matrix, lists padded to the
longest, where the diagonal and the padding read +0. Every distance is at
least +0, so those terms sort first and add nothing. ``evaluate_user`` takes
all of a user's lists, and the history's own ILD, from one matrix over the
history and the lists' distinct items; ``ild`` and ``unexpectedness`` sum the
same blocks of a matrix over one list, and ``ndcg_at_k`` runs
``evaluate_user``'s DCG (``_ndcgs``) on one list. DCG adds in position order
and the summary means in row order, left to right: every float sum here goes
through ``_running_total``, since built-in ``sum`` compensates from Python
3.12 on.

With OpenBLAS 0.3.31 (Haswell kernels), ``X @ X.T`` (syrk) and one row at a
time (gemv) differ from the per-pair dot on about 3% and 43% of pairs, and
unpadded gemm in the tail rows and columns of large n (from 193 on some
inputs) not a multiple of 8; rows zero-padded to a multiple of 8, times a copy
of their transpose (gemm), differ on none for any n from 1 to 419.
``tests/test_evaluation.py`` pins this; another BLAS may need another product.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .metrics import _running_total
from .rerank import RecommendationList

if TYPE_CHECKING:  # annotations only: a run need not import numpy.typing
    from numpy.typing import ArrayLike


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
    """Clipped cosine distances of all pairs of (n x 8) rows, as an
    (n + 1) x (n + 1) matrix whose diagonal and last row and column are +0:
    an entry gathered on the diagonal or at the padding index -1 adds
    nothing. The product is padded as the float contract says."""
    n = len(vectors)
    rows = np.zeros((-(-n // 8) * 8, len(FEATURE_NAMES)))
    rows[:n] = vectors
    dots = (rows @ rows.T.copy())[:n, :n]
    norms = np.sqrt(dots.diagonal())
    scale = np.multiply.outer(norms, norms)
    if not scale.all():
        raise ValueError("cosine distance is undefined for a zero-norm vector")
    distances = np.zeros((n + 1, n + 1))
    np.clip(1.0 - dots / scale, 0.0, 1.0, out=distances[:n, :n])
    np.fill_diagonal(distances, 0.0)
    return distances


def _pair_means(blocks: np.ndarray, pairs: Sequence[int]) -> list[float]:
    """The mean of each block's ``pairs[i]`` distances, every other entry of
    the block being +0; 0 for a block with no pair. The entries are added
    left to right in ascending order."""
    sums = _running_total(np.sort(blocks.reshape(len(blocks), -1), axis=1))
    return [total / n if n else 0.0 for total, n in zip(sums.tolist(), pairs)]


def _padded(tops: Sequence[Sequence[str]]) -> np.ndarray:
    """The (lists x longest, at least 1) mask of each list's real entries."""
    lengths = np.array([len(top) for top in tops])
    return np.arange(max(1, lengths.max())) < lengths[:, None]


def _ndcgs(tops: Sequence[Sequence[str]], k: int) -> list[float]:
    """nDCG@k of each top k, graded by the order of the first: its item at
    rank r is worth k - r + 1, any other item 0.

    Each DCG adds its gains over log2 discounts of positions 1, 2, ... left
    to right, in position order, and is divided by the first list's. An
    empty first list leaves nothing to disagree about: every value is 1.
    """
    real = _padded(tops)
    grades = {item: k - rank for rank, item in enumerate(tops[0])}
    gains = np.zeros(real.shape)
    gains[real] = [grades.get(item, 0) for top in tops for item in top]
    discounts = np.array([math.log2(position + 1) for position in range(1, real.shape[1] + 1)])
    dcgs = _running_total(gains / discounts)
    return [1.0] * len(tops) if dcgs[0] == 0.0 else (dcgs / dcgs[0]).tolist()


def _require_rows(history: int, recs: int) -> None:
    """Unexpectedness needs a history and a recommendation: fail on an empty
    one, the history first."""
    if history == 0:
        raise ValueError("unexpectedness requires a non-empty history")
    if recs == 0:
        raise ValueError("unexpectedness requires a non-empty recommendation list")


def ild(items: ArrayLike) -> float:
    """Intra-list diversity of (n x 8) rows: mean pairwise distance over
    ordered pairs.

    Lists with fewer than two items have no pairs and yield 0.
    """
    n = len(items)
    if n <= 1:
        return 0.0
    return _pair_means(_distance_matrix(items)[np.newaxis], [n * (n - 1)])[0]


def unexpectedness(history: ArrayLike, recs: ArrayLike) -> float:
    """Mean distance of each recommended row to each history row."""
    h = len(history)
    _require_rows(h, len(recs))
    distances = _distance_matrix(np.concatenate([history, recs]))
    return _pair_means(distances[np.newaxis, h:, :h], [len(recs) * h])[0]


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
    return _ndcgs([base.top(k), reranked[:k]], k)[1]


@dataclass(frozen=True)
class EvalRow:
    """One evaluation outcome for a (user, metric, order) combination.

    ``metric`` holds the metric name, or the pseudo-metrics ``base`` (the
    unmodified recommender output) and ``profile`` (the user history's own
    diversity reference). ``ndcg`` is nDCG at the evaluation's k. Measures
    that do not apply are None and serialize to empty CSV cells.
    """

    user: str
    metric: str
    order: str
    ild: float | None
    unexpectedness: float | None
    ndcg: float | None


def evaluate_user(
    user: str,
    history: Sequence[str],
    lists: Sequence[tuple[str, str, RecommendationList]],
    features: Mapping[str, np.ndarray] | None,
    k: int,
) -> list[EvalRow]:
    """One user's report rows, from one distance matrix.

    ``lists`` holds (metric, order, list) triples, the base list first: its
    order grades nDCG. With ``features``, the rows are the history's
    ``profile`` row, then one row per list with the ILD and unexpectedness
    of its top k; without, one row per list with nDCG alone. Each value
    equals ``ild``, ``unexpectedness`` and ``ndcg_at_k`` on that list alone,
    bit for bit, and each error is the one those raise first, list by list:
    a missing feature (history, then each list's top k), then an empty
    history or list. Every item is looked up before any distance is taken,
    so a missing item is named ahead of a zero-norm row.

    The matrix's rows are the history, then the lists' distinct top-k items
    in first-occurrence order. A list item that is also in the history gets
    a row of its own, so that every distance used is off the diagonal, as in
    the one-list functions' matrices.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tops = [lst.top(k) for _, _, lst in lists]
    ndcgs = _ndcgs(tops, k)
    if features is None:
        return [EvalRow(user, m, o, None, None, g) for (m, o, _), g in zip(lists, ndcgs)]

    h = len(history)
    # the first list with no history to compare with, or no items, fails
    # once its own items are looked up
    stop = next((i for i, top in enumerate(tops) if not (h and top)), len(tops) - 1)
    items = dict.fromkeys(chain.from_iterable(tops[: stop + 1]))
    matrix_rows = lookup_features([*history, *items], features)
    _require_rows(h, len(tops[stop]))
    distances = _distance_matrix(matrix_rows)
    at = {item: row for row, item in enumerate(items, start=h)}
    real = _padded(tops)
    index = np.full(real.shape, -1)
    index[real] = [at[item] for top in tops for item in top]
    lengths = [len(top) for top in tops]

    profile = _pair_means(distances[np.newaxis, :h, :h], [h * (h - 1)])[0]
    ilds = _pair_means(
        distances[index[:, :, None], index[:, None, :]], [r * (r - 1) for r in lengths]
    )
    unexps = _pair_means(distances[index, :h], [r * h for r in lengths])
    return [EvalRow(user, "profile", "-", profile, None, None)] + [
        EvalRow(user, m, o, i, u, g) for (m, o, _), i, u, g in zip(lists, ilds, unexps, ndcgs)
    ]


# the measure columns; the nDCG column is named for the k it was taken at
_MEASURES = ("ild", "unexpectedness", "ndcg{k}")


def _cell(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def emit_report(
    rows: Iterable[EvalRow], report_path, summary_path=None, k: int = 10
) -> None:
    """Write the per-user report CSV and, optionally, per-(metric, order) means.

    The nDCG column is headed ``ndcg{k}``, for the k the rows were evaluated
    at. Rows are sorted by (user, metric, order) and floats are formatted with a
    fixed precision, so two runs over the same data produce identical bytes.
    Both files are written by ``csv.writer``, which quotes a field only where
    it holds a comma, a quote or a line break, such as a user id with a comma.
    Each mean adds its values left to right, in row order.
    """
    measures = [name.format(k=k) for name in _MEASURES]
    ordered = sorted(rows, key=lambda r: (r.user, r.metric, r.order))
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "metric", "order", *measures])
        writer.writerows(
            [r.user, r.metric, r.order, _cell(r.ild), _cell(r.unexpectedness), _cell(r.ndcg)]
            for r in ordered
        )
    if summary_path is None:
        return

    def mean_of(values: list[float]) -> float | None:
        return float(_running_total(np.array(values))) / len(values) if values else None

    groups: dict[tuple[str, str], list[EvalRow]] = {}
    for row in ordered:
        groups.setdefault((row.metric, row.order), []).append(row)
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "order", *measures])
        for (metric, order), members in sorted(groups.items()):
            columns = zip(*((r.ild, r.unexpectedness, r.ndcg) for r in members))
            means = [mean_of([v for v in column if v is not None]) for column in columns]
            writer.writerow([metric, order, *map(_cell, means)])


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
    # per list length, each rank's " <rank> <score> <tag>\n"
    tails: dict[int, list[str]] = {}
    lines = []
    for user in sorted(rankings):
        items = rankings[user]
        n = len(items)
        if n not in tails:
            tails[n] = [f" {rank} {float(n - rank + 1)!r} {tag}\n" for rank in range(1, n + 1)]
        lines += [f"{user} Q0 {item}{tail}" for item, tail in zip(items, tails[n])]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))

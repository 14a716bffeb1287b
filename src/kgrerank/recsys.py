"""Base recommender over implicit feedback, plus the external-list adapter.

Play counts (or watch flags) are scaled per user into explicit ratings in
[1, 1000] by min-max normalization. One simple rating model is built in: a
global-mean-plus-biases baseline. Recommendation lists from any other system
can be loaded from a flat run file instead, since the re-ranking layer treats
the recommender as a black box.

The baseline is an array program over one form of the ratings:
:class:`RatingMatrix` keeps users and items in sorted order and the ratings
only as flat index arrays in (user, item) order, and the bias fit and the
scoring run over those arrays. In ``recommend`` the anti-testset is a
boolean mask over the sorted item index, the model scores it as one vector,
and a stable ``np.argsort`` of the negated scores orders it by (-score, item
id).

Float contract: every value equals the scalar loop it replaces, bit for bit.
Sums add left to right, because built-in ``sum`` compensates from Python 3.12
on and numpy's ``sum`` adds pairwise, and either would change the written
scores. The bias fit sums each row of a zero-padded block with a leading 0.0
column through ``metrics._running_total``, which is
``reduce(add, row, 0.0)``: an item's raters in user order, a user's items in
item order. The padding adds +0.0, which changes no sum. A score adds
``(mu + b_user) + b_item`` in that order and then clamps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .metrics import _running_total
from .rerank import RecommendationList

RATING_MIN = 1.0
RATING_MAX = 1000.0


class NotFittedError(RuntimeError):
    """A model method that requires fitting was called before ``fit``."""


class RunFileError(ValueError):
    """A recommendation run file violates the expected format."""


@dataclass(frozen=True)
class Interaction:
    """One aggregated user-item interaction (play count or watch flag)."""

    user: str
    item: str
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"interaction count must be >= 1, got {self.count}")


class RatingMatrix:
    """Sparse user-item rating matrix with values in [1, 1000], as arrays.

    Users and items are kept in sorted order, a user with no ratings is left
    out, and the ratings are three flat arrays in (user, item) order: each
    rating's user position, its item position and its value. ``_starts``
    bounds each user's slice of them.
    """

    def __init__(self, ratings: Mapping[str, Mapping[str, float]]):
        users: list[str] = []
        rated: list[str] = []
        values: list[float] = []
        counts: list[int] = []
        for user in sorted(ratings):
            row = ratings[user]
            if not row:
                continue
            items = sorted(row)
            for item in items:
                value = float(row[item])
                if not RATING_MIN <= value <= RATING_MAX:
                    raise ValueError(
                        f"rating {value!r} for ({user!r}, {item!r}) outside "
                        f"[{RATING_MIN}, {RATING_MAX}]"
                    )
                values.append(value)
            users.append(user)
            rated += items
            counts.append(len(items))
        self._items = sorted(set(rated))
        self._user_pos = {user: u for u, user in enumerate(users)}
        self._item_pos = {item: i for i, item in enumerate(self._items)}
        self._rows = np.repeat(np.arange(len(counts)), counts)
        self._cols = np.array([self._item_pos[i] for i in rated], dtype=np.intp)
        self._values = np.array(values, dtype=float)
        self._starts = np.cumsum([0, *counts])

    def has_user(self, user: str) -> bool:
        return user in self._user_pos

    def _unrated(self, user: str) -> np.ndarray:
        """Boolean mask over the sorted items: True where ``user`` has no
        rating. An unknown user has rated nothing."""
        mask = np.ones(len(self._items), dtype=bool)
        u = self._user_pos.get(user)
        if u is not None:
            mask[self._cols[self._starts[u] : self._starts[u + 1]]] = False
        return mask


def scale_ratings(interactions: Iterable[Interaction]) -> RatingMatrix:
    """Turn per-user interaction counts into explicit ratings in [1, 1000].

    Per user: rating = 1 + 999 * (count - min) / (max - min), so the user's
    most-interacted item always rates 1000. When all counts are equal every
    item is the user's most-interacted one and rates 1000. Duplicate
    (user, item) pairs are aggregated by summing counts first.
    """
    counts: dict[str, dict[str, int]] = {}
    for interaction in interactions:
        row = counts.setdefault(interaction.user, {})
        row[interaction.item] = row.get(interaction.item, 0) + interaction.count

    ratings: dict[str, dict[str, float]] = {}
    for user in sorted(counts):
        row = counts[user]
        low = min(row.values())
        high = max(row.values())
        if high == low:
            ratings[user] = {item: RATING_MAX for item in row}
        else:
            span = high - low
            ratings[user] = {
                item: RATING_MIN + (RATING_MAX - RATING_MIN) * (c - low) / span
                for item, c in row.items()
            }
    return RatingMatrix(ratings)


class _RowSums:
    """Left-to-right sums of ragged rows, one ``_running_total`` per call.

    ``rows`` gives each value's row. Within a row the values are added in the
    order they are given, through a zero-padded block whose first column is
    0.0, so each sum is ``reduce(add, row, 0.0)`` bit for bit. The block is
    kept as (columns x rows), the layout ``_running_total`` sums in, so no
    call copies it.
    """

    def __init__(self, rows: np.ndarray, n_rows: int):
        self._order = np.argsort(rows, kind="stable")
        self.counts = np.bincount(rows, minlength=n_rows)
        self._rows = rows[self._order]
        starts = np.cumsum(self.counts) - self.counts
        self._cols = np.arange(len(rows)) - starts[self._rows] + 1
        self._block = np.zeros((int(self.counts.max(initial=0)) + 1, n_rows))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self._block[self._cols, self._rows] = values[self._order]
        return _running_total(self._block.T)


class BaselineRecommender:
    """Rating baseline: global mean plus user and item bias terms.

    Biases are fitted by alternating regularized averages: each pass solves
    the item biases given the user biases and vice versa, with an L2 damping
    term in the denominator. At convergence this is the minimizer of the
    damped squared-error objective.
    """

    def __init__(self, epochs: int = 10, damping: float = 10.0):
        self.epochs = epochs
        self.damping = damping
        self._matrix: RatingMatrix | None = None
        self._mu = 0.0
        self._user_bias = np.zeros(0)
        self._item_bias = np.zeros(0)

    def _require_fitted(self) -> RatingMatrix:
        if self._matrix is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self._matrix

    def fit(self, matrix: RatingMatrix) -> "BaselineRecommender":
        self._matrix = matrix
        rows, cols, values = matrix._rows, matrix._cols, matrix._values
        # left to right in (user, item) order, as a running total
        self._mu = float(_running_total(values) / len(values)) if len(values) else 0.0
        by_item = _RowSums(cols, len(matrix._items))
        by_user = _RowSums(rows, len(matrix._user_pos))
        centred = values - self._mu
        bu = np.zeros(len(by_user.counts))
        bi = np.zeros(len(by_item.counts))
        for _ in range(self.epochs):
            bi = by_item(centred - bu[rows]) / (self.damping + by_item.counts)
            bu = by_user(centred - bi[cols]) / (self.damping + by_user.counts)
        self._user_bias = bu
        self._item_bias = bi
        return self

    def recommend(self, user: str, n: int = 100) -> RecommendationList:
        """Top-n predictions on the user's anti-testset, best first.

        Ties on the predicted rating break on the item id so the output is
        stable across runs: the candidates are in sorted id order and the
        sort is stable. Items the user has already rated never appear. An
        ``n`` below 1 raises :class:`ValueError`.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        matrix = self._require_fitted()
        u = matrix._user_pos.get(user)
        if u is None:
            raise ValueError(f"unknown user {user!r}")
        candidates = np.flatnonzero(matrix._unrated(user))
        base = self._mu + self._user_bias[u]
        scores = np.minimum(
            np.maximum(base + self._item_bias[candidates], RATING_MIN), RATING_MAX
        )
        top = np.argsort(-scores, kind="stable")[:n]
        ids = [matrix._items[c] for c in candidates[top]]
        return RecommendationList(
            user=user, items=tuple(zip(ids, scores[top].tolist()))
        )


def write_recommendations(
    lists: Mapping[str, RecommendationList], path
) -> dict[str, RecommendationList]:
    """Write per-user recommendation lists in the flat run format.

    One line per item: ``<user_id> <rank> <item_id> <score>``, rank 1-based,
    scores non-increasing per user, users in sorted order. UTF-8 with LF line
    endings; scores are written with full round-trip precision. An id that
    is empty or holds whitespace, which the reader splits on, raises
    :class:`RunFileError` before anything is written.

    Returns what :func:`load_external_recommendations` reads from the file:
    the non-empty lists in user order. Each list must be filed under its own
    user.
    """
    lines = []
    users = sorted(lists)
    for user in users:
        user_ok = user.split() == [user]
        for rank, (item, score) in enumerate(lists[user].items, start=1):
            if not (user_ok and item.split() == [item]):
                raise RunFileError(
                    f"{path}: user {user!r}, item {item!r}: "
                    "an id must be non-empty and hold no whitespace"
                )
            lines.append(f"{user} {rank} {item} {score!r}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return {user: lists[user] for user in users if lists[user].items}


def load_external_recommendations(path) -> dict[str, RecommendationList]:
    """Parse a run file of externally computed recommendation lists.

    Validates the format line by line: four whitespace-separated fields,
    ranks counting up from 1 per user, non-NaN, non-increasing scores per
    user, and no item twice in one user's list.
    Violations raise :class:`RunFileError` with the line number.
    """
    pending: dict[str, list[tuple[str, float]]] = {}
    next_rank: dict[str, int] = {}
    last_score: dict[str, float] = {}
    first_line: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise RunFileError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}"
                )
            user, rank_text, item, score_text = parts
            try:
                rank = int(rank_text)
                score = float(score_text)
            except ValueError:
                raise RunFileError(
                    f"{path}:{lineno}: rank/score are not numeric"
                ) from None
            if math.isnan(score):
                raise RunFileError(f"{path}:{lineno}: score is not a number")
            expected = next_rank.get(user, 1)
            if rank != expected:
                raise RunFileError(
                    f"{path}:{lineno}: rank {rank} for user {user!r}, "
                    f"expected {expected}"
                )
            if user in last_score and score > last_score[user]:
                raise RunFileError(
                    f"{path}:{lineno}: score {score!r} increases for user {user!r}"
                )
            if (user, item) in first_line:
                raise RunFileError(
                    f"{path}:{lineno}: repeated item {item!r} for user {user!r}, "
                    f"first on line {first_line[user, item]}"
                )
            first_line[user, item] = lineno
            next_rank[user] = expected + 1
            last_score[user] = score
            pending.setdefault(user, []).append((item, score))
    return {
        user: RecommendationList(user=user, items=tuple(items))
        for user, items in pending.items()
    }

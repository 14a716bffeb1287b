"""Dataset loading: listening histories, title catalogs, synthetic profiles.

The music pipeline merges three tabular sources (listening events, acoustic
features, genre annotations) into aggregated interactions, catalog triples and
a per-track feature store. The movie/TV pipeline reads a titles CSV into
triples and one catalog node per title. Synthetic generation covers both user
histories over an existing catalog, which are the movie/TV profiles whole, and
a fully self-contained two-cluster dataset used by the bundled experiments.
All sampling is seeded and reproducible bit for bit.

The readers build their results without an object per input record: events
are counted straight into per-user play counts (:attr:`MergeResult.plays`),
the CSVs are read with ``csv.reader`` by column position, and the joined
tracks' features are scaled and checked as one (tracks x 8) array whose
read-only rows become the feature rows; the synthetic dataset's features are
drawn into such an array too. A catalog edge is a :class:`Triple`, a named
tuple. An :class:`~kgrerank.recsys.Interaction` is made only on request
(:meth:`MergeResult.interactions_of`), so a pipeline run samples its users
from the play counts (:func:`sample_users`) and makes interactions for the
kept users alone. Every error names the file and the physical line; a CSV
row too short for a required column, or longer than its header, is one
(``missing value(s) for ...``, ``N value(s) beyond the M columns``), as is
an id of two kinds: an artist that is also a genre, or either one a track's
node id.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections.abc import Collection, Container, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evaluation import FEATURE_NAMES, first_bad_feature_row
from .graph import CatalogGraph, EntityKind, Node, Triple, _first_line
from .recsys import Interaction


class IngestError(ValueError):
    """Raised for malformed or inconsistent input data."""


@dataclass(frozen=True)
class SyntheticProfileConfig:
    n_profiles: int
    min_items: int
    max_items: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_profiles < 1:
            raise ValueError("n_profiles must be >= 1")
        if not 1 <= self.min_items <= self.max_items:
            raise ValueError(
                f"need 1 <= min_items <= max_items, got "
                f"[{self.min_items}, {self.max_items}]"
            )


@dataclass
class MergeStats:
    events: int = 0
    users: int = 0
    artists: int = 0
    tracks: int = 0
    genres: int = 0


@dataclass
class MergeResult:
    """Joined dataset: play counts, catalog triples and the feature store.

    ``plays`` maps each user with at least one interaction to their items'
    counts. An :class:`~kgrerank.recsys.Interaction` is made only when asked
    for, by :meth:`interactions_of` or the cached :attr:`interactions`.
    """

    plays: dict[str, dict[str, int]]
    triples: list[Triple]
    features: dict[str, np.ndarray]
    stats: MergeStats
    dropped_events: int = 0
    summary: list[dict] = field(default_factory=list)

    def interactions_of(self, users: Container[str] | None = None) -> list[Interaction]:
        """The interactions of ``users``, or of every user: users in
        :attr:`plays` order, each user's items sorted."""
        return [
            Interaction(user, item, count)
            for user, row in self.plays.items()
            if users is None or user in users
            for item, count in sorted(row.items())
        ]

    @cached_property
    def interactions(self) -> list[Interaction]:
        """Every user's interactions (:meth:`interactions_of`)."""
        return self.interactions_of()


def track_node_id(raw_track_id: str) -> str:
    return f"t_{raw_track_id}"


def csv_columns(reader, path, required: Sequence[str]) -> tuple[list[int], int]:
    """Read the header row of a ``csv.reader``; return the position of each
    required column and the header's width.

    A name repeated in the header stands for its last column, as in
    ``csv.DictReader``.
    """
    header = next(reader, [])
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{path}: missing required columns: {missing}")
    position = {name: i for i, name in enumerate(header)}
    return [position[name] for name in required], len(header)


def row_width_problem(
    row: Sequence[str], names: Sequence[str], columns: Sequence[int], width: int
) -> str | None:
    """Why a CSV record cannot be read, if it is too short to hold one of the
    ``names`` (at ``columns``) or longer than the header's ``width``."""
    missing = [name for name, i in zip(names, columns) if i >= len(row)]
    if missing:
        return f"missing value(s) for {', '.join(missing)}"
    if len(row) > width:
        return f"{len(row) - width} value(s) beyond the {width} columns"
    return None


def _read_features_csv(path) -> dict[str, list[float]]:
    """Track id -> raw feature values in FEATURE_NAMES order; tempo unscaled,
    and finite, since its bounds set the scale of every track."""
    out: dict[str, list[float]] = {}
    first_line: dict[str, int] = {}
    names = ("track_id", *FEATURE_NAMES)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns, width = csv_columns(reader, path, names)
        track_column, value_columns = columns[0], columns[1:]
        for row in reader:
            if not row:
                continue
            # the physical line the record ends on, which a quoted field
            # spanning lines puts past the record count
            lineno = reader.line_num
            # a row too short to hold its track_id fails the width check
            if track_column < len(row):
                track = row[track_column].strip()
                if not track:
                    raise IngestError(f"{path}:{lineno}: empty track_id")
                if track in first_line:
                    raise IngestError(
                        f"{path}:{lineno}: repeated track_id {track!r}, "
                        f"first on line {first_line[track]}"
                    )
                first_line[track] = lineno
            if len(row) != width:
                problem = row_width_problem(row, names, columns, width)
                if problem:
                    raise IngestError(f"{path}:{lineno}: {problem}")
            try:
                values = [float(row[i]) for i in value_columns]
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: non-numeric feature value"
                ) from None
            if not math.isfinite(values[-1]):
                raise IngestError(f"{path}:{lineno}: tempo {values[-1]!r} is not finite")
            out[track] = values
    return out


def _read_genres_csv(path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    names = ("track_id", "genre")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns, width = csv_columns(reader, path, names)
        track_column, genre_column = columns
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                problem = row_width_problem(row, names, columns, width)
                if problem:
                    raise IngestError(f"{path}:{reader.line_num}: {problem}")
            track = row[track_column].strip()
            genre = row[genre_column].strip()
            if track and genre:
                genres = out.setdefault(track, [])
                if genre not in genres:
                    genres.append(genre)
    return out


def _count_events(path) -> tuple[dict[str, dict[str, int]], dict[str, str], int]:
    """Play counts per user and track, each track's first artist, and the
    number of events in a listening-events TSV; blank lines are skipped."""
    counts: dict[str, dict[str, int]] = {}
    track_artist: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("\t")
            if len(parts) != 4:
                if line == "\n":
                    continue
                raise IngestError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, "
                    f"got {len(parts)}"
                )
            user, artist, track, timestamp = parts
            if not (user and artist and track):
                raise IngestError(f"{path}:{lineno}: empty id field")
            try:
                # int() ignores the newline that ends the timestamp
                int(timestamp)
            except ValueError:
                value = timestamp.rstrip("\n")
                raise IngestError(
                    f"{path}:{lineno}: timestamp {value!r} is not an integer"
                ) from None
            row = counts.get(user)
            if row is None:
                row = counts[user] = {}
            row[track] = row.get(track, 0) + 1
            if track not in track_artist:
                track_artist[track] = artist
    return counts, track_artist, sum(sum(row.values()) for row in counts.values())


def _first_clash(
    triples: Iterable[Triple], track_of: Mapping[str, str], events_path, genres_path
) -> IngestError:
    """The error for the first node id that two kinds share, in the order
    ``build_catalog`` meets the triples' endpoints, naming the line each kind
    came from; the files are read again only on this error path."""

    def where(triple: Triple, kind: str) -> str:
        # a track's node and its artist come from the track's first event
        track = track_of[triple.source]
        if kind == EntityKind.GENRE:
            return f"{genres_path}:{_genre_line(genres_path, track, triple.target)}"
        line = _first_line(events_path, lambda parts: len(parts) == 4 and parts[2] == track)
        return f"{events_path}:{line}"

    first: dict[str, tuple[str, Triple]] = {}
    for triple in triples:
        for node_id, kind in (
            (triple.source, triple.source_kind), (triple.target, triple.target_kind)
        ):
            other, declared = first.setdefault(node_id, (kind, triple))
            if other != kind:
                return IngestError(
                    f"{where(triple, kind)}: {kind} id {node_id!r} is also the "
                    f"id of a node of kind {other!r}, first seen at "
                    f"{where(declared, other)}"
                )
    raise AssertionError("no two kinds share an id")


def _genre_line(path, track: str, genre: str) -> int:
    """The physical line of the first genres-CSV record of ``track``'s
    ``genre``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        (track_column, genre_column), _ = csv_columns(reader, path, ("track_id", "genre"))
        return next(
            reader.line_num for row in reader
            if row and (row[track_column].strip(), row[genre_column].strip()) == (track, genre)
        )


def merge_lastfm(events_path, features_path, genres_path=None) -> MergeResult:
    """Join listening events with acoustic features and genre annotations.

    Only tracks present in both the events and the features survive; genre
    annotations are optional per track (a left join). Events for dropped
    tracks are counted, not silently discarded. Tempo arrives on its raw scale
    (a non-finite one is an error on its line) and is min-max normalized over
    the joined tracks (a span beyond the float range is an error naming the
    lowest and highest tracks); a track whose scaled vector is all-zero is
    dropped and counted, so distance measures stay defined.

    The events are counted straight into per-user play counts, and the
    joined tracks' features are scaled and checked as one (tracks x 8) array
    (``evaluation.first_bad_feature_row``), whose read-only rows are the
    feature rows. An id that two kinds share (an artist that is also a genre,
    or either equal to a track's node id ``t_<track>``) is an error naming
    the line where the catalog would meet it and the line where it first met
    the other kind, in the catalog's order: sorted tracks, each with its
    artist and then its genres.
    """
    raw_features = _read_features_csv(features_path)
    genres = _read_genres_csv(genres_path) if genres_path else {}
    counts, track_artist, events_read = _count_events(events_path)

    candidates = sorted(track_artist.keys() & raw_features.keys())
    summary: list[dict] = [
        {"stage": "merge", "count": events_read, "reason": "events read"}
    ]

    # tempo min-max over the joined tracks
    rows = np.array([raw_features[t] for t in candidates], dtype=float).reshape(
        len(candidates), len(FEATURE_NAMES)
    )
    if candidates:
        # every raw tempo is finite (_read_features_csv), but their span may
        # not be; Python floats overflow to inf without a numpy warning
        tempos = rows[:, FEATURE_NAMES.index("tempo")]
        low, high = int(tempos.argmin()), int(tempos.argmax())
        t_low, t_high = float(tempos[low]), float(tempos[high])
        span = t_high - t_low
        if not math.isfinite(span):
            raise IngestError(
                f"{features_path}: tempos from {t_low!r} (track "
                f"{candidates[low]!r}) to {t_high!r} (track "
                f"{candidates[high]!r}) span more than the float range"
            )
        tempos[:] = (tempos - t_low) / span if span > 0 else 0.0
        bad = first_bad_feature_row(rows)
        if bad:
            raise IngestError(f"track {candidates[bad[0]]!r}: {bad[1]}")
    rows.flags.writeable = False
    nonzero = rows.any(axis=1).tolist()
    zero_norm = nonzero.count(False)
    # the surviving tracks, in sorted order, and their node ids
    node_of = {t: track_node_id(t) for t, keep in zip(candidates, nonzero) if keep}
    features = {node_of[t]: row for t, row in zip(candidates, rows) if t in node_of}

    # a user with no kept track has no row; interactions are made on request
    plays: dict[str, dict[str, int]] = {}
    for user in sorted(counts):
        row = {node_of[t]: count for t, count in counts[user].items() if t in node_of}
        if row:
            plays[user] = row
    kept_events = sum(sum(row.values()) for row in plays.values())
    dropped_events = events_read - kept_events

    triples: list[Triple] = []
    genre_names: set[str] = set()
    artist_ids: set[str] = set()
    for track, node in node_of.items():
        artist = track_artist[track]
        artist_ids.add(artist)
        triples.append(
            Triple(node, "maker", artist, EntityKind.TRACK, EntityKind.ARTIST)
        )
        for genre in genres.get(track, []):
            genre_names.add(genre)
            triples.append(
                Triple(node, "genre", genre, EntityKind.TRACK, EntityKind.GENRE)
            )
    # an id of two kinds would fail the catalog; name its lines here
    if not (
        artist_ids.isdisjoint(genre_names)
        and set(node_of.values()).isdisjoint(artist_ids | genre_names)
    ):
        track_of = {node: track for track, node in node_of.items()}
        raise _first_clash(triples, track_of, events_path, genres_path)

    stats = MergeStats(
        events=kept_events,
        users=len(plays),
        artists=len(artist_ids),
        tracks=len(node_of),
        genres=len(genre_names),
    )
    summary.extend(
        [
            {"stage": "merge", "count": kept_events, "reason": "events kept"},
            {
                "stage": "merge",
                "count": dropped_events,
                "reason": "events dropped (track missing from a required source)",
            },
            {
                "stage": "merge",
                "count": zero_norm,
                "reason": "tracks dropped (zero-norm feature vector)",
            },
            {"stage": "merge", "count": len(node_of), "reason": "tracks kept"},
        ]
    )
    return MergeResult(
        plays=plays,
        triples=triples,
        features=features,
        stats=stats,
        dropped_events=dropped_events,
        summary=summary,
    )


def sample_users(
    interactions: Iterable[Interaction] | Mapping[str, Collection[str]],
    n: int,
    min_unique_tracks: int,
    seed: int,
) -> set[str]:
    """Seeded uniform sample of n users having enough distinct items.

    ``interactions`` are interaction records, or a mapping from each user
    with an interaction to their distinct items, such as
    :attr:`MergeResult.plays`; either draws the same users. Raises with the
    eligible/requested counts when too few users qualify.
    """
    if isinstance(interactions, Mapping):
        uniques = interactions
    else:
        uniques = {}
        for interaction in interactions:
            uniques.setdefault(interaction.user, set()).add(interaction.item)
    eligible = sorted(u for u, items in uniques.items() if len(items) >= min_unique_tracks)
    if len(eligible) < n:
        raise IngestError(
            f"only {len(eligible)} users have >= {min_unique_tracks} unique "
            f"items, cannot sample {n}"
        )
    rng = random.Random(seed)
    return set(rng.sample(eligible, n))


_NETFLIX_COLUMNS = [
    "show_id",
    "type",
    "title",
    "director",
    "cast",
    "country",
    "release_year",
    "rating",
    "duration",
    "listed_in",
    "description",
]


# (column, predicate, kind of the other node); people point at the title,
# every other relation points away from it
_NETFLIX_RELATIONS = (
    ("director", "directs", EntityKind.PERSON),
    ("cast", "acts_on", EntityKind.PERSON),
    ("country", "country_of_origin", EntityKind.COUNTRY),
    ("listed_in", "genre", EntityKind.GENRE),
    ("rating", "rated", EntityKind.RATING),
)


def load_netflix(path) -> tuple[list[Triple], list[Node]]:
    """Read a titles CSV into catalog triples and one node per title.

    Directors and cast become person nodes pointing at the title (``directs``
    and ``acts_on``); countries, genres and the rating label hang off the
    title. Multi-valued cells are comma-split, the rating is one label, values
    are trimmed and empty ones are skipped silently. A title node's kind
    follows the ``type`` column (movie or TV show); it has no ``title``
    attribute when the name is empty. A ``show_id`` may appear on one row only,
    and a row must hold every required column and no more values than the
    header names. Errors name the physical line a record ends on.
    """
    triples: list[Triple] = []
    titles: list[Node] = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns, width = csv_columns(reader, path, _NETFLIX_COLUMNS)
        for cells in reader:
            if not cells:
                continue
            lineno = reader.line_num
            problem = row_width_problem(cells, _NETFLIX_COLUMNS, columns, width)
            if problem:
                raise IngestError(f"{path}:{lineno}: {problem}")
            row = {name: cells[i] for name, i in zip(_NETFLIX_COLUMNS, columns)}
            show_id = row["show_id"].strip()
            type_ = row["type"].strip()
            if not show_id:
                raise IngestError(f"{path}:{lineno}: empty show_id")
            if show_id in first_line:
                raise IngestError(
                    f"{path}:{lineno}: repeated show_id {show_id!r}, "
                    f"first on line {first_line[show_id]}"
                )
            first_line[show_id] = lineno
            if type_ == "Movie":
                kind = EntityKind.MOVIE
            elif type_ == "TV Show":
                kind = EntityKind.TV_SHOW
            else:
                raise IngestError(
                    f"{path}:{lineno}: type must be 'Movie' or 'TV Show', "
                    f"got {type_!r}"
                )
            title = row["title"].strip()
            titles.append(Node(show_id, kind, {"title": title} if title else {}))
            for column, predicate, other_kind in _NETFLIX_RELATIONS:
                cell = row[column]
                parts = [cell] if column == "rating" else cell.split(",")
                for value in filter(None, (part.strip() for part in parts)):
                    if other_kind == EntityKind.PERSON:
                        triple = Triple(value, predicate, show_id, other_kind, kind)
                    else:
                        triple = Triple(show_id, predicate, value, kind, other_kind)
                    triples.append(triple)
    return triples, titles


def generate_profiles(
    catalog: CatalogGraph, cfg: SyntheticProfileConfig
) -> list[set[str]]:
    """Random user histories sampled without replacement from recommendables.

    Sizes are uniform in [min_items, max_items]; output is deterministic for a
    fixed seed.
    """
    pool = sorted(catalog.recommendable)
    if cfg.max_items > len(pool):
        raise IngestError(
            f"max_items {cfg.max_items} exceeds the {len(pool)} recommendable items"
        )
    rng = random.Random(cfg.seed)
    profiles = []
    for _ in range(cfg.n_profiles):
        size = rng.randint(cfg.min_items, cfg.max_items)
        profiles.append(set(rng.sample(pool, size)))
    return profiles


def write_summary(rows: Iterable[dict], path) -> None:
    """Write the machine-readable ingest summary, one JSON object per line.

    The file is opened with ``"w"``: it replaces any summary already at
    ``path``, and is not appended to."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the self-contained two-cluster dataset.

    Tracks split evenly into two acoustic clusters with well-separated
    feature prototypes. Every track has its own artist and one cluster genre,
    users listen mostly inside the first cluster (``minority_share`` of each
    history comes from the second), and play counts are higher for the
    preferred cluster.
    """

    n_tracks: int = 200
    n_users: int = 20
    history_size: int = 24
    minority_share: float = 0.1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_tracks < 4:
            raise ValueError("n_tracks must be >= 4")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not 0.0 <= self.minority_share < 1.0:
            raise ValueError("minority_share must lie in [0, 1)")
        if not 2 <= self.history_size <= self.n_tracks:
            raise ValueError("history_size must lie in [2, n_tracks]")


_CLUSTER_A_PROTOTYPE = (0.85, 0.80, 0.75, 0.80, 0.10, 0.15, 0.10, 0.20)
_CLUSTER_B_PROTOTYPE = (0.15, 0.10, 0.20, 0.10, 0.85, 0.80, 0.90, 0.75)


def make_synthetic_dataset(cfg: SyntheticConfig) -> MergeResult:
    """Generate the two-cluster dataset in the same shape as a merged corpus.

    Each track's values are its cluster prototype plus uniform noise, clamped
    to [0.01, 0.99]. They are drawn in track order, and the rows are checked
    as one read-only (tracks x 8) array, as ``merge_lastfm`` checks its own.
    """
    rng = random.Random(cfg.seed)
    half = cfg.n_tracks // 2
    track_ids = [f"t_a{i:04d}" for i in range(half)] + [
        f"t_b{i:04d}" for i in range(cfg.n_tracks - half)
    ]
    cluster_a = set(track_ids[:half])

    triples: list[Triple] = []
    for track in track_ids:
        artist = "art_" + track[2:]
        genre = "g_alpha" if track in cluster_a else "g_beta"
        triples.append(
            Triple(track, "maker", artist, EntityKind.TRACK, EntityKind.ARTIST)
        )
        triples.append(
            Triple(track, "genre", genre, EntityKind.TRACK, EntityKind.GENRE)
        )
    rows = np.array([
        min(0.99, max(0.01, p + rng.uniform(-0.05, 0.05)))
        for track in track_ids
        for p in (_CLUSTER_A_PROTOTYPE if track in cluster_a else _CLUSTER_B_PROTOTYPE)
    ]).reshape(len(track_ids), len(FEATURE_NAMES))
    bad = first_bad_feature_row(rows)
    if bad:
        raise IngestError(f"track {track_ids[bad[0]]!r}: {bad[1]}")
    rows.flags.writeable = False
    features = dict(zip(track_ids, rows))

    a_tracks = sorted(cluster_a)
    b_tracks = sorted(set(track_ids) - cluster_a)
    n_minority = max(1, round(cfg.minority_share * cfg.history_size))
    n_minority = min(n_minority, cfg.history_size - 1, len(b_tracks))
    n_majority = min(cfg.history_size - n_minority, len(a_tracks))

    plays: dict[str, dict[str, int]] = {}
    for u in range(cfg.n_users):
        row = plays[f"u{u:03d}"] = {}
        majority = rng.sample(a_tracks, n_majority)
        minority = rng.sample(b_tracks, n_minority)
        for track in sorted(majority):
            row[track] = rng.randint(5, 50)
        for track in sorted(minority):
            row[track] = rng.randint(1, 3)

    stats = MergeStats(
        events=sum(sum(row.values()) for row in plays.values()),
        users=cfg.n_users,
        artists=cfg.n_tracks,
        tracks=cfg.n_tracks,
        genres=2,
    )
    summary = [
        {"stage": "synthetic", "count": cfg.n_tracks, "reason": "tracks generated"},
        {"stage": "synthetic", "count": cfg.n_users, "reason": "users generated"},
        {
            "stage": "synthetic",
            "count": sum(len(row) for row in plays.values()),
            "reason": "interactions generated",
        },
    ]
    return MergeResult(
        plays=plays,
        triples=triples,
        features=features,
        stats=stats,
        dropped_events=0,
        summary=summary,
    )

"""Seeded generator for a Last.fm-format corpus with realistic structure.

The built-in ``synthetic`` dataset gives every track its own artist and one
of two genres, so profile graphs are stars and almost all metric values tie.
This corpus is richer: track popularity follows a Zipf law, tracks share a
few hundred artists, and each track carries one to three genres drawn from a
skewed genre pool. Profile graphs therefore contain cycles and most
candidates attach through several existing nodes.

Files written, in the formats ``kgrerank.ingest.merge_lastfm`` reads:

- ``events.tsv``: ``user<TAB>artist<TAB>track<TAB>timestamp``
- ``features.csv``: ``track_id`` plus the eight feature columns; tempo is on
  its raw BPM scale, every other feature lies in [0.01, 0.99], so no scaled
  vector is ever all zero
- ``genres.csv``: ``track_id,genre``

Every track that appears in the events has a feature row, so the merge drops
no event. The same spec and seed always give byte-identical files.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

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
class UserGroup:
    """``count`` users whose histories hold ``min_tracks`` to ``max_tracks``
    distinct tracks, spread evenly over that range so that the total history
    volume does not depend on the seed."""

    count: int
    min_tracks: int
    max_tracks: int


@dataclass(frozen=True)
class CorpusSpec:
    groups: tuple[UserGroup, ...]
    n_tracks: int = 3000
    n_artists: int = 400
    n_genres: int = 40
    popularity_exponent: float = 1.0
    max_plays: int = 4


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def _weighted_sample(rng: random.Random, weights: list[float], k: int) -> list[int]:
    """k distinct indices, drawn with probability proportional to weight
    (Efraimidis-Spirakis keys)."""
    keys = ((math.log(1.0 - rng.random()) / w, i) for i, w in enumerate(weights))
    return [i for _, i in heapq.nlargest(k, keys)]


def generate_corpus(spec: CorpusSpec, seed: int, out_dir) -> dict:
    """Write the three corpus files into ``out_dir``; return their properties.

    The returned dict reports the sizes of the files and the structure the
    generator promises: tracks per artist, genres per track and the
    popularity skew (share of play events on the most popular tenth of the
    played tracks).
    """
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tracks = [f"trk{i:05d}" for i in range(spec.n_tracks)]
    artists = [f"art{i:04d}" for i in range(spec.n_artists)]
    genres = [f"genre{i:02d}" for i in range(spec.n_genres)]

    # artists and genres have skewed sizes too, so some are widely shared
    artist_weights = _zipf_weights(spec.n_artists, 0.6)
    genre_weights = _zipf_weights(spec.n_genres, 0.8)
    track_artist = {t: rng.choices(artists, artist_weights)[0] for t in tracks}
    track_genres = {
        t: sorted(genres[i] for i in _weighted_sample(rng, genre_weights, rng.randint(1, 3)))
        for t in tracks
    }

    prototypes = {
        a: [rng.uniform(0.1, 0.9) for _ in FEATURE_NAMES[:-1]] + [rng.uniform(70.0, 180.0)]
        for a in artists
    }
    features = {}
    for t in tracks:
        proto = prototypes[track_artist[t]]
        values = [min(0.99, max(0.01, p + rng.uniform(-0.08, 0.08))) for p in proto[:-1]]
        values.append(round(proto[-1] + rng.uniform(-10.0, 10.0), 3))
        features[t] = values

    # popularity rank is a random permutation of the catalog
    by_popularity = list(tracks)
    rng.shuffle(by_popularity)
    track_weights = _zipf_weights(spec.n_tracks, spec.popularity_exponent)

    events: list[tuple[str, str, str, int]] = []
    history_sizes = []
    timestamp = 1_600_000_000
    user_index = 0
    for group in spec.groups:
        span = group.max_tracks - group.min_tracks
        for k in range(group.count):
            user = f"user{user_index:04d}"
            user_index += 1
            size = group.min_tracks + span * k // max(1, group.count - 1)
            history_sizes.append(size)
            for i in sorted(_weighted_sample(rng, track_weights, size)):
                track = by_popularity[i]
                for _ in range(rng.randint(1, spec.max_plays)):
                    timestamp += rng.randint(30, 600)
                    events.append((user, track_artist[track], track, timestamp))

    played = sorted({e[2] for e in events})
    with open(out / "events.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for user, artist, track, ts in events:
            fh.write(f"{user}\t{artist}\t{track}\t{ts}\n")
    with open(out / "features.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track_id", *FEATURE_NAMES])
        for t in played:
            writer.writerow([t, *(repr(round(v, 6)) for v in features[t])])
    with open(out / "genres.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track_id", "genre"])
        for t in played:
            for g in track_genres[t]:
                writer.writerow([t, g])

    plays = Counter(e[2] for e in events)
    top = sorted(plays.values(), reverse=True)[: max(1, len(plays) // 10)]
    tracks_per_artist = Counter(track_artist[t] for t in played)
    genre_counts = [len(track_genres[t]) for t in played]
    return {
        "events": len(events),
        "users": user_index,
        "tracks": len(played),
        "artists": len(tracks_per_artist),
        "genres": len({g for t in played for g in track_genres[t]}),
        "history_min": min(history_sizes),
        "history_max": max(history_sizes),
        "artists_per_track": 1,
        "tracks_per_artist_mean": len(played) / len(tracks_per_artist),
        "tracks_per_artist_max": max(tracks_per_artist.values()),
        "genres_per_track_min": min(genre_counts),
        "genres_per_track_mean": sum(genre_counts) / len(genre_counts),
        "genres_per_track_max": max(genre_counts),
        "top_decile_play_share": sum(top) / len(events),
    }

import json
import random

import numpy as np
import pytest

from kgrerank import (
    EntityKind,
    IngestError,
    Interaction,
    SyntheticConfig,
    SyntheticProfileConfig,
    build_catalog,
    feature_vector,
    generate_profiles,
    load_netflix,
    make_synthetic_dataset,
    merge_lastfm,
    sample_users,
)
from kgrerank.cli import (
    CATALOG_NODES, INTERACTIONS, PROFILES, RunConfig, _read_interactions,
    _read_profiles, stage_ingest,
)
from kgrerank.evaluation import FEATURE_NAMES
from kgrerank.ingest import _CLUSTER_A_PROTOTYPE, _CLUSTER_B_PROTOTYPE, write_summary

from conftest import lastfm_run_config, make_lastfm_corpus, matrix_ratings


class TestMergeLastfm:
    def test_join_drops_featureless_tracks(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        # 5 events read; the tr4 event has no feature row
        assert result.dropped_events == 1
        assert result.stats.events == 4
        kept = {(i.user, i.item, i.count) for i in result.interactions}
        assert kept == {
            ("u1", "t_tr1", 1),
            ("u1", "t_tr2", 1),
            ("u2", "t_tr1", 1),
            ("u2", "t_tr3", 1),
        }

    def test_conservation(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        assert result.stats.events + result.dropped_events == 5

    def test_tempo_min_max_scaled(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        tempo = FEATURE_NAMES.index("tempo")
        tempos = {t: result.features[t][tempo] for t in result.features}
        assert tempos == {"t_tr1": 0.0, "t_tr2": 0.5, "t_tr3": 1.0}

    def test_stats_shape(self, lastfm_files):
        events, features, genres = lastfm_files
        stats = merge_lastfm(events, features, genres).stats
        assert (stats.events, stats.users, stats.artists, stats.tracks,
                stats.genres) == (4, 2, 2, 3, 1)

    def test_genres_are_left_joined(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        genre_edges = [t for t in result.triples if t.predicate == "genre"]
        assert {t.source for t in genre_edges} == {"t_tr1", "t_tr2"}
        # tr3 survives despite having no genre annotation
        assert "t_tr3" in result.features

    def test_triples_reference_emitted_nodes(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        catalog = build_catalog(result.triples)
        for interaction in result.interactions:
            assert interaction.item in catalog

    def test_missing_feature_columns_rejected(self, tmp_path, lastfm_files):
        events, _, _ = lastfm_files
        bad = tmp_path / "bad_features.csv"
        bad.write_text("track_id,danceability\ntr1,0.5\n", encoding="utf-8")
        with pytest.raises(IngestError, match="missing required columns"):
            merge_lastfm(events, bad)

    def test_repeated_track_id_rejected(self, lastfm_files):
        events, features, _ = lastfm_files
        with open(features, "a", encoding="utf-8") as fh:
            fh.write("tr1,0.9,0.9,0.9,0.9,0.9,0.9,0.9,90\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == (
            f"{features}:5: repeated track_id 'tr1', first on line 2"
        )

    def test_short_feature_row_names_missing_columns(self, lastfm_files):
        events, features, _ = lastfm_files
        with open(features, "a", encoding="utf-8") as fh:
            fh.write("tr5,0.5\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == (
            f"{features}:5: missing value(s) for " + ", ".join(FEATURE_NAMES[1:])
        )

    def test_long_feature_row_names_extra_values(self, lastfm_files):
        events, features, _ = lastfm_files
        with open(features, "a", encoding="utf-8") as fh:
            fh.write("tr5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,80,0.9,0.9\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == f"{features}:5: 2 value(s) beyond the 9 columns"

    def test_error_names_physical_line_after_multiline_field(self, lastfm_files):
        # the quoted track id spans lines 5-6, so the short row is on line 7,
        # though it is the fifth record
        events, features, _ = lastfm_files
        with open(features, "a", encoding="utf-8") as fh:
            fh.write('"tr\n5",0.1,0.2,0.3,0.4,0.5,0.6,0.7,80\ntr6,0.5\n')
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == (
            f"{features}:7: missing value(s) for " + ", ".join(FEATURE_NAMES[1:])
        )

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("u1\ta1\ttr2\n", "expected 4 tab-separated fields, got 3"),
            ("u1\ta1\ttr2\t200\t9\n", "expected 4 tab-separated fields, got 5"),
            ("u1\t\ttr2\t200\n", "empty id field"),
            ("\ta1\ttr2\tlater\n", "empty id field"),
            ("u1\ta1\ttr2\tlater\n", "timestamp 'later' is not an integer"),
        ],
    )
    def test_malformed_event_line_names_path_line_and_reason(
        self, tmp_path, lastfm_files, line, reason
    ):
        # the blank line 2 is skipped but counted
        _, features, _ = lastfm_files
        bad = tmp_path / "bad_events.tsv"
        bad.write_text("u1\ta1\ttr1\t100\n\n" + line + "u2\t\t\tx\n", encoding="utf-8")
        with pytest.raises(IngestError) as info:
            merge_lastfm(bad, features)
        assert str(info.value) == f"{bad}:3: {reason}"

    def test_events_first_artist_of_a_track_wins(self, tmp_path, lastfm_files):
        _, features, _ = lastfm_files
        events = tmp_path / "events.tsv"
        events.write_text(
            "u1\ta1\ttr1\t100\nu2\ta2\ttr1\t200\nu1\ta1\ttr1\t300\n",
            encoding="utf-8",
        )
        result = merge_lastfm(events, features)
        assert [(t.source, t.target) for t in result.triples] == [("t_tr1", "a1")]
        assert [(i.user, i.item, i.count) for i in result.interactions] == [
            ("u1", "t_tr1", 2),
            ("u2", "t_tr1", 1),
        ]

    @pytest.mark.parametrize(
        "row, reason",
        [
            (" ,0.1,0.2,0.3,0.4,0.5,0.6,0.7,80", "empty track_id"),
            ("tr4,0.1,0.2,high,0.4,0.5,0.6,0.7,80", "non-numeric feature value"),
        ],
    )
    def test_bad_feature_row_names_line(self, lastfm_files, row, reason):
        events, features, _ = lastfm_files
        with open(features, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == f"{features}:5: {reason}"

    @pytest.mark.parametrize(
        "row, message",
        [
            # checked after tempo scaling, in sorted track order
            ("tr4,0.1,1.5,0.3,0.4,0.5,0.6,0.7,80",
             "track 'tr4': feature energy = 1.5 outside [0, 1]"),
            ("tr4,0.1,0.5,0.3,0.4,0.5,0.6,nan,80",
             "track 'tr4': feature valence = nan outside [0, 1]"),
        ],
    )
    def test_out_of_range_feature_names_track(
        self, tmp_path, lastfm_files, row, message
    ):
        events, features, _ = lastfm_files
        with open(events, "a", encoding="utf-8") as fh:
            fh.write("u4\ta4\ttr4\t600\n")
        with open(features, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "track, tempo",
        [("tr4", "inf"), ("tr4", "-inf"), ("tr4", "nan"), ("tr0", "nan")],
    )
    def test_non_finite_tempo_names_line(self, lastfm_files, track, tempo):
        # the tempo bounds scale every track, so a raw tempo that is not
        # finite is rejected on its line, wherever it falls in track order
        events, features, _ = lastfm_files
        with open(events, "a", encoding="utf-8") as fh:
            fh.write(f"u4\ta4\t{track}\t600\n")
        with open(features, "a", encoding="utf-8") as fh:
            fh.write(f"{track},0.1,0.2,0.3,0.4,0.5,0.6,0.7,{tempo}\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == f"{features}:5: tempo {tempo} is not finite"

    def test_tempo_span_beyond_float_range_names_lowest_and_highest(
        self, lastfm_files
    ):
        # each raw tempo is finite, but 1e308 - -1e308 is not
        events, features, _ = lastfm_files
        with open(events, "a", encoding="utf-8") as fh:
            fh.write("u4\ta4\ttr4\t600\nu4\ta4\ttr5\t700\n")
        with open(features, "a", encoding="utf-8") as fh:
            fh.write("tr4,0.1,0.2,0.3,0.4,0.5,0.6,0.7,1e308\n")
            fh.write("tr5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,-1e308\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features)
        assert str(info.value) == (
            f"{features}: tempos from -1e+308 (track 'tr5') to 1e+308 "
            "(track 'tr4') span more than the float range"
        )

    def test_tempo_span_inside_float_range_scales_from_zero_to_one(
        self, lastfm_files
    ):
        # 8e307 - -8e307 is finite: the extremes scale to 0 and 1, and the
        # tempos between them, far smaller, to the midpoint
        events, features, _ = lastfm_files
        with open(events, "a", encoding="utf-8") as fh:
            fh.write("u4\ta4\ttr4\t600\nu4\ta4\ttr5\t700\n")
        with open(features, "a", encoding="utf-8") as fh:
            fh.write("tr4,0.1,0.2,0.3,0.4,0.5,0.6,0.7,8e307\n")
            fh.write("tr5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,-8e307\n")
        result = merge_lastfm(events, features)
        tempo = FEATURE_NAMES.index("tempo")
        tempos = {t: result.features[t][tempo] for t in result.features}
        assert tempos == {
            "t_tr1": 0.5, "t_tr2": 0.5, "t_tr3": 0.5, "t_tr4": 1.0, "t_tr5": 0.0
        }

    def test_feature_rows_are_read_only(self, lastfm_files):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        for row in result.features.values():
            assert row.dtype == np.float64 and row.shape == (len(FEATURE_NAMES),)
            assert not row.flags.writeable

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("tr2", "missing value(s) for genre"),
            ("tr2,pop,extra", "1 value(s) beyond the 2 columns"),
        ],
    )
    def test_bad_genre_row_names_line(self, lastfm_files, row, reason):
        events, features, genres = lastfm_files
        with open(genres, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(IngestError) as info:
            merge_lastfm(events, features, genres)
        assert str(info.value) == f"{genres}:4: {reason}"

    def test_summary_records_drop_reason(self, lastfm_files, tmp_path):
        events, features, genres = lastfm_files
        result = merge_lastfm(events, features, genres)
        out = tmp_path / "summary.jsonl"
        # the summary replaces what the file held
        out.write_text("not json\n", encoding="utf-8")
        write_summary(result.summary, out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all({"stage", "count", "reason"} <= set(r) for r in rows)
        dropped = [r for r in rows if "dropped" in r["reason"]]
        assert any(r["count"] == 1 for r in dropped)

    # (events, genres, (file, line) of the clash, clashing id and kind,
    # (file, line) where its other kind was first seen, and that kind); the
    # first clash in the order the catalog adds endpoints is named: sorted
    # tracks, each with its node, then its artist, then its genres
    @pytest.mark.parametrize(
        "events_text, genres_text, at, node, kind, first, other",
        [
            (
                "u2\ta3\ttr3\t5\nu1\trock\ttr1\t1\n\nu1\ta1\ttr2\t2\n",
                "track_id,genre\ntr1,pop\ntr2,rock\ntr3,rock\n",
                ("genres", 3), "rock", "genre", ("events", 2), "artist",
            ),
            (
                "u1\ta1\ttr1\t1\nu2\ta2\ttr3\t2\nu2\tpop\ttr2\t3\n",
                "track_id,genre\n\ntr1,pop\ntr3,pop\n",
                ("events", 3), "pop", "artist", ("genres", 3), "genre",
            ),
            (
                "u1\tt_tr2\ttr1\t1\nu1\ta1\ttr2\t2\n",
                "track_id,genre\n",
                ("events", 2), "t_tr2", "track", ("events", 1), "artist",
            ),
            (
                "u1\ta1\ttr3\t1\nu1\ta1\ttr1\t1\nu1\ta2\ttr2\t2\n",
                "track_id,genre\ntr2,x\ntr2,t_tr1\n",
                ("genres", 3), "t_tr1", "genre", ("events", 2), "track",
            ),
        ],
        ids=["genre-was-artist", "artist-was-genre", "track-was-artist", "genre-was-track"],
    )
    def test_id_clash_names_both_files_and_lines(
        self, tmp_path, lastfm_files, events_text, genres_text, at, node, kind, first, other
    ):
        _, features, _ = lastfm_files
        paths = {"events": tmp_path / "events.tsv", "genres": tmp_path / "genres.csv"}
        paths["events"].write_text(events_text, encoding="utf-8")
        paths["genres"].write_text(genres_text, encoding="utf-8")
        with pytest.raises(IngestError) as info:
            merge_lastfm(paths["events"], features, paths["genres"])
        assert str(info.value) == (
            f"{paths[at[0]]}:{at[1]}: {kind} id {node!r} is also the id of a node "
            f"of kind {other!r}, first seen at {paths[first[0]]}:{first[1]}"
        )

    def test_id_clash_fails_the_ingest_stage_by_name(self, tmp_path, lastfm_files, capsys):
        from kgrerank.cli import main

        _, features, _ = lastfm_files
        events, genres = tmp_path / "events.tsv", tmp_path / "genres.csv"
        events.write_text("u1\trock\ttr1\t1\nu1\ta1\ttr2\t1\n", encoding="utf-8")
        genres.write_text("track_id,genre\ntr2,rock\n", encoding="utf-8")
        code = main([
            "ingest", "--dataset", "lastfm", "--events", str(events),
            "--features", str(features), "--genres", str(genres),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: stage ingest failed: {genres}:2: genre id 'rock' is also the "
            f"id of a node of kind 'artist', first seen at {events}:1\n"
        )


class TestSampleUsers:
    def test_threshold_above_everyone(self):
        rows = [Interaction("u1", "a", 1), Interaction("u2", "b", 1)]
        with pytest.raises(IngestError, match="cannot sample"):
            sample_users(rows, 1, min_unique_tracks=5, seed=1)

    def test_full_eligible_set(self):
        rows = [
            Interaction("u1", "a", 1),
            Interaction("u1", "b", 1),
            Interaction("u2", "c", 1),
            Interaction("u2", "d", 1),
        ]
        assert sample_users(rows, 2, min_unique_tracks=2, seed=1) == {"u1", "u2"}

    def test_sample_is_reproducible_and_eligible(self):
        rows = []
        for u, n in (("u1", 3), ("u2", 1), ("u3", 4), ("u4", 1), ("u5", 2)):
            rows += [Interaction(u, f"i{k}", 1) for k in range(n)]
        first = sample_users(rows, 2, min_unique_tracks=2, seed=9)
        second = sample_users(rows, 2, min_unique_tracks=2, seed=9)
        assert first == second
        assert first <= {"u1", "u3", "u5"}


class TestLoadNetflix:
    def test_hand_counted_triples(self, netflix_csv):
        triples, titles = load_netflix(netflix_csv)
        assert len(titles) == 5
        assert len(triples) == 23
        by_predicate = {}
        for t in triples:
            by_predicate[t.predicate] = by_predicate.get(t.predicate, 0) + 1
        assert by_predicate == {
            "directs": 4,
            "acts_on": 5,
            "country_of_origin": 4,
            "genre": 5,
            "rated": 5,
        }

    def test_multivalued_cells_split(self, netflix_csv):
        triples, _ = load_netflix(netflix_csv)
        s1_people = [
            t.source
            for t in triples
            if t.target == "s1" and t.predicate in ("directs", "acts_on")
        ]
        assert len(s1_people) == 5  # 2 directors + 3 cast

    def test_empty_cells_skipped(self, netflix_csv):
        triples, _ = load_netflix(netflix_csv)
        assert not any(
            t.source == "s2" and t.predicate == "country_of_origin"
            for t in triples
        )

    def test_row_triples_follow_column_order(self, netflix_csv):
        triples, _ = load_netflix(netflix_csv)
        s1 = [
            (t.source, t.predicate, t.target, t.source_kind, t.target_kind)
            for t in triples
            if "s1" in (t.source, t.target)
        ]
        assert s1 == [
            ("D One", "directs", "s1", "person", "movie"),
            ("D Two", "directs", "s1", "person", "movie"),
            ("C One", "acts_on", "s1", "person", "movie"),
            ("C Two", "acts_on", "s1", "person", "movie"),
            ("C Three", "acts_on", "s1", "person", "movie"),
            ("s1", "country_of_origin", "United States", "movie", "country"),
            ("s1", "genre", "Dramas", "movie", "genre"),
            ("s1", "rated", "PG", "movie", "rating"),
        ]

    def test_title_kind_follows_type_column(self, netflix_csv):
        _, titles = load_netflix(netflix_csv)
        assert [(n.id, n.kind) for n in titles] == [
            ("s1", EntityKind.MOVIE),
            ("s2", EntityKind.TV_SHOW),
            ("s3", EntityKind.MOVIE),
            ("s4", EntityKind.MOVIE),
            ("s5", EntityKind.TV_SHOW),
        ]

    def test_empty_title_has_no_title_attribute(self, tmp_path, netflix_csv):
        path = tmp_path / "with_unnamed.csv"
        path.write_text(
            netflix_csv.read_text(encoding="utf-8")
            + "s6,Movie,  ,D Two,C Four,France,2021-06-01,2017,R,80 min,"
            "Comedies,No name\n",
            encoding="utf-8",
        )
        _, titles = load_netflix(path)
        assert titles[0].attrs == {"title": "Alpha"}
        assert titles[-1].id == "s6" and titles[-1].attrs == {}

        out = tmp_path / "out"
        cfg = RunConfig(
            dataset="netflix", titles_path=str(path), output_dir=str(out),
            profile_count=2, profile_min_items=1, profile_max_items=2,
        )
        stage_ingest(cfg)
        rows = (out / CATALOG_NODES).read_text(encoding="utf-8").splitlines()
        assert "s1\tmovie\tAlpha" in rows
        assert "s6\tmovie\t" in rows

    def test_profiles_are_the_interactions_by_user(self, tmp_path, netflix_csv):
        # one generated history per user, each item played once, and
        # profiles.json is interactions.tsv grouped by user
        out = tmp_path / "out"
        stage_ingest(RunConfig(
            dataset="netflix", titles_path=str(netflix_csv), output_dir=str(out),
            profile_count=6, profile_min_items=2, profile_max_items=4,
        ))
        played: dict[str, list[str]] = {}
        for line in (out / INTERACTIONS).read_text(encoding="utf-8").splitlines():
            user, item, count = line.split("\t")
            assert count == "1"
            played.setdefault(user, []).append(item)
        profiles = json.loads((out / PROFILES).read_text(encoding="utf-8"))["users"]
        assert list(played) == [f"p{i:03d}" for i in range(6)]
        assert profiles == {user: {"history": items} for user, items in played.items()}
        assert all(2 <= len(items) <= 4 for items in played.values())

    def test_catalog_has_all_titles(self, netflix_csv):
        triples, titles = load_netflix(netflix_csv)
        catalog = build_catalog(triples, nodes=titles)
        # s5 carries only a rating edge but must still be a recommendable node
        assert catalog.num_nodes == 22
        assert catalog.recommendable == {"s1", "s2", "s3", "s4", "s5"}
        assert catalog.node("s1").attrs["title"] == "Alpha"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("show_id,type\ns1,Movie\n", encoding="utf-8")
        with pytest.raises(IngestError, match="missing required columns"):
            load_netflix(path)

    def test_unknown_type_rejected(self, tmp_path, netflix_csv):
        text = netflix_csv.read_text(encoding="utf-8").replace(
            "s1,Movie", "s1,Podcast"
        )
        bad = tmp_path / "bad_type.csv"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError, match="Podcast"):
            load_netflix(bad)

    def test_repeated_show_id_rejected(self, tmp_path):
        path = tmp_path / "repeated.csv"
        path.write_text(
            "show_id,type,title,director,cast,country,date_added,"
            "release_year,rating,duration,listed_in,description\n"
            "s1,Movie,Alpha,,,India,2021-01-01,2020,PG,90 min,Dramas,First\n"
            "s1,Movie,Other,,,France,2021-02-01,2021,R,80 min,Comedies,Second\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as info:
            load_netflix(path)
        assert str(info.value) == f"{path}:3: repeated show_id 's1', first on line 2"

    @pytest.mark.parametrize(
        "cut, reason",
        [
            # s2's row cut after its rating
            (9, "missing value(s) for duration, listed_in, description"),
            (2, "missing value(s) for title, director, cast, country, "
                "release_year, rating, duration, listed_in, description"),
        ],
    )
    def test_short_row_names_line_and_columns(self, tmp_path, netflix_csv, cut, reason):
        lines = netflix_csv.read_text(encoding="utf-8").splitlines()
        short = ",".join(lines[2].split(",")[:cut])
        path = tmp_path / "short.csv"
        text = "\n".join([*lines[:2], short, *lines[3:]]) + "\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError) as info:
            load_netflix(path)
        assert str(info.value) == f"{path}:3: {reason}"

    def test_long_row_names_line_and_extra_values(self, tmp_path, netflix_csv):
        path = tmp_path / "long.csv"
        path.write_text(
            netflix_csv.read_text(encoding="utf-8")
            + "s6,Movie,Zeta,,,,2021-06-01,2017,R,80 min,Comedies,Plain,x,y\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as info:
            load_netflix(path)
        assert str(info.value) == f"{path}:7: 2 value(s) beyond the 12 columns"

    def test_errors_name_physical_lines_after_multiline_field(self, tmp_path):
        # the first record's quoted description spans lines 2-3, so the
        # repeated s1 is on line 4, though it is the second record
        path = tmp_path / "nf.csv"
        path.write_text(
            "show_id,type,title,director,cast,country,date_added,"
            "release_year,rating,duration,listed_in,description\n"
            's1,Movie,Alpha,,,India,2021-01-01,2020,PG,90 min,Dramas,"Two\n'
            'lines"\n'
            "s1,Movie,Other,,,France,2021-02-01,2021,R,80 min,Comedies,Second\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as info:
            load_netflix(path)
        assert str(info.value) == f"{path}:4: repeated show_id 's1', first on line 3"


class TestGenerateProfiles:
    def test_sizes_within_range(self, netflix_csv):
        triples, titles = load_netflix(netflix_csv)
        catalog = build_catalog(triples, nodes=titles)
        cfg = SyntheticProfileConfig(n_profiles=88, min_items=1, max_items=5, seed=3)
        profiles = generate_profiles(catalog, cfg)
        assert len(profiles) == 88
        for history in profiles:
            assert 1 <= len(history) <= 5
            assert history <= catalog.recommendable

    def test_singleton_histories(self, dvs_catalog):
        cfg = SyntheticProfileConfig(n_profiles=4, min_items=1, max_items=1, seed=5)
        profiles = generate_profiles(dvs_catalog, cfg)
        assert all(len(h) == 1 for h in profiles)

    def test_deterministic_under_seed(self, dvs_catalog):
        cfg = SyntheticProfileConfig(n_profiles=6, min_items=2, max_items=4, seed=11)
        assert generate_profiles(dvs_catalog, cfg) == generate_profiles(
            dvs_catalog, cfg
        )

    def test_oversized_request_rejected(self, dvs_catalog):
        cfg = SyntheticProfileConfig(n_profiles=1, min_items=1, max_items=999, seed=1)
        with pytest.raises(IngestError, match="exceeds"):
            generate_profiles(dvs_catalog, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticProfileConfig(n_profiles=1, min_items=3, max_items=2, seed=1)


class TestNoLeakageComposition:
    def test_recommendations_exclude_history_but_reach_held_out(self):
        from kgrerank import BaselineRecommender, scale_ratings

        histories = {
            f"u{k}": {f"i{j}" for j in range(k, k + 6)} for k in range(4)
        }
        # each user's last item is held out; only u3's is rated by no one else
        held_out = {f"u{k}": f"i{k + 5}" for k in range(4)}
        matrix = scale_ratings(
            Interaction(user, item, 1)
            for user, history in sorted(histories.items())
            for item in sorted(history - {held_out[user]})
        )
        ratings = matrix_ratings(matrix)
        rated_items = set().union(*ratings.values())
        for user, item in held_out.items():
            # held-out ratings never reach the matrix
            assert item not in ratings[user]
        model = BaselineRecommender().fit(matrix)
        for user in histories:
            recommended = set(model.recommend(user, 50).item_ids())
            assert recommended.isdisjoint(ratings[user])
            reachable_held_out = {held_out[user]} & rated_items
            assert reachable_held_out <= recommended
        assert "i8" not in rated_items


class TestSyntheticDataset:
    def test_deterministic(self):
        a = make_synthetic_dataset(SyntheticConfig(seed=2))
        b = make_synthetic_dataset(SyntheticConfig(seed=2))
        assert a.interactions == b.interactions
        assert a.triples == b.triples
        assert a.features.keys() == b.features.keys()
        for track in a.features:
            assert np.array_equal(a.features[track], b.features[track])

    def test_shapes_and_stats(self):
        cfg = SyntheticConfig(n_tracks=40, n_users=5, history_size=8, seed=3)
        data = make_synthetic_dataset(cfg)
        assert data.stats.tracks == 40
        assert data.stats.users == 5
        assert len(data.features) == 40
        catalog = build_catalog(data.triples)
        assert len(catalog.recommendable) == 40

    def test_histories_concentrate_in_first_cluster(self):
        cfg = SyntheticConfig(
            n_tracks=40, n_users=6, history_size=10, minority_share=0.2, seed=4
        )
        data = make_synthetic_dataset(cfg)
        per_user: dict[str, list[str]] = {}
        for i in data.interactions:
            per_user.setdefault(i.user, []).append(i.item)
        for items in per_user.values():
            assert len(items) == 10
            minority = [i for i in items if i.startswith("t_b")]
            assert len(minority) == 2  # round(0.2 * 10)

    def test_features_stay_in_bounds(self):
        data = make_synthetic_dataset(SyntheticConfig(seed=5))
        for vector in data.features.values():
            assert all(0.0 < v < 1.0 for v in vector)

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("n_tracks", [5, 200])
    def test_rows_equal_per_track_draws(self, seed, n_tracks):
        """The rows are those of one ``feature_vector`` per track, drawn in
        track order from the same ``random.Random(seed)``."""
        rng = random.Random(seed)
        half = n_tracks // 2
        expected = {}
        for i in range(n_tracks):
            in_a = i < half
            track = f"t_a{i:04d}" if in_a else f"t_b{i - half:04d}"
            prototype = _CLUSTER_A_PROTOTYPE if in_a else _CLUSTER_B_PROTOTYPE
            expected[track] = feature_vector(
                min(0.99, max(0.01, p + rng.uniform(-0.05, 0.05))) for p in prototype
            )
        features = make_synthetic_dataset(
            SyntheticConfig(n_tracks=n_tracks, history_size=4, seed=seed)
        ).features
        assert list(features) == list(expected)
        for track, row in features.items():
            assert row.dtype == np.float64 and row.shape == (len(FEATURE_NAMES),)
            assert (row == expected[track]).all(), track
            assert not row.flags.writeable, track


def _ingest_case(case, tmp_path, lastfm_files, netflix_csv, corpus) -> dict:
    """The ``kgrerank ingest`` config of one artifact-digest case."""
    events, features, genres = lastfm_files
    if case == "lastfm-corpus":
        events, features, genres = (
            corpus / name for name in ("events.tsv", "features.csv", "genres.csv")
        )
    doc = {"output_dir": str(tmp_path / "out"), "seed": 5}
    if case == "lastfm-corpus":
        doc["dataset"] = {
            "kind": "lastfm", "events": str(events), "features": str(features),
            "genres": str(genres), "sample_users": 3, "min_unique_tracks": 10,
        }
    elif case.startswith("lastfm"):
        doc["dataset"] = {
            "kind": "lastfm", "events": str(events), "features": str(features)
        }
        if case == "lastfm-genres":
            doc["dataset"]["genres"] = str(genres)
    elif case.startswith("netflix"):
        doc["dataset"] = {
            "kind": "netflix",
            "titles": str(netflix_csv),
            "profiles": {"count": 4, "min_items": 1, "max_items": 3},
            "prune": {"degree_one": case == "netflix-pruned"},
        }
    else:
        doc["dataset"] = {"kind": "synthetic", "synthetic": {"users": 6}}
    return doc


# sha256 of each ingest artifact, recorded before ingest was rewritten for
# speed, except the Netflix interactions and profiles, recorded once the
# generated histories became the profiles whole; manifest.json is left out
# because it records the temporary paths
INGEST_DIGESTS = {
    "lastfm-corpus": {
        "catalog_nodes.tsv":
            "ba5628f959673d6d7a0bd7142c3dc3d399b2ff31b065831f9dd7997f91d84ee4",
        "catalog_triples.tsv":
            "35f8354b976a7a164071865c905ad9d3a9e47bec5a2ed0aeec6768153c8369ba",
        "features.csv":
            "fbb46c636c802333e77caa5b5a7fee62b95ae5523f1121c2a48318209669669a",
        "ingest_summary.jsonl":
            "5ff252b3536e79bb26b23c699dc33a0911951e8360ce8d6e6228ce991e480709",
        "interactions.tsv":
            "ee96acd26dc69ae6b0b6226cdb8ea5fc8f459304633a7785add1c8677b2ae52e",
        "profiles.json":
            "ebe3a5ae11f98de27ce31f894761eb05937b5e61366f7c45861f1364dae1eeb8",
    },
    "lastfm-genres": {
        "catalog_nodes.tsv":
            "fd91fc23bb26e486b79a7a567cebce9e6b9325b5471d7b3c1083f30a5a822939",
        "catalog_triples.tsv":
            "5c325c0a87eca6c2f47739b5f3698f35e0a8d7b9a549b0298631434067f551a8",
        "features.csv":
            "7693becabd5241ea80321afe4133183626ef9f961c350e0f05f4b8d79694903c",
        "ingest_summary.jsonl":
            "e5a418d0b0e2c7f752915dcd4072b7826619076d8f0b047bf96883e269461b62",
        "interactions.tsv":
            "822034715ba7b56f394c74944794b3eef34fef1df19d6efaf6c7ebb9a686bc17",
        "profiles.json":
            "a8848dff5851be4633a4a5c8d0b1d7bbeaf11d739bb61f42fb892c5ade3795e2",
    },
    "lastfm-no-genres": {
        "catalog_nodes.tsv":
            "8cdb8c4050eac64a38471da7f1d32784443ae86f18d47f271b9284008bd93a59",
        "catalog_triples.tsv":
            "8ae45bcfe9c7a17b0d7e9da4cb64fb18a26e18f5e4f33b4aadcc383ae9a2805e",
        "features.csv":
            "7693becabd5241ea80321afe4133183626ef9f961c350e0f05f4b8d79694903c",
        "ingest_summary.jsonl":
            "e5a418d0b0e2c7f752915dcd4072b7826619076d8f0b047bf96883e269461b62",
        "interactions.tsv":
            "822034715ba7b56f394c74944794b3eef34fef1df19d6efaf6c7ebb9a686bc17",
        "profiles.json":
            "a8848dff5851be4633a4a5c8d0b1d7bbeaf11d739bb61f42fb892c5ade3795e2",
    },
    "netflix-pruned": {
        "catalog_nodes.tsv":
            "320098d4c5c1c88fbb2397116186c4693fd68ffab2ec65f089983462dbb84780",
        "catalog_triples.tsv":
            "ac2c199c67bd1b4cfe2e223dfd685d2a0e48a9edcc2849fff68666a3af97c6d4",
        "ingest_summary.jsonl":
            "63554a6f4a1947eaa57ff950d3f9c888207ce4f4e59216ce64380fd2039fbdd4",
        "interactions.tsv":
            "064bd31984d5094261458eb8561af31ee4a275265e71aac5f96011740ac88807",
        "profiles.json":
            "b1e47703ef2a367ea96c788953b966f2b71129d2983b1e80fd1fdb1139c07d92",
    },
    "netflix-unpruned": {
        "catalog_nodes.tsv":
            "037b3c82b4f089373c97a0414dd3c0763c72b6f52ddefb2fc508d77671f618f2",
        "catalog_triples.tsv":
            "ff639ad3844ddc7abc95f849303a87fe02032b4a779c56ad6be4ad843567f2a0",
        "ingest_summary.jsonl":
            "4d863053ccc809118f30b69ce0fd66bed9079cf263967c9e242a24b9c12b8b94",
        "interactions.tsv":
            "94d2431a20b438bc3e8bbbb8bf9061c6e6aa0aa960aec3ffa48bb124e88f7633",
        "profiles.json":
            "9e9b2016e96af2b76a1a6dc363dedbb7f93d9f8929afa383de4f59ce2ef95be1",
    },
    "synthetic": {
        "catalog_nodes.tsv":
            "30c72a23becaf71ae90de0c1b5633909838986f2c6a769ff58054b523a89c828",
        "catalog_triples.tsv":
            "f49da3e8ba96b9215a8b69f646e6ae2e8d344b9d866518612e8a8a81b8264e94",
        "features.csv":
            "02f33bb64bd7393e9489558da6fce49d122b5a805b5785ccd3e4e5d2438f1f4f",
        "ingest_summary.jsonl":
            "e0a4271f155196b2382963982ba92c10677e61ed257d165b0f716e8ee94a482b",
        "interactions.tsv":
            "28077a61b2d752b4fd2e38187c3e80ea43a53f2e35f554001490115ac8af76e0",
        "profiles.json":
            "cca3c7eb8685a1120da5b2d00e7b94da30ee6775f2d3d941279a5a325c7f83c6",
    },
}


class TestIngestArtifactDigests:
    @pytest.mark.parametrize("case", sorted(INGEST_DIGESTS))
    def test_artifacts_are_byte_identical(
        self, tmp_path, lastfm_files, netflix_csv, lastfm_corpus, case
    ):
        import hashlib

        from kgrerank.cli import main

        from conftest import write_config

        config = write_config(
            tmp_path / "config.json",
            _ingest_case(case, tmp_path, lastfm_files, netflix_csv, lastfm_corpus),
        )
        assert main(["ingest", "--config", str(config)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "out").iterdir())
            if path.name != "manifest.json"
        }
        assert digests == INGEST_DIGESTS[case]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """:func:`make_lastfm_corpus` at corpus seeds 1, 2 and 3."""
    return {
        seed: make_lastfm_corpus(tmp_path_factory.mktemp(f"corpus{seed}"), seed=seed)
        for seed in (1, 2, 3)
    }


class TestSampledIngest:
    """A Last.fm ingest draws its sample from the merged play counts, before
    any interaction exists; its files equal the library path's, in which
    ``sample_users`` draws from ``merge_lastfm``'s interactions."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "sample, min_unique",
        [(None, 10), (1, 10), (3, 10), (4, 10), (5, 10), (2, 0), (16, 4), (17, 4)],
    )
    def test_files_equal_the_library_path(self, tmp_path, corpora, seed, sample, min_unique):
        paths = [corpora[seed] / name for name in ("events.tsv", "features.csv", "genres.csv")]
        self._check(tmp_path, paths, 7 * seed, sample, min_unique)

    @pytest.mark.parametrize("sample", [1, 2, 3])
    def test_a_user_without_kept_tracks_is_never_drawn(self, tmp_path, lastfm_files, sample):
        # u3's one track, tr4, has no feature row: with no minimum, two users
        # are eligible
        self._check(tmp_path, lastfm_files, 3, sample, 0)

    def _check(self, tmp_path, paths, seed, sample, min_unique):
        out = tmp_path / "out"
        events, features, genres = paths
        cfg = RunConfig.from_dict({
            "dataset": {
                "kind": "lastfm", "events": str(events), "features": str(features),
                "genres": str(genres), "sample_users": sample,
                "min_unique_tracks": min_unique,
            },
            "seed": seed,
            "output_dir": str(out),
        })
        expected = merge_lastfm(events, features, genres).interactions
        if sample is not None:
            try:
                kept = sample_users(expected, sample, min_unique, seed)
            except IngestError as exc:
                with pytest.raises(IngestError) as info:
                    stage_ingest(cfg)
                assert str(info.value) == str(exc)
                assert str(exc).startswith("only ")
                return
            expected = [i for i in expected if i.user in kept]
        stage_ingest(cfg)
        assert _read_interactions(out / INTERACTIONS) == expected
        histories: dict[str, list[str]] = {}
        for interaction in expected:
            histories.setdefault(interaction.user, []).append(interaction.item)
        assert _read_profiles(out / PROFILES) == {
            user: {"history": sorted(items)} for user, items in histories.items()
        }

    def test_sampled_out_users_make_no_interactions(self, tmp_path, lastfm_corpus, monkeypatch):
        made = []
        check = Interaction.__post_init__

        def counting_check(interaction):
            made.append(interaction.user)
            check(interaction)

        cfg = RunConfig.from_dict(
            lastfm_run_config(lastfm_corpus, tmp_path / "out", ["node_count"])
        )
        monkeypatch.setattr(Interaction, "__post_init__", counting_check)
        stage_ingest(cfg)
        monkeypatch.undo()
        lines = (tmp_path / "out" / INTERACTIONS).read_text(encoding="utf-8").splitlines()
        users = {line.split("\t")[0] for line in lines}
        assert len(users) == cfg.sample_users == 3
        assert len(made) == len(lines) > 0
        assert set(made) == users

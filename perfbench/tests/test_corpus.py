"""Checks of the benchmark's own parts: corpus generator, trace metrics, names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

from corpus import CorpusSpec, UserGroup, generate_corpus  # noqa: E402
from perlayer import OVERHEAD, SPECS, Trace, layer_metrics  # noqa: E402

from kgrerank import merge_lastfm  # noqa: E402

SPEC = CorpusSpec(
    n_tracks=400, n_artists=50, n_genres=12,
    groups=(UserGroup(4, 60, 70), UserGroup(20, 10, 30)),
)


def _corpus(tmp_path, seed=3):
    stats = generate_corpus(SPEC, seed, tmp_path)
    merged = merge_lastfm(
        tmp_path / "events.tsv", tmp_path / "features.csv", tmp_path / "genres.csv"
    )
    return stats, merged


def test_merge_keeps_every_event_and_track(tmp_path):
    stats, merged = _corpus(tmp_path)
    assert merged.dropped_events == 0
    assert merged.stats.events == stats["events"]
    assert merged.stats.tracks == stats["tracks"]
    tracks = {i.item for i in merged.interactions}
    assert tracks == set(merged.features)


def test_generator_reports_the_promised_structure(tmp_path):
    stats, merged = _corpus(tmp_path)
    assert stats["artists_per_track"] == 1
    assert stats["tracks_per_artist_mean"] > 2  # artists are shared
    assert stats["genres_per_track_min"] == 1
    assert stats["genres_per_track_max"] == 3
    assert 1.5 < stats["genres_per_track_mean"] < 2.5
    # a uniform popularity would give the top tenth of tracks a tenth of plays
    assert stats["top_decile_play_share"] > 0.25
    assert 10 <= stats["history_min"] and stats["history_max"] <= 70
    histories = {}
    for i in merged.interactions:
        histories.setdefault(i.user, set()).add(i.item)
    assert sum(len(h) >= 60 for h in histories.values()) == 4


def test_same_seed_same_bytes(tmp_path):
    generate_corpus(SPEC, 5, tmp_path / "a")
    generate_corpus(SPEC, 5, tmp_path / "b")
    generate_corpus(SPEC, 6, tmp_path / "c")
    for name in ("events.tsv", "features.csv", "genres.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "events.tsv").read_bytes() != (tmp_path / "c" / "events.tsv").read_bytes()


def test_missing_target_is_unavailable_with_reason(tmp_path):
    spans = tmp_path / "spans.jsonl"
    header = {
        "installed": {"kgrerank.rerank.OverlayView": "kgrerank.rerank has no attribute OverlayView"},
        "counters": {},
        "probe_from": 3,
    }
    rows = [
        ["rerank.evaluate", 0.0, 1e-3, -1, "u1", {"metric": "betweenness", "ties": 0, "pairs": 0}],
        ["graph.delta", 0.0, 2e-6, 0, "u1", {"added": 2, "touched": 1}],
        ["metrics.compute", 1e-4, 6e-4, 0, "u1", {"metric": "betweenness"}],
        # the probe after the run: pagerank, which the run does not configure
        ["rerank.evaluate", 2.0, 2.1, -1, "u1", {"metric": "pagerank", "ties": 0, "pairs": 0}],
        ["graph.delta", 2.0, 2.0 + 9e-6, 3, "u1", {"added": 5, "touched": 3}],
        ["metrics.compute", 2.0, 2.0 + 2e-3, 3, "u1", {"metric": "pagerank"}],
    ]
    spans.write_text("\n".join(json.dumps(x) for x in [header, *rows]) + "\n")
    metrics = layer_metrics(Trace(spans, ("betweenness",)))
    assert metrics["graph.view_us_per_cand"] == (None, "kgrerank.rerank has no attribute OverlayView")
    # probe spans count toward nothing but the unconfigured metric's kernel
    assert metrics["graph.single_attach_share"] == (1.0, None)
    assert metrics["graph.delta_us_per_cand.n"] == (1.0, None)
    assert abs(metrics["metrics.betweenness.kernel_ms_per_cand"][0] - 0.5) < 1e-9
    assert abs(metrics["metrics.pagerank.kernel_ms_per_cand"][0] - 2.0) < 1e-6
    assert metrics["metrics.pagerank.calls"] == (0.0, None)
    assert metrics["metrics.node_count.calls"] == (0.0, None)
    value, reason = metrics["metrics.node_count.kernel_ms_per_cand"]
    assert value is None and "no candidate evaluation of node_count" in reason


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    reported = {name: (unit, better) for name, unit, better, _ in SPECS}
    reported[OVERHEAD[0]] = OVERHEAD[1:]
    assert per_layer == reported
    assert [m["name"] for m in bench["end_to_end"]] == [
        "run_s", "evals_per_s", "setup_s", "peak_rss_mb"
    ]

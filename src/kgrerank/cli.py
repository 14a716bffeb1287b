"""Command-line pipeline: ingest -> recommend -> rerank -> evaluate.

Each stage reads and writes flat files in the output directory, so stages can
be run separately or all at once with ``run``. Given identical inputs, config
and seed, every produced artifact is byte-identical across runs. Exit codes:
0 on success, 1 for validation errors, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__
from .evaluation import (
    EvalRow,
    FEATURE_NAMES,
    FeatureVector,
    emit_report,
    ild,
    lookup_features,
    ndcg_at_k,
    unexpectedness,
    write_qrels,
    write_trec_run,
)
from .graph import (
    NeighborhoodMode,
    PruneRules,
    build_catalog,
    export_graph,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)
from .ingest import (
    SyntheticConfig,
    SyntheticProfileConfig,
    generate_profiles,
    load_netflix,
    make_synthetic_dataset,
    merge_lastfm,
    sample_users,
    split_interactions,
    title_nodes,
    write_summary,
)
from .metrics import MetricKind
from .recsys import (
    BaselineRecommender,
    Interaction,
    ItemKnnRecommender,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)
from .rerank import (
    RecommendationList,
    SortOrder,
    evaluate_candidates,  # noqa: F401 - perfbench/worker.py probes through this name
    evaluate_metrics,
    order_candidates,
)

log = logging.getLogger(__name__)

DATASETS = ("lastfm", "netflix", "synthetic")
RECOMMENDERS = ("external", "baseline", "itemknn")
ORDERS = ("asc", "desc")
MODES = ("closed", "edges")

# workspace artifact names
CATALOG_TRIPLES = "catalog_triples.tsv"
CATALOG_NODES = "catalog_nodes.tsv"
INTERACTIONS = "interactions.tsv"
PROFILES = "profiles.json"
FEATURES = "features.csv"
INGEST_SUMMARY = "ingest_summary.jsonl"
BASE_RUN = "base_run.txt"
QRELS = "qrels.txt"
REPORT = "report.csv"
REPORT_SUMMARY = "report_summary.csv"
MANIFEST = "manifest.json"
STALE_FLAG = "_STALE"


def rerank_run_name(metric: str, order: str) -> str:
    return f"rerank_{metric}_{order}.txt"


def trec_run_name(metric: str, order: str) -> str:
    return f"trec_{metric}_{order}.run"


class PipelineError(RuntimeError):
    """A stage failed; the message names the stage and the cause."""


@dataclass
class RunConfig:
    """Everything one pipeline run depends on.

    Values load from a JSON config document first; command-line flags win.
    """

    dataset: str = "synthetic"
    output_dir: str = "runs/out"
    seed: int = 42
    parallelism: int | None = None  # None: one worker per available CPU

    # dataset inputs
    events_path: str | None = None
    features_path: str | None = None
    genres_path: str | None = None
    titles_path: str | None = None

    # lastfm user sampling (disabled unless sample_users is set)
    sample_users: int | None = None
    min_unique_tracks: int = 100

    # netflix synthetic profiles and split
    profile_count: int = 88
    profile_min_items: int = 5
    profile_max_items: int = 55
    split_ratio: float = 0.9
    prune_degree_one: bool = True
    prune_label_entities: bool = False
    prune_schema_nodes: bool = False

    # self-contained synthetic dataset
    synth_tracks: int = 200
    synth_users: int = 20
    synth_history: int = 24
    synth_minority_share: float = 0.1

    # recommender
    recommender: str = "baseline"
    external_recs_path: str | None = None
    knn_k: int = 40

    # rerank and evaluation
    metrics: list[str] = field(default_factory=lambda: ["betweenness"])
    orders: list[str] = field(default_factory=lambda: ["asc"])
    mode: str = "closed"
    top_n_candidates: int = 100
    eval_k: int = 10

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls()
        dataset = data.get("dataset", {})
        if isinstance(dataset, str):  # allow the flat spelling
            cfg.dataset = dataset
        else:
            cfg.dataset = dataset.get("kind", cfg.dataset)
            cfg.events_path = dataset.get("events", cfg.events_path)
            cfg.features_path = dataset.get("features", cfg.features_path)
            cfg.genres_path = dataset.get("genres", cfg.genres_path)
            cfg.titles_path = dataset.get("titles", cfg.titles_path)
            cfg.sample_users = dataset.get("sample_users", cfg.sample_users)
            cfg.min_unique_tracks = dataset.get(
                "min_unique_tracks", cfg.min_unique_tracks
            )
            profiles = dataset.get("profiles", {})
            cfg.profile_count = profiles.get("count", cfg.profile_count)
            cfg.profile_min_items = profiles.get("min_items", cfg.profile_min_items)
            cfg.profile_max_items = profiles.get("max_items", cfg.profile_max_items)
            cfg.split_ratio = dataset.get("split_ratio", cfg.split_ratio)
            prune = dataset.get("prune", {})
            cfg.prune_degree_one = prune.get("degree_one", cfg.prune_degree_one)
            cfg.prune_label_entities = prune.get(
                "label_entities", cfg.prune_label_entities
            )
            cfg.prune_schema_nodes = prune.get("schema", cfg.prune_schema_nodes)
            synthetic = dataset.get("synthetic", {})
            cfg.synth_tracks = synthetic.get("tracks", cfg.synth_tracks)
            cfg.synth_users = synthetic.get("users", cfg.synth_users)
            cfg.synth_history = synthetic.get("history", cfg.synth_history)
            cfg.synth_minority_share = synthetic.get(
                "minority_share", cfg.synth_minority_share
            )
        recommender = data.get("recommender", {})
        if isinstance(recommender, str):
            cfg.recommender = recommender
        else:
            cfg.recommender = recommender.get("kind", cfg.recommender)
            cfg.external_recs_path = recommender.get(
                "external_path", cfg.external_recs_path
            )
            cfg.knn_k = recommender.get("knn_k", cfg.knn_k)
        rerank_section = data.get("rerank", {})
        cfg.metrics = list(rerank_section.get("metrics", cfg.metrics))
        cfg.orders = list(rerank_section.get("orders", cfg.orders))
        cfg.mode = rerank_section.get("mode", cfg.mode)
        cfg.top_n_candidates = rerank_section.get("top_n", cfg.top_n_candidates)
        cfg.eval_k = data.get("evaluation", {}).get("k", cfg.eval_k)
        cfg.seed = data.get("seed", cfg.seed)
        cfg.parallelism = data.get("parallelism", cfg.parallelism)
        cfg.output_dir = data.get("output_dir", cfg.output_dir)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def validate_config(cfg: RunConfig) -> list[str]:
    """All config violations at once, not first-failure."""
    findings: list[str] = []
    if cfg.dataset not in DATASETS:
        findings.append(f"dataset must be one of {DATASETS}, got {cfg.dataset!r}")
    if cfg.recommender not in RECOMMENDERS:
        findings.append(
            f"recommender must be one of {RECOMMENDERS}, got {cfg.recommender!r}"
        )
    if not cfg.metrics:
        findings.append("at least one metric is required")
    for name in cfg.metrics:
        try:
            MetricKind.from_name(name)
        except ValueError as exc:
            findings.append(str(exc))
    if not cfg.orders:
        findings.append("at least one sort order is required")
    for order in cfg.orders:
        if order not in ORDERS:
            findings.append(f"order must be one of {ORDERS}, got {order!r}")
    if cfg.mode not in MODES:
        findings.append(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.top_n_candidates < 1:
        findings.append(f"top_n_candidates must be >= 1, got {cfg.top_n_candidates}")
    if cfg.eval_k < 1:
        findings.append(f"eval_k must be >= 1, got {cfg.eval_k}")
    if cfg.parallelism is not None and cfg.parallelism < 1:
        findings.append(f"parallelism must be >= 1, got {cfg.parallelism}")
    if not cfg.output_dir:
        findings.append("output_dir must be set")
    if cfg.dataset == "lastfm":
        for label, path in (("events", cfg.events_path), ("features", cfg.features_path)):
            if not path:
                findings.append(f"lastfm dataset requires the {label} path")
            elif not Path(path).exists():
                findings.append(f"{label} path does not exist: {path}")
        if cfg.genres_path and not Path(cfg.genres_path).exists():
            findings.append(f"genres path does not exist: {cfg.genres_path}")
        if cfg.sample_users is not None and cfg.sample_users < 1:
            findings.append(f"sample_users must be >= 1, got {cfg.sample_users}")
    if cfg.dataset == "netflix":
        if not cfg.titles_path:
            findings.append("netflix dataset requires the titles path")
        elif not Path(cfg.titles_path).exists():
            findings.append(f"titles path does not exist: {cfg.titles_path}")
        if not 1 <= cfg.profile_min_items <= cfg.profile_max_items:
            findings.append(
                "need 1 <= profile_min_items <= profile_max_items, got "
                f"[{cfg.profile_min_items}, {cfg.profile_max_items}]"
            )
        if cfg.profile_count < 1:
            findings.append(f"profile_count must be >= 1, got {cfg.profile_count}")
        if not 0.0 < cfg.split_ratio < 1.0:
            findings.append(f"split_ratio must lie in (0, 1), got {cfg.split_ratio}")
    if cfg.dataset == "synthetic":
        try:
            SyntheticConfig(
                n_tracks=cfg.synth_tracks,
                n_users=cfg.synth_users,
                history_size=cfg.synth_history,
                minority_share=cfg.synth_minority_share,
                seed=cfg.seed,
            )
        except ValueError as exc:
            findings.append(str(exc))
    if cfg.recommender == "external":
        if not cfg.external_recs_path:
            findings.append("external recommender requires external_recs_path")
        elif not Path(cfg.external_recs_path).exists():
            findings.append(
                f"external_recs_path does not exist: {cfg.external_recs_path}"
            )
    if cfg.knn_k < 1:
        findings.append(f"knn_k must be >= 1, got {cfg.knn_k}")
    return findings


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(cfg: RunConfig) -> None:
    inputs = {}
    for path in (
        cfg.events_path,
        cfg.features_path,
        cfg.genres_path,
        cfg.titles_path,
        cfg.external_recs_path,
    ):
        if path and Path(path).exists():
            inputs[str(path)] = _sha256_file(path)
    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "config": cfg.to_dict(),
        "inputs": inputs,
    }
    out = Path(cfg.output_dir) / MANIFEST
    out.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# workspace file helpers


def _write_interactions(interactions: list[Interaction], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in sorted(interactions, key=lambda i: (i.user, i.item)):
            fh.write(f"{row.user}\t{row.item}\t{row.count}\n")


def _read_interactions(path) -> list[Interaction]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                user, item, count = line.split("\t")
                out.append(Interaction(user, item, int(count)))
    return out


def _write_profiles(profiles: dict[str, dict[str, list[str]]], path) -> None:
    payload = {"users": profiles}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _read_profiles(path) -> dict[str, dict[str, list[str]]]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["users"]


def _write_features(features: dict[str, FeatureVector], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", *FEATURE_NAMES])
        for item in sorted(features):
            vector = features[item]
            writer.writerow(
                [item, *(repr(getattr(vector, name)) for name in FEATURE_NAMES)]
            )


def _read_features(path) -> dict[str, FeatureVector]:
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["item"]] = FeatureVector.from_iterable(
                float(row[name]) for name in FEATURE_NAMES
            )
    return out


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.dataset == "synthetic":
        merged = make_synthetic_dataset(
            SyntheticConfig(
                n_tracks=cfg.synth_tracks,
                n_users=cfg.synth_users,
                history_size=cfg.synth_history,
                minority_share=cfg.synth_minority_share,
                seed=cfg.seed,
            )
        )
        catalog = build_catalog(merged.triples)
        interactions = merged.interactions
        profiles = _profiles_from_interactions(interactions)
        features = merged.features
        summary = merged.summary
    elif cfg.dataset == "lastfm":
        merged = merge_lastfm(cfg.events_path, cfg.features_path, cfg.genres_path)
        interactions = merged.interactions
        summary = list(merged.summary)
        if cfg.sample_users is not None:
            kept = sample_users(
                interactions, cfg.sample_users, cfg.min_unique_tracks, cfg.seed
            )
            interactions = [i for i in interactions if i.user in kept]
            summary.append(
                {"stage": "sample", "count": len(kept), "reason": "users sampled"}
            )
        catalog = build_catalog(merged.triples)
        profiles = _profiles_from_interactions(interactions)
        features = merged.features
    elif cfg.dataset == "netflix":
        triples, records = load_netflix(cfg.titles_path)
        catalog = build_catalog(triples, nodes=title_nodes(records))
        rules = PruneRules(
            drop_label_entities=cfg.prune_label_entities,
            drop_degree_one=cfg.prune_degree_one,
            drop_schema_nodes=cfg.prune_schema_nodes,
        )
        before = catalog.num_nodes
        catalog = prune_graph(catalog, rules)
        histories = generate_profiles(
            catalog,
            SyntheticProfileConfig(
                n_profiles=cfg.profile_count,
                min_items=cfg.profile_min_items,
                max_items=cfg.profile_max_items,
                seed=cfg.seed,
            ),
        )
        profiles = {}
        interactions = []
        for i, history in enumerate(histories):
            user = f"p{i:03d}"
            train, test = split_interactions(history, cfg.split_ratio, cfg.seed + i)
            profiles[user] = {"history": sorted(train), "test": sorted(test)}
            for item in sorted(train):
                interactions.append(Interaction(user, item, 1))
        features = {}
        summary = [
            {"stage": "load", "count": len(records), "reason": "titles read"},
            {
                "stage": "prune",
                "count": before - catalog.num_nodes,
                "reason": "nodes pruned",
            },
            {
                "stage": "profiles",
                "count": len(histories),
                "reason": "profiles generated",
            },
        ]
    else:  # pragma: no cover - guarded by validate_config
        raise PipelineError(f"unknown dataset {cfg.dataset!r}")

    export_graph(catalog, out / CATALOG_TRIPLES, out / CATALOG_NODES)
    _write_interactions(interactions, out / INTERACTIONS)
    _write_profiles(profiles, out / PROFILES)
    if features:
        _write_features(features, out / FEATURES)
    write_summary(summary, out / INGEST_SUMMARY)


def _profiles_from_interactions(
    interactions: list[Interaction],
) -> dict[str, dict[str, list[str]]]:
    histories: dict[str, set[str]] = {}
    for interaction in interactions:
        histories.setdefault(interaction.user, set()).add(interaction.item)
    return {
        user: {"history": sorted(items), "test": []}
        for user, items in sorted(histories.items())
    }


# user ids named in the one warning about users without external lists
_SKIPPED_SHOWN = 5


def stage_recommend(cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    profiles = _read_profiles(out / PROFILES)
    if cfg.recommender == "external":
        lists = load_external_recommendations(cfg.external_recs_path)
        selected = {}
        skipped = []
        for user in sorted(profiles):
            if user not in lists:
                skipped.append(user)
                continue
            full = lists[user]
            selected[user] = RecommendationList(
                user=user, items=full.items[: cfg.top_n_candidates]
            )
        if skipped:
            shown = ", ".join(skipped[:_SKIPPED_SHOWN])
            more = len(skipped) - _SKIPPED_SHOWN
            log.warning(
                "no external recommendations for %d user(s); skipped: %s%s",
                len(skipped), shown, f" and {more} more" if more > 0 else "",
            )
    else:
        interactions = _read_interactions(out / INTERACTIONS)
        matrix = scale_ratings(interactions)
        if cfg.recommender == "itemknn":
            model = ItemKnnRecommender(k=cfg.knn_k).fit(matrix)
        else:
            model = BaselineRecommender().fit(matrix)
        selected = {
            user: model.recommend(user, n=cfg.top_n_candidates)
            for user in sorted(profiles)
            if matrix.has_user(user)
        }
    write_recommendations(selected, out / BASE_RUN)


def _rerank_profile(catalog, user, history, rec_items, metric_names, order_names, mode, top_n):
    """Per-user work unit; returns {(metric, order): ordered item ids}."""
    sg = induce_profile_subgraph(catalog, history, user=user)
    recs = RecommendationList(user=user, items=tuple(rec_items))
    evaluations = evaluate_metrics(
        catalog,
        sg,
        recs,
        [MetricKind.from_name(name) for name in metric_names],
        NeighborhoodMode(mode),
    )
    return {
        (kind.value, order_name): [
            e.item for e in order_candidates(evaluated, SortOrder(order_name), top_n)
        ]
        for kind, evaluated in evaluations.items()
        for order_name in order_names
    }


_WORKER_CATALOG = None


def _init_worker(catalog) -> None:
    global _WORKER_CATALOG
    _WORKER_CATALOG = catalog


def _run_task(task):
    user, history, rec_items, metric_names, order_names, mode, top_n = task
    return user, _rerank_profile(
        _WORKER_CATALOG, user, history, rec_items, metric_names, order_names,
        mode, top_n,
    )


def stage_rerank(cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    catalog = read_graph(out / CATALOG_TRIPLES, out / CATALOG_NODES)
    profiles = _read_profiles(out / PROFILES)
    base_lists = load_external_recommendations(out / BASE_RUN)

    tasks = [
        (
            user,
            profiles[user]["history"],
            tuple(base_lists[user].items),
            tuple(cfg.metrics),
            tuple(cfg.orders),
            cfg.mode,
            cfg.top_n_candidates,
        )
        for user in sorted(base_lists)
        if user in profiles
    ]

    degree = cfg.parallelism if cfg.parallelism is not None else (os.cpu_count() or 1)
    degree = max(1, min(degree, len(tasks)))
    per_user: dict[str, dict[tuple[str, str], list[str]]] = {}
    if degree > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=degree, initializer=_init_worker, initargs=(catalog,)
        ) as pool:
            for user, results in pool.map(_run_task, tasks):
                per_user[user] = results
    else:
        for task in tasks:
            user = task[0]
            per_user[user] = _rerank_profile(catalog, *task)

    for metric_name in cfg.metrics:
        for order_name in cfg.orders:
            lists = {}
            for user in sorted(per_user):
                items = per_user[user][(metric_name, order_name)]
                n = len(items)
                # positional scores keep the run format's non-increasing invariant
                lists[user] = RecommendationList(
                    user=user,
                    items=tuple(
                        (item, float(n - i)) for i, item in enumerate(items)
                    ),
                )
            write_recommendations(
                lists, out / rerank_run_name(metric_name, order_name)
            )


def stage_evaluate(cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    profiles = _read_profiles(out / PROFILES)
    base_lists = load_external_recommendations(out / BASE_RUN)
    features = (
        _read_features(out / FEATURES) if (out / FEATURES).exists() else None
    )
    k = cfg.eval_k

    rows: list[EvalRow] = []
    trec_rankings: dict[tuple[str, str], dict[str, list[str]]] = {}
    for metric_name in cfg.metrics:
        for order_name in cfg.orders:
            run_path = out / rerank_run_name(metric_name, order_name)
            reranked = load_external_recommendations(run_path)
            trec_rankings[(metric_name, order_name)] = {
                user: list(lst.item_ids()) for user, lst in reranked.items()
            }
            for user in sorted(base_lists):
                if user not in reranked:
                    continue
                ranked_ids = list(reranked[user].item_ids())
                ndcg = ndcg_at_k(base_lists[user], ranked_ids, k)
                ild_value = unexp_value = None
                if features is not None:
                    top_vectors = lookup_features(ranked_ids[:k], features)
                    history_vectors = lookup_features(
                        profiles[user]["history"], features
                    )
                    ild_value = ild(top_vectors)
                    unexp_value = unexpectedness(history_vectors, top_vectors)
                rows.append(
                    EvalRow(user, metric_name, order_name, ild_value, unexp_value, ndcg)
                )

    for user in sorted(base_lists):
        base_ids = list(base_lists[user].item_ids())
        ild_value = unexp_value = None
        if features is not None:
            base_vectors = lookup_features(base_ids[:k], features)
            history_vectors = lookup_features(profiles[user]["history"], features)
            ild_value = ild(base_vectors)
            unexp_value = unexpectedness(history_vectors, base_vectors)
            rows.append(
                EvalRow(user, "profile", "-", ild(history_vectors), None, None)
            )
        rows.append(
            EvalRow(
                user, "base", "-", ild_value, unexp_value,
                ndcg_at_k(base_lists[user], base_ids, k),
            )
        )

    emit_report(rows, out / REPORT, out / REPORT_SUMMARY)
    write_qrels(base_lists, k, out / QRELS)
    for (metric_name, order_name), rankings in sorted(trec_rankings.items()):
        write_trec_run(
            rankings,
            tag=f"{metric_name}_{order_name}",
            path=out / trec_run_name(metric_name, order_name),
        )


_STAGES = (
    ("ingest", stage_ingest),
    ("recommend", stage_recommend),
    ("rerank", stage_rerank),
    ("evaluate", stage_evaluate),
)


def _run_stage(name: str, cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    flag = out / STALE_FLAG
    flag.write_text(f"stage {name} in progress; outputs may be partial\n")
    try:
        dict(_STAGES)[name](cfg)
    except Exception as exc:
        raise PipelineError(f"stage {name} failed: {exc}") from exc
    flag.unlink()
    write_manifest(cfg)


def run_pipeline(cfg: RunConfig) -> None:
    """Execute all stages in order; artifacts land in cfg.output_dir."""
    for name, _ in _STAGES:
        _run_stage(name, cfg)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--dataset", choices=DATASETS)
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--recommender", choices=RECOMMENDERS)
    parser.add_argument(
        "--metric", action="append", dest="metrics",
        help="metric to rerank by; repeatable",
    )
    parser.add_argument(
        "--order", action="append", dest="orders", choices=ORDERS,
        help="sort order; repeatable",
    )
    parser.add_argument("--mode", choices=MODES, help="neighborhood mode")
    parser.add_argument("--top-n", type=int, dest="top_n_candidates")
    parser.add_argument("--k", type=int, dest="eval_k")
    parser.add_argument("--events", dest="events_path")
    parser.add_argument("--features", dest="features_path")
    parser.add_argument("--genres", dest="genres_path")
    parser.add_argument("--titles", dest="titles_path")
    parser.add_argument("--external-recs", dest="external_recs_path")
    parser.add_argument("--knn-k", type=int, dest="knn_k")


_OVERRIDABLE = (
    "dataset",
    "output_dir",
    "seed",
    "parallelism",
    "recommender",
    "metrics",
    "orders",
    "mode",
    "top_n_candidates",
    "eval_k",
    "events_path",
    "features_path",
    "genres_path",
    "titles_path",
    "external_recs_path",
    "knn_k",
)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for name in _OVERRIDABLE:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _Parser(
        prog="kgrerank",
        description="Re-rank recommendation lists by their impact on "
        "network metrics of user profile subgraphs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, _ in _STAGES:
        _add_common_arguments(subparsers.add_parser(name))
    _add_common_arguments(subparsers.add_parser("run", help="all stages in order"))

    args = parser.parse_args(argv)
    cfg = _build_config(args)
    findings = validate_config(cfg)
    if findings:
        for finding in findings:
            print(f"config error: {finding}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            run_pipeline(cfg)
        else:
            _run_stage(args.command, cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict, dataclass, field, fields
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


class ConfigError(ValueError):
    """The config document cannot be loaded; one finding per problem."""

    def __init__(self, findings: list[str]):
        super().__init__("; ".join(findings))
        self.findings = findings


def _setting(default, path: str, flag: str | None = None, **argparse_extras):
    """A RunConfig field read from the dotted JSON ``path`` and, if given, ``flag``.

    ``argparse_extras`` go to ``add_argument``; ``type=int`` comes from the
    field's annotation.
    """
    metadata = {"path": path, "flag": flag, "argparse": argparse_extras}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Everything one pipeline run depends on.

    Values load from a JSON config document first; command-line flags win.
    Each field declares its JSON path and flag once, and both the loader and
    the argument parser read that declaration.
    """

    dataset: str = _setting(
        "synthetic", "dataset.kind", "--dataset", choices=DATASETS
    )
    output_dir: str = _setting(
        "runs/out", "output_dir", "--out", help="output directory"
    )
    seed: int = _setting(42, "seed", "--seed")
    # None: one worker per available CPU
    parallelism: int | None = _setting(None, "parallelism", "--parallelism")

    # dataset inputs
    events_path: str | None = _setting(None, "dataset.events", "--events")
    features_path: str | None = _setting(None, "dataset.features", "--features")
    genres_path: str | None = _setting(None, "dataset.genres", "--genres")
    titles_path: str | None = _setting(None, "dataset.titles", "--titles")

    # lastfm user sampling (disabled unless sample_users is set)
    sample_users: int | None = _setting(None, "dataset.sample_users")
    min_unique_tracks: int = _setting(100, "dataset.min_unique_tracks")

    # netflix synthetic profiles and split
    profile_count: int = _setting(88, "dataset.profiles.count")
    profile_min_items: int = _setting(5, "dataset.profiles.min_items")
    profile_max_items: int = _setting(55, "dataset.profiles.max_items")
    split_ratio: float = _setting(0.9, "dataset.split_ratio")
    prune_degree_one: bool = _setting(True, "dataset.prune.degree_one")
    prune_label_entities: bool = _setting(False, "dataset.prune.label_entities")
    prune_schema_nodes: bool = _setting(False, "dataset.prune.schema")

    # self-contained synthetic dataset
    synth_tracks: int = _setting(200, "dataset.synthetic.tracks")
    synth_users: int = _setting(20, "dataset.synthetic.users")
    synth_history: int = _setting(24, "dataset.synthetic.history")
    synth_minority_share: float = _setting(0.1, "dataset.synthetic.minority_share")

    # recommender
    recommender: str = _setting(
        "baseline", "recommender.kind", "--recommender", choices=RECOMMENDERS
    )
    external_recs_path: str | None = _setting(
        None, "recommender.external_path", "--external-recs"
    )
    knn_k: int = _setting(40, "recommender.knn_k", "--knn-k")

    # rerank and evaluation
    metrics: list[str] = _setting(
        ["betweenness"], "rerank.metrics", "--metric",
        action="append", help="metric to rerank by; repeatable",
    )
    orders: list[str] = _setting(
        ["asc"], "rerank.orders", "--order",
        action="append", choices=ORDERS, help="sort order; repeatable",
    )
    mode: str = _setting(
        "closed", "rerank.mode", "--mode", choices=MODES, help="neighborhood mode"
    )
    top_n_candidates: int = _setting(100, "rerank.top_n", "--top-n")
    eval_k: int = _setting(10, "evaluation.k", "--k")

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        """Load a nested config document; raise ConfigError on any bad key.

        A section with a ``kind`` key may also be given as the kind alone, as
        in ``"dataset": "synthetic"``. Values are not type-checked here; that
        is ``validate_config``'s job.
        """
        if not isinstance(data, dict):
            raise ConfigError([f"config must be a JSON object, got {data!r}"])
        cfg = cls()
        findings: list[str] = []

        def walk(section: dict, prefix: str) -> None:
            for key, value in section.items():
                path = prefix + key
                if path in _FIELDS_BY_PATH:
                    setattr(cfg, _FIELDS_BY_PATH[path].name, value)
                elif path not in _SECTIONS:
                    findings.append(f"unknown config key {path}")
                elif isinstance(value, dict):
                    walk(value, path + ".")
                elif isinstance(value, str) and f"{path}.kind" in _FIELDS_BY_PATH:
                    walk({"kind": value}, path + ".")
                else:
                    findings.append(f"{path} must be an object, got {value!r}")

        walk(data, "")
        if findings:
            raise ConfigError(findings)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read {path}: {exc.strerror}"]) from None
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigError([f"cannot parse {path}: {exc}"]) from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


_FIELDS_BY_PATH = {f.metadata["path"]: f for f in fields(RunConfig)}
# every proper prefix of a path, such as "dataset" and "dataset.profiles"
_SECTIONS = {
    path.rsplit(".", i)[0]
    for path in _FIELDS_BY_PATH
    for i in range(1, path.count(".") + 1)
}
_FLAGGED = [f for f in fields(RunConfig) if f.metadata["flag"]]


# RunConfig annotation -> (accepted types, what a finding says is expected)
_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "list[str]": ((list,), "a list of strings"),
}


def _type_findings(cfg: RunConfig) -> list[str]:
    """One finding per field whose value has the wrong JSON type."""
    findings = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        accepted, expected = _FIELD_TYPES[f.type]
        ok = isinstance(value, accepted) and (
            bool in accepted or not isinstance(value, bool)
        )
        if ok and isinstance(value, list):
            ok = all(isinstance(v, str) for v in value)
        if not ok:
            findings.append(f"{f.name} must be {expected}, got {value!r}")
    return findings


def _synthetic_config(cfg: RunConfig) -> SyntheticConfig:
    return SyntheticConfig(
        n_tracks=cfg.synth_tracks,
        n_users=cfg.synth_users,
        history_size=cfg.synth_history,
        minority_share=cfg.synth_minority_share,
        seed=cfg.seed,
    )


def validate_config(cfg: RunConfig) -> list[str]:
    """All config violations at once, not first-failure.

    Wrongly typed values are reported alone: the other checks compare and
    iterate the values, which needs the declared types.
    """
    findings = _type_findings(cfg)
    if findings:
        return findings
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
            _synthetic_config(cfg)
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
    paths = (getattr(cfg, f.name) for f in fields(cfg) if f.name.endswith("_path"))
    for path in paths:
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
    """Read a workspace features file; a bad row is named by line and item."""
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            item = row["item"]
            try:
                values = [float(row[name]) for name in FEATURE_NAMES]
                if not any(values):
                    raise ValueError("all-zero vector has no cosine distance")
                out[item] = FeatureVector.from_iterable(values)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{reader.line_num}: item {item!r}: {exc}"
                ) from None
    return out


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: RunConfig) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.dataset == "synthetic":
        merged = make_synthetic_dataset(_synthetic_config(cfg))
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
    reranked = {
        (metric_name, order_name): load_external_recommendations(
            out / rerank_run_name(metric_name, order_name)
        )
        for metric_name in cfg.metrics
        for order_name in cfg.orders
    }

    rows: list[EvalRow] = []
    for user in sorted(base_lists):
        base = base_lists[user]
        lists = [("base", "-", base)] + [
            (*combo, by_user[user]) for combo, by_user in reranked.items()
            if user in by_user
        ]
        try:
            history = None
            if features is not None:
                history = lookup_features(profiles[user]["history"], features)
                rows.append(EvalRow(user, "profile", "-", ild(history), None, None))
            for metric_name, order_name, ranked in lists:
                ranked_ids = list(ranked.item_ids())
                ild_value = unexp_value = None
                if history is not None:
                    top = lookup_features(ranked_ids[:k], features)
                    ild_value, unexp_value = ild(top), unexpectedness(history, top)
                rows.append(EvalRow(
                    user, metric_name, order_name, ild_value, unexp_value,
                    ndcg_at_k(base, ranked_ids, k),
                ))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"user {user!r}: {exc.args[0]}") from exc

    emit_report(rows, out / REPORT, out / REPORT_SUMMARY)
    write_qrels(base_lists, k, out / QRELS)
    for (metric_name, order_name), by_user in sorted(reranked.items()):
        write_trec_run(
            {user: list(lst.item_ids()) for user, lst in by_user.items()},
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
    for f in _FLAGGED:
        extras = f.metadata["argparse"]
        if f.type.startswith("int"):
            extras = {"type": int, **extras}
        parser.add_argument(f.metadata["flag"], dest=f.name, **extras)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for f in _FLAGGED:
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
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
    try:
        cfg = _build_config(args)
    except ConfigError as exc:
        findings = exc.findings
    else:
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

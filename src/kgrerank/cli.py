"""Command-line pipeline: ingest -> recommend -> rerank -> evaluate.

Each stage writes flat files in the output directory. A stage run alone
reads its inputs from those files; ``run`` hands each stage's artifacts to
the next in memory (:class:`Workspace`) and reads back none of the files it
writes. Given identical inputs, config and seed, every produced artifact is
byte-identical across runs, and across a run and its stages run one by one.
Exit codes: 0 on success, 1 for validation errors, 2 for runtime failures.

One argument parser reads the command (a stage name, or ``run``) and every
``RunConfig`` flag, in any order. An invocation builds that parser and makes
the manifest text once each. Every stage runs in this one process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import (
    EvalRow,
    FEATURE_NAMES,
    emit_report,
    evaluate_user,
    feature_vector,
    write_qrels,
    write_trec_run,
)
from .graph import (
    NeighborhoodMode,
    build_catalog,
    export_graph,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)
from .ingest import (
    SyntheticConfig,
    SyntheticProfileConfig,
    csv_columns,
    generate_profiles,
    load_netflix,
    make_synthetic_dataset,
    merge_lastfm,
    row_width_problem,
    sample_users,
    write_summary,
)
from .metrics import MetricKind
from .recsys import (
    BaselineRecommender,
    Interaction,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)
from .rerank import (
    RecommendationList,
    SortOrder,
    evaluate_candidates,  # noqa: F401 - perfbench/worker.py probes through this name
    rerank,
)

log = logging.getLogger(__name__)

DATASETS = ("lastfm", "netflix", "synthetic")
RECOMMENDERS = ("external", "baseline")
METRICS = tuple(kind.value for kind in MetricKind)
ORDERS = tuple(order.value for order in SortOrder)
MODES = tuple(sorted(mode.value for mode in NeighborhoodMode))

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


def _setting(default, path, flag=None, *, choices=None, minimum=None, **extras):
    """A RunConfig field read from the dotted JSON ``path`` and, if given, ``flag``.

    ``validate_config`` checks the value against ``choices`` (each element,
    for a list) and ``minimum`` (None passes); the flag gets the choices too.
    ``extras`` go to ``add_argument``; ``type=int`` comes from the field's
    annotation.
    """
    metadata = dict(
        path=path, flag=flag, choices=choices, minimum=minimum, argparse=extras
    )
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
    # No effect: every stage runs in this process. Still validated and
    # recorded in the manifest, because the benchmark's configs set the key.
    # ROADMAP item 7 (benchmark change B2) deletes the field, its flag and
    # perfbench/run.py's "parallelism" key together.
    parallelism: int | None = _setting(None, "parallelism", "--parallelism", minimum=1)

    # dataset inputs
    events_path: str | None = _setting(None, "dataset.events", "--events")
    features_path: str | None = _setting(None, "dataset.features", "--features")
    genres_path: str | None = _setting(None, "dataset.genres", "--genres")
    titles_path: str | None = _setting(None, "dataset.titles", "--titles")

    # lastfm user sampling (disabled unless sample_users is set)
    sample_users: int | None = _setting(None, "dataset.sample_users", minimum=1)
    min_unique_tracks: int = _setting(100, "dataset.min_unique_tracks")

    # netflix synthetic profiles
    profile_count: int = _setting(88, "dataset.profiles.count", minimum=1)
    profile_min_items: int = _setting(5, "dataset.profiles.min_items")
    profile_max_items: int = _setting(55, "dataset.profiles.max_items")
    prune_degree_one: bool = _setting(True, "dataset.prune.degree_one")

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

    # rerank and evaluation
    metrics: list[str] = _setting(
        ["betweenness"], "rerank.metrics", "--metric",
        action="append", choices=METRICS, help="metric to rerank by; repeatable",
    )
    orders: list[str] = _setting(
        ["asc"], "rerank.orders", "--order",
        action="append", choices=ORDERS, help="sort order; repeatable",
    )
    mode: str = _setting(
        "closed", "rerank.mode", "--mode", choices=MODES, help="neighborhood mode"
    )
    top_n_candidates: int = _setting(100, "rerank.top_n", "--top-n", minimum=1)
    eval_k: int = _setting(10, "evaluation.k", "--k", minimum=1)

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
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        choices, minimum = f.metadata["choices"], f.metadata["minimum"]
        for v in value if isinstance(value, list) else [value]:
            if choices is not None and v not in choices:
                findings.append(f"{f.name} must be one of {choices}, got {v!r}")
        if isinstance(value, list):
            # a repeat would write its rankings twice under one name
            for v in dict.fromkeys(v for i, v in enumerate(value) if v in value[:i]):
                findings.append(f"{f.name} repeats {v!r}")
        if minimum is not None and value is not None and value < minimum:
            findings.append(f"{f.name} must be >= {minimum}, got {value}")
    if not cfg.metrics:
        findings.append("at least one metric is required")
    if not cfg.orders:
        findings.append("at least one sort order is required")
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


# ---------------------------------------------------------------------------
# workspace files


class Workspace:
    """The artifacts of one run directory, as files and as held values.

    Every artifact writer returns the value its reader parses from the file
    it wrote: the same order, the same float bits, read-only feature rows.
    :meth:`write` holds that value, and :meth:`read` returns it, or parses
    the file when nothing is held. ``run_pipeline`` passes one workspace
    through the four stages; a stage run alone starts with an empty one and
    reads the files. The manifest text, with the input hashes and the
    numeric environment, is also made once per workspace (:attr:`manifest`).

    A held value skips only the reader checks that cannot fail on what the
    run wrote:

    - field counts: ``export_graph`` refuses node ids and predicates with a
      tab or line break, ``write_recommendations`` ids with whitespace, and
      no other id holds one (every item is a catalog id, Last.fm users come
      from the lines and tab-separated fields of the events file, and the
      other users are generated);
    - repeated nodes, edges, items and feature rows: each comes from one
      graph or dict; and the profiles document, which ``json.dumps`` writes
      from histories of strings;
    - interaction counts, which ``Interaction`` keeps at 1 or more, and the
      run files' ranks, order, unique items and NaN scores, which
      ``RecommendationList`` enforces;
    - feature values: ``merge_lastfm`` range-checks them and drops all-zero
      rows, and ``make_synthetic_dataset`` draws them from [0.01, 0.99]
      and range-checks them as one array.

    Checks across artifacts, such as a base-run user without a profile, run
    on held values too.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.output_dir)
        self._held: dict[tuple[str, ...], object] = {}

    def write(self, writer, value, *names: str) -> None:
        self._held[names] = writer(value, *(self.out / name for name in names))

    def read(self, reader, *names: str):
        if names in self._held:
            return self._held[names]
        return reader(*(self.out / name for name in names))

    @cached_property
    def inputs(self) -> dict[str, str]:
        """The sha256 of every ``*_path`` input that exists, by path; taken
        once, for every manifest the workspace writes."""
        cfg = self.cfg
        paths = (getattr(cfg, f.name) for f in fields(cfg) if f.name.endswith("_path"))
        return {str(p): _sha256_file(p) for p in paths if p and Path(p).exists()}

    @cached_property
    def numeric(self) -> dict:
        """The numpy version, the BLAS library it was built against (null
        where ``numpy.show_config`` cannot report it) and the BLAS thread
        settings (null where unset), on which a metric's last bits may
        depend; taken once, like :attr:`inputs`."""
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            library = {"name": blas.get("name"), "version": blas.get("version")}
        except (TypeError, KeyError):
            library = None
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        return {"numpy": np.__version__, "blas": library, **{v: os.environ.get(v) for v in threads}}

    @cached_property
    def manifest(self) -> str:
        """The text of ``manifest.json``: the version, the config and its
        hash, :attr:`inputs` and :attr:`numeric`. Made once; written after
        every stage that completes."""
        manifest = {
            "version": __version__,
            "config_hash": config_hash(self.cfg),
            "config": self.cfg.to_dict(),
            "inputs": self.inputs,
            "numeric": self.numeric,
        }
        return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _write_interactions(interactions: list[Interaction], path) -> list[Interaction]:
    rows = sorted(interactions, key=lambda i: (i.user, i.item))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{row.user}\t{row.item}\t{row.count}\n" for row in rows)
    return rows


def _read_interactions(path) -> list[Interaction]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                try:
                    user, item, count = line.split("\t")
                    out.append(Interaction(user, item, int(count)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _write_profiles(
    profiles: dict[str, dict[str, list[str]]], path
) -> dict[str, dict[str, list[str]]]:
    payload = {"users": profiles}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return dict(sorted(profiles.items()))


def _read_profiles(path) -> dict[str, dict[str, list[str]]]:
    """Read the workspace profiles file; a bad document or entry is named by
    path and user."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if "users" not in data:
        raise ValueError(f"{path}: missing key 'users'")
    if not isinstance(data["users"], dict):
        raise ValueError(f"{path}: users must be an object")
    for user, profile in data["users"].items():
        if not isinstance(profile, dict) or "history" not in profile:
            raise ValueError(f"{path}: user {user!r}: missing key 'history'")
        history = profile["history"]
        if not isinstance(history, list) or not all(isinstance(i, str) for i in history):
            raise ValueError(f"{path}: user {user!r}: history must be a list of strings")
        if len(set(history)) < len(history):
            item = next(i for n, i in enumerate(history) if i in history[:n])
            raise ValueError(f"{path}: user {user!r}: repeated history item {item!r}")
    return data["users"]


def _write_features(
    features: dict[str, np.ndarray], path
) -> dict[str, np.ndarray]:
    items = sorted(features)
    rows = np.array([features[item] for item in items], dtype=float)
    rows.flags.writeable = False
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", *FEATURE_NAMES])
        # repr of Python floats: numpy 2 reprs np.float64 with its type name
        writer.writerows(
            [item, *map(repr, row)] for item, row in zip(items, rows.tolist())
        )
    return dict(zip(items, rows))


# the columns of a workspace features file
_FEATURE_COLUMNS = ("item", *FEATURE_NAMES)


def _read_features(path) -> dict[str, np.ndarray]:
    """Read a workspace features file in one pass, checking each row as it
    is read, so that the first bad line is named, with its item: a repeated
    item, then the row's shape, then its values (``feature_vector``, and no
    all-zero row)."""
    features: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns, width = csv_columns(reader, path, _FEATURE_COLUMNS)
        item_column, values_of = columns[0], itemgetter(*columns[1:])
        needed = max(columns) + 1
        for row in reader:
            if not row:
                continue
            item = row[item_column] if item_column < len(row) else None
            if item in first_line:
                problem = f"repeated item {item!r}, first on line {first_line[item]}"
            elif not needed <= len(row) <= width:
                shape = row_width_problem(row, _FEATURE_COLUMNS, columns, width)
                problem = f"item {item!r}: {shape}"
            else:
                first_line[item] = reader.line_num
                try:
                    features[item] = feature_vector(values_of(row))
                    if features[item].any():
                        continue
                    problem = f"item {item!r}: all-zero vector has no cosine distance"
                except ValueError as exc:
                    problem = f"item {item!r}: {exc}"
            raise ValueError(f"{path}:{reader.line_num}: {problem}")
    return features


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Write the workspace: the catalog, the interactions, the profiles, the
    features (Last.fm and synthetic) and the ingest summary.

    A Netflix user is one generated history over the (pruned) catalog, each
    item played once. Every dataset's profiles come from its interactions by
    one rule: a user's history is the sorted set of items they played. A
    dataset without features (Netflix) removes a features file left in the
    output directory by an earlier run.
    """
    ws = ws or Workspace(cfg)
    ws.out.mkdir(parents=True, exist_ok=True)

    if cfg.dataset == "netflix":
        triples, titles = load_netflix(cfg.titles_path)
        catalog = build_catalog(triples, nodes=titles)
        before = catalog.num_nodes
        if cfg.prune_degree_one:
            catalog = prune_graph(catalog)
        histories = generate_profiles(
            catalog,
            SyntheticProfileConfig(
                n_profiles=cfg.profile_count,
                min_items=cfg.profile_min_items,
                max_items=cfg.profile_max_items,
                seed=cfg.seed,
            ),
        )
        interactions = [
            Interaction(f"p{i:03d}", item, 1)
            for i, history in enumerate(histories)
            for item in sorted(history)
        ]
        features = {}
        summary = [
            {"stage": "load", "count": len(titles), "reason": "titles read"},
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
    else:
        if cfg.dataset == "synthetic":
            merged = make_synthetic_dataset(_synthetic_config(cfg))
        else:
            merged = merge_lastfm(cfg.events_path, cfg.features_path, cfg.genres_path)
        interactions = merged.interactions
        summary = list(merged.summary)
        if cfg.dataset == "lastfm" and cfg.sample_users is not None:
            kept = sample_users(
                interactions, cfg.sample_users, cfg.min_unique_tracks, cfg.seed
            )
            interactions = [i for i in interactions if i.user in kept]
            summary.append(
                {"stage": "sample", "count": len(kept), "reason": "users sampled"}
            )
        catalog = build_catalog(merged.triples)
        features = merged.features
        # the triples are in the catalog now; free them before export
        # builds the catalog the workspace holds
        del merged

    ws.write(export_graph, catalog, CATALOG_TRIPLES, CATALOG_NODES)
    ws.write(_write_interactions, interactions, INTERACTIONS)
    ws.write(_write_profiles, _profiles_from_interactions(interactions), PROFILES)
    if features:
        ws.write(_write_features, features, FEATURES)
    else:
        # evaluate reads features whenever the file exists
        (ws.out / FEATURES).unlink(missing_ok=True)
    write_summary(summary, ws.out / INGEST_SUMMARY)


def _profiles_from_interactions(
    interactions: list[Interaction],
) -> dict[str, dict[str, list[str]]]:
    histories: dict[str, set[str]] = {}
    for interaction in interactions:
        histories.setdefault(interaction.user, set()).add(interaction.item)
    return {
        user: {"history": sorted(items)}
        for user, items in sorted(histories.items())
    }


# user ids named in the one warning about users without external lists
_SKIPPED_SHOWN = 5


def stage_recommend(cfg: RunConfig, ws: Workspace | None = None) -> None:
    ws = ws or Workspace(cfg)
    profiles = ws.read(_read_profiles, PROFILES)
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
        matrix = scale_ratings(ws.read(_read_interactions, INTERACTIONS))
        model = BaselineRecommender().fit(matrix)
        selected = {
            user: model.recommend(user, n=cfg.top_n_candidates)
            for user in sorted(profiles)
            if matrix.has_user(user)
        }
    ws.write(write_recommendations, selected, BASE_RUN)


def _base_run_users(ws: Workspace) -> list[tuple[str, list[str], RecommendationList]]:
    """(user, history, base list) for every base-run user, in user order."""
    profiles = ws.read(_read_profiles, PROFILES)
    base_lists = ws.read(load_external_recommendations, BASE_RUN)
    users = []
    for user in sorted(base_lists):
        if user not in profiles:
            raise ValueError(
                f"{ws.out / BASE_RUN}: user {user!r} has no profile in {PROFILES}"
            )
        users.append((user, profiles[user]["history"], base_lists[user]))
    return users


def stage_rerank(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Rerank every base-run user's list and write one run file per
    (metric, order).

    One :func:`~kgrerank.rerank.rerank` call scores all users, in user
    order, and cuts them into memory-bounded groups; each profile is induced
    only when ``rerank`` reaches its user.
    """
    ws = ws or Workspace(cfg)
    catalog = ws.read(read_graph, CATALOG_TRIPLES, CATALOG_NODES)
    users = _base_run_users(ws)
    kinds = [MetricKind(name) for name in cfg.metrics]
    orders = [SortOrder(order) for order in cfg.orders]
    ranked = rerank(
        catalog,
        (
            (induce_profile_subgraph(catalog, history, user=user), recs)
            for user, history, recs in users
        ),
        kinds, orders, NeighborhoodMode(cfg.mode), cfg.top_n_candidates,
    )

    for kind in kinds:
        for order in orders:
            lists = {}
            for (user, _, _), by_pair in zip(users, ranked):
                items = [e.item for e in by_pair[kind, order]]
                n = len(items)
                # positional scores keep the run format's non-increasing invariant
                lists[user] = RecommendationList(
                    user=user,
                    items=tuple(
                        (item, float(n - i)) for i, item in enumerate(items)
                    ),
                )
            ws.write(
                write_recommendations, lists, rerank_run_name(kind.value, order.value)
            )


def stage_evaluate(cfg: RunConfig, ws: Workspace | None = None) -> None:
    ws = ws or Workspace(cfg)
    out = ws.out
    users = _base_run_users(ws)
    features = (
        ws.read(_read_features, FEATURES) if (out / FEATURES).exists() else None
    )
    k = cfg.eval_k
    reranked = {
        (metric_name, order_name): ws.read(
            load_external_recommendations, rerank_run_name(metric_name, order_name)
        )
        for metric_name in cfg.metrics
        for order_name in cfg.orders
    }

    rows: list[EvalRow] = []
    for user, history, base in users:
        lists = [("base", "-", base)] + [
            (*combo, by_user[user]) for combo, by_user in reranked.items()
            if user in by_user
        ]
        try:
            rows += evaluate_user(user, history, lists, features, k)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"user {user!r}: {exc.args[0]}") from exc

    emit_report(rows, out / REPORT, out / REPORT_SUMMARY, k)
    write_qrels({user: base for user, _, base in users}, k, out / QRELS)
    for (metric_name, order_name), by_user in sorted(reranked.items()):
        write_trec_run(
            {user: lst.item_ids() for user, lst in by_user.items()},
            tag=f"{metric_name}_{order_name}",
            path=out / trec_run_name(metric_name, order_name),
        )


_STAGES = (
    ("ingest", stage_ingest),
    ("recommend", stage_recommend),
    ("rerank", stage_rerank),
    ("evaluate", stage_evaluate),
)


def _run_stage(name: str, cfg: RunConfig, ws: Workspace | None = None) -> None:
    ws = ws or Workspace(cfg)
    ws.out.mkdir(parents=True, exist_ok=True)
    flag = ws.out / STALE_FLAG
    flag.write_text(f"stage {name} in progress; outputs may be partial\n")
    try:
        dict(_STAGES)[name](cfg, ws)
    except Exception as exc:
        raise PipelineError(f"stage {name} failed: {exc}") from exc
    flag.unlink()
    (ws.out / MANIFEST).write_text(ws.manifest, encoding="utf-8")


def run_pipeline(cfg: RunConfig) -> None:
    """Execute all stages in order, handing each stage's artifacts to the
    next in one :class:`Workspace`; artifacts land in cfg.output_dir."""
    ws = Workspace(cfg)
    for name, _ in _STAGES:
        _run_stage(name, cfg, ws)


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
        extras = {"choices": f.metadata["choices"], **f.metadata["argparse"]}
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
    parser.add_argument(
        "command", choices=[*dict(_STAGES), "run"],
        help="one stage, or run for all stages in order",
    )
    _add_common_arguments(parser)

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

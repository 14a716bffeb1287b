"""Outside-in span tracer for one ``kgrerank run`` process.

The tracer replaces public functions with timing wrappers at the place where
they are called (for example ``kgrerank.cli.evaluate_candidates``, the name
the CLI looks up, not ``kgrerank.rerank.evaluate_candidates``), so the
production code path is what gets measured and no program file changes.

Each span records (name, start, end, parent, user, attrs). Spans stay in
memory and are written out once, by :meth:`Tracer.write`. Spans from
``probe_from`` on belong to work done after the timed run (worker.py's
probe) and are kept apart from the run's. A target that no longer exists is
recorded in the install report with a reason; the metrics that depend on it
are then reported as unavailable instead of failing the run.

The tracer is single-threaded by design: the traced run uses one worker, so
every call happens in this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> [(owner, attribute)] wrapped to produce it; owner is a module
# path or a module path plus a class name
SPAN_TARGETS: dict[str, list[tuple[str, str]]] = {
    "cli.stage": [
        ("kgrerank.cli", "stage_ingest"),
        ("kgrerank.cli", "stage_recommend"),
        ("kgrerank.cli", "stage_rerank"),
        ("kgrerank.cli", "stage_evaluate"),
    ],
    "ingest.load": [
        ("kgrerank.cli", "make_synthetic_dataset"),
        ("kgrerank.cli", "merge_lastfm"),
        ("kgrerank.cli", "sample_users"),
    ],
    "graph.build": [("kgrerank.cli", "build_catalog")],
    "graph.export": [("kgrerank.cli", "export_graph")],
    "graph.read": [("kgrerank.cli", "read_graph")],
    "graph.induce": [("kgrerank.cli", "induce_profile_subgraph")],
    "graph.delta": [("kgrerank.rerank", "extension_delta")],
    "graph.view": [("kgrerank.rerank", "OverlayView")],
    "metrics.compute": [("kgrerank.rerank", "compute_metric")],
    "metrics.collapse": [
        ("kgrerank.metrics", "centrality_to_shares"),
        ("kgrerank.metrics", "hhi_normalized"),
    ],
    "rerank.baseline": [("kgrerank.cli", "baseline_metric")],
    "rerank.evaluate": [("kgrerank.cli", "evaluate_candidates")],
    "rerank.rank": [("kgrerank.cli", "rank_candidates")],
    "recsys.fit": [("kgrerank.recsys:BaselineRecommender", "fit")],
    "recsys.recommend": [("kgrerank.recsys:BaselineRecommender", "recommend")],
    "recsys.runfile_io": [
        ("kgrerank.cli", "write_recommendations"),
        ("kgrerank.cli", "load_external_recommendations"),
    ],
    "evaluation.ild": [("kgrerank.cli", "ild")],
    "evaluation.unexpectedness": [("kgrerank.cli", "unexpectedness")],
    "evaluation.ndcg": [("kgrerank.cli", "ndcg_at_k")],
    "evaluation.write": [
        ("kgrerank.cli", "emit_report"),
        ("kgrerank.cli", "write_qrels"),
        ("kgrerank.cli", "write_trec_run"),
    ],
}

# counter name -> (owner, attribute); counted without a span, because these
# calls are too many and too short for a span each
COUNTER_TARGETS: dict[str, tuple[str, str]] = {
    "evaluation.cosine_calls": ("kgrerank.evaluation", "cosine_distance"),
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


# -- attribute hooks: run after the span has ended, so they cost no span time


def _stage_attrs(target, args, kwargs, result):
    return {"stage": target[1].removeprefix("stage_")}


def _ingest_attrs(target, args, kwargs, result):
    stats = getattr(result, "stats", None)
    if stats is None:  # sample_users returns the kept user ids
        return {"sampled_users": len(result)}
    return {"events": stats.events, "tracks": stats.tracks}


def _profile_attrs(target, args, kwargs, result):
    return {"nodes": result.graph.num_nodes, "edges": result.graph.num_edges}


def _delta_attrs(target, args, kwargs, result):
    added = {node.id for node in result.nodes}
    touched = {
        end for source, _, dest in result.edges for end in (source, dest)
        if end not in added
    }
    return {"added": len(added), "touched": len(touched)}


def _metric_attrs(target, args, kwargs, result):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return {"metric": kind.value}


def _evaluate_attrs(target, args, kwargs, result):
    values = sorted(e.metric_value.value for e in result)
    ties = sum(1 for a, b in zip(values, values[1:]) if a == b)
    kind = kwargs["metric"] if "metric" in kwargs else args[3]
    return {"metric": kind.value, "ties": ties, "pairs": max(0, len(values) - 1)}


_ATTRS = {
    "cli.stage": _stage_attrs,
    "ingest.load": _ingest_attrs,
    "graph.induce": _profile_attrs,
    "graph.delta": _delta_attrs,
    "metrics.compute": _metric_attrs,
    "rerank.evaluate": _evaluate_attrs,
}


def _user_of_induce(args, kwargs):
    return kwargs.get("user", args[2] if len(args) > 2 else None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        # "owner.attribute" -> None when wrapped, else why it was not
        self.installed: dict[str, str | None] = {}
        # index of the first span made after the timed run
        self.probe_from: int | None = None
        self._stack: list[int] = []
        self._user: str | None = None

    def install(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                self._wrap_span(name, target)
        for name, target in COUNTER_TARGETS.items():
            self._wrap_counter(name, target)
        # run_pipeline dispatches through the _STAGES table, which holds the
        # stage functions themselves; point it at the wrappers
        cli = _resolve("kgrerank.cli")
        stages = getattr(cli, "_STAGES", None)
        if stages is not None:
            cli._STAGES = tuple(
                (stage, getattr(cli, fn.__name__, fn)) for stage, fn in stages
            )

    def _lookup(self, target):
        """(owner, function) for a target, or (None, None) with the reason
        recorded in the install report."""
        key = f"{target[0].replace(':', '.')}.{target[1]}"
        try:
            owner = _resolve(target[0])
        except (ImportError, AttributeError) as exc:
            self.installed[key] = f"cannot resolve {target[0]}: {exc}"
            return None, None
        fn = getattr(owner, target[1], None)
        self.installed[key] = None if fn else f"{target[0]} has no attribute {target[1]}"
        return owner, fn

    def _wrap_span(self, name: str, target) -> None:
        owner, fn = self._lookup(target)
        if fn is None:
            return
        spans, stack = self.spans, self._stack
        attrs_hook = _ATTRS.get(name)
        sets_user = name == "graph.induce"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sets_user:
                tracer._user = _user_of_induce(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer._user, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_hook is not None:
                try:
                    span[5] = attrs_hook(target, args, kwargs, result)
                except Exception as exc:  # a changed result shape must not stop the run
                    span[5] = {"attrs_error": f"{type(exc).__name__}: {exc}"}
            return result

        setattr(owner, target[1], wrapper)

    def _wrap_counter(self, name: str, target) -> None:
        owner, fn = self._lookup(target)
        if fn is None:
            return
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, target[1], wrapper)

    def write(self, path) -> None:
        """One header line (install report, counters, probe start), then one
        span per line."""
        header = {
            "installed": self.installed,
            "counters": self.counters,
            "probe_from": len(self.spans) if self.probe_from is None else self.probe_from,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Per-layer metrics computed from the spans of a traced run.

Layers are the package modules: ``cli`` (stage orchestration, artifact I/O,
the process pool), ``ingest``, ``graph``, ``recsys``, ``rerank``, ``metrics``
and ``evaluation``. Each metric below names the end-to-end figure it should
move; see BENCHMARK.json for the units and directions.

Per-call timings come as ``<name>``, the median, ``<name>.n``, the sample
count, and, where every workload gives more than ten samples,
``<name>.tail``: the highest percentile with at least ten samples beyond it
(the 11th largest sample, percentile 100 * (n - 10) / n).

The kernel timings of a metric the workload does not configure come from
the probe that follows the timed run (worker.py): the same wrapped
``evaluate_candidates`` call on a fixed sample of the run's candidates. Its
spans count toward nothing else; ``metrics.<m>.calls`` counts the run's
calls only.

A metric that cannot be computed, because its wrapped function has gone or
was never called, raises ``Unavailable`` with the reason; run.py reports it
as 0 and prints the reason.
"""

from __future__ import annotations

import json
import math
import statistics
from collections.abc import Callable

from tracer import COUNTER_TARGETS, SPAN_TARGETS

ALL_METRICS = ("betweenness", "closeness", "pagerank", "in_degree", "node_count")
SCALAR_METRICS = ("node_count",)
STAGES = ("ingest", "recommend", "rerank", "evaluate")
# spans that make up one user's rerank task
USER_TASK_SPANS = ("graph.induce", "rerank.baseline", "rerank.evaluate", "rerank.rank")


class Unavailable(Exception):
    """The metric has no value in this trace; the message says why."""


class Trace:
    def __init__(self, path, configured_metrics) -> None:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            rows = [json.loads(line) for line in fh]
        self.installed: dict[str, str | None] = header["installed"]
        self.counters: dict[str, int] = header["counters"]
        self.configured = tuple(configured_metrics)
        # [name, start, end, parent, user, attrs]
        self.rows = rows
        # spans of the timed run, and of the probe after it
        self.by_name: dict[str, list[int]] = {}
        self.probe_by_name: dict[str, list[int]] = {}
        self.children: dict[int, list[int]] = {}
        probe_from = header.get("probe_from", len(rows))
        for index, (name, _, _, parent, _, _) in enumerate(rows):
            table = self.by_name if index < probe_from else self.probe_by_name
            table.setdefault(name, []).append(index)
            self.children.setdefault(parent, []).append(index)

    def spans(self, name: str, probe: bool = False) -> list[int]:
        found = (self.probe_by_name if probe else self.by_name).get(name)
        if found:
            return found
        targets = [f"{owner.replace(':', '.')}.{attr}" for owner, attr in SPAN_TARGETS[name]]
        reasons = [self.installed.get(t) for t in targets]
        if all(reasons):
            raise Unavailable("; ".join(reasons))
        raise Unavailable(f"no call of {' or '.join(targets)} was recorded")

    def duration(self, index: int) -> float:
        row = self.rows[index]
        return row[2] - row[1]

    def attr(self, index: int, key: str):
        attrs = self.rows[index][5] or {}
        if key not in attrs:
            raise Unavailable(
                f"{self.rows[index][0]} span has no {key!r}: "
                f"{attrs.get('attrs_error', 'not recorded')}"
            )
        return attrs[key]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.spans(name))

    def child_time(self, index: int) -> float:
        return sum(self.duration(c) for c in self.children.get(index, ()))

    def candidate_computes(self, metric: str) -> list[int]:
        """compute_metric spans for ``metric`` made while evaluating
        candidates: in the run if the workload configures it, else in the probe."""
        probe = metric not in self.configured
        evaluate = set(self.spans("rerank.evaluate", probe))
        found = [
            i for i in self.spans("metrics.compute", probe)
            if self.rows[i][3] in evaluate and self.attr(i, "metric") == metric
        ]
        if not found:
            raise Unavailable(f"no candidate evaluation of {metric} was recorded")
        return found


def _tail(samples: list[float]) -> float:
    if len(samples) <= 10:
        raise Unavailable(f"only {len(samples)} samples; a tail needs more than 10")
    return sorted(samples)[-11]


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


Spec = tuple[str, str, str, Callable[[Trace], float]]


def _per_call(name: str, unit: str, scale: float, samples: Callable[[Trace], list[float]],
              tail: bool = True) -> list[Spec]:
    """Median, tail and count of a per-call timing. Timings taken once per
    user or per list have too few samples on the small workloads for a tail
    and get ``tail=False``."""
    specs = [(name, unit, "lower", lambda t: statistics.median(samples(t)) * scale)]
    if tail:
        specs.append((f"{name}.tail", unit, "lower", lambda t: _tail(samples(t)) * scale))
    specs.append((f"{name}.n", "count", "higher", lambda t: float(len(samples(t)))))
    return specs


def _durations(name: str) -> Callable[[Trace], list[float]]:
    return lambda t: [t.duration(i) for i in t.spans(name)]


def _stage(trace: Trace, stage: str) -> float:
    found = [i for i in trace.spans("cli.stage") if trace.attr(i, "stage") == stage]
    if not found:
        raise Unavailable(f"stage {stage} was not recorded")
    return sum(trace.duration(i) for i in found)


def _io(trace: Trace) -> float:
    return sum(trace.duration(i) - trace.child_time(i) for i in trace.spans("cli.stage"))


def _ingest_count(key: str) -> Callable[[Trace], float]:
    def count(trace: Trace) -> float:
        loads = [i for i in trace.spans("ingest.load") if key in (trace.rows[i][5] or {})]
        if not loads:
            raise Unavailable(f"no ingest load span carries {key!r}")
        return float(sum(trace.attr(i, key) for i in loads))

    return count


def _profile(key: str, stat: Callable) -> Callable[[Trace], float]:
    return lambda t: float(stat([t.attr(i, key) for i in t.spans("graph.induce")]))


def _delta_nodes_mean(trace: Trace) -> float:
    return statistics.fmean(trace.attr(i, "added") for i in trace.spans("graph.delta"))


def _single_attach_share(trace: Trace) -> float:
    spans = trace.spans("graph.delta")
    return sum(1 for i in spans if trace.attr(i, "touched") == 1) / len(spans)


def _kernel(metric: str) -> Callable[[Trace], list[float]]:
    return lambda t: [t.duration(i) - t.child_time(i) for i in t.candidate_computes(metric)]


def _collapse(metric: str) -> Callable[[Trace], list[float]]:
    return lambda t: [t.child_time(i) for i in t.candidate_computes(metric)]


def _calls(metric: str) -> Callable[[Trace], float]:
    return lambda t: float(
        sum(1 for i in t.spans("metrics.compute") if t.attr(i, "metric") == metric)
    )


def _user_task_ms(trace: Trace) -> list[float]:
    per_user: dict[str, float] = {}
    for name in USER_TASK_SPANS:
        for i in trace.spans(name):
            user = trace.rows[i][4]
            per_user[user] = per_user.get(user, 0.0) + trace.duration(i)
    return [v * 1e3 for v in per_user.values()]


def _tie_share(trace: Trace) -> float:
    spans = trace.spans("rerank.evaluate")
    pairs = sum(trace.attr(i, "pairs") for i in spans)
    if not pairs:
        raise Unavailable("no list had two or more candidates")
    return sum(trace.attr(i, "ties") for i in spans) / pairs


def _counter(name: str) -> Callable[[Trace], float]:
    def count(trace: Trace) -> float:
        if name not in trace.counters:
            owner, attr = COUNTER_TARGETS[name]
            raise Unavailable(trace.installed.get(f"{owner}.{attr}") or "not counted")
        return float(trace.counters[name])

    return count


def _sum_of(*names: str) -> Callable[[Trace], float]:
    return lambda t: sum(t.total(name) for name in names)


SPECS: list[Spec] = [
    # cli: stage spans move run_s everywhere in proportion to their share;
    # io (stage self time) matters most on rich-many-short
    *((f"cli.{stage}_s", "s", "lower", lambda t, s=stage: _stage(t, s)) for stage in STAGES),
    ("cli.io_s", "s", "lower", _io),
    # ingest: moves run_s on rich-many-short
    ("ingest.load_s", "s", "lower", _sum_of("ingest.load")),
    ("ingest.events", "count", "higher", _ingest_count("events")),
    ("ingest.tracks", "count", "higher", _ingest_count("tracks")),
    # graph: per-candidate overhead moves run_s on synth-h24 and
    # rich-many-short, barely on rich-h100
    ("graph.build_s", "s", "lower", _sum_of("graph.build")),
    ("graph.export_s", "s", "lower", _sum_of("graph.export")),
    ("graph.read_s", "s", "lower", _sum_of("graph.read")),
    *_per_call("graph.induce_ms_per_user", "ms", 1e3, _durations("graph.induce"), tail=False),
    *_per_call("graph.delta_us_per_cand", "us", 1e6, _durations("graph.delta")),
    *_per_call("graph.view_us_per_cand", "us", 1e6, _durations("graph.view")),
    ("graph.profile_nodes_p50", "count", "lower", _profile("nodes", statistics.median)),
    ("graph.profile_nodes_max", "count", "lower", _profile("nodes", max)),
    ("graph.profile_edges_p50", "count", "lower", _profile("edges", statistics.median)),
    ("graph.delta_nodes_mean", "count", "lower", _delta_nodes_mean),
    ("graph.single_attach_share", "ratio", "higher", _single_attach_share),
]
# metrics: betweenness and closeness kernels move run_s and evals_per_s most
# on rich-h100, then synth-h24, never rich-many-short; PageRank mainly
# rich-many-short
for _m in ALL_METRICS:
    SPECS += _per_call(f"metrics.{_m}.kernel_ms_per_cand", "ms", 1e3, _kernel(_m))
    if _m not in SCALAR_METRICS:
        # the collapse has the kernel's sample count, so no .n of its own
        SPECS += _per_call(f"metrics.{_m}.collapse_us_per_cand", "us", 1e6, _collapse(_m))[:2]
    SPECS.append((f"metrics.{_m}.calls", "count", "lower", _calls(_m)))
SPECS += [
    # rerank: user_p95 moves run_s on rich-many-short at two workers, where
    # the slowest user tasks finish last; tie_share warns of ranking changes
    *_per_call("rerank.baseline_ms", "ms", 1e3, _durations("rerank.baseline"), tail=False),
    *_per_call("rerank.evaluate_ms_per_list", "ms", 1e3, _durations("rerank.evaluate"), tail=False),
    *_per_call("rerank.rank_us_per_list", "us", 1e6, _durations("rerank.rank")),
    ("rerank.user_p50_ms", "ms", "lower", lambda t: _percentile(_user_task_ms(t), 0.5)),
    ("rerank.user_p95_ms", "ms", "lower", lambda t: _percentile(_user_task_ms(t), 0.95)),
    ("rerank.tie_share", "ratio", "lower", _tie_share),
    # recsys: moves run_s on rich-many-short
    ("recsys.fit_s", "s", "lower", _sum_of("recsys.fit")),
    *_per_call("recsys.recommend_ms_per_user", "ms", 1e3, _durations("recsys.recommend"), tail=False),
    ("recsys.runfile_io_s", "s", "lower", _sum_of("recsys.runfile_io")),
    # evaluation: about two thirds of run_s on rich-many-short
    ("evaluation.ild_s", "s", "lower", _sum_of("evaluation.ild")),
    ("evaluation.unexpectedness_s", "s", "lower", _sum_of("evaluation.unexpectedness")),
    ("evaluation.ndcg_s", "s", "lower", _sum_of("evaluation.ndcg")),
    ("evaluation.write_s", "s", "lower", _sum_of("evaluation.write")),
    ("evaluation.cosine_calls", "count", "lower", _counter("evaluation.cosine_calls")),
]
# computed by run.py from a traced and an untraced run, not from spans
OVERHEAD = ("trace.overhead_share", "ratio", "lower")


def layer_metrics(trace: Trace) -> dict[str, tuple[float | None, str | None]]:
    """name -> (value, None) or (None, reason) for every spec."""
    out = {}
    for name, _, _, fn in SPECS:
        try:
            value = float(fn(trace))
            out[name] = (value, None) if math.isfinite(value) else (None, f"not finite: {value}")
        except Unavailable as exc:
            out[name] = (None, str(exc))
        except Exception as exc:  # a changed program must not stop the report
            out[name] = (None, f"{type(exc).__name__}: {exc}")
    return out

"""One benchmark step in a fresh interpreter; run.py starts it.

    worker.py setup <config.json>
    worker.py run <config.json> [<spans.jsonl>]
    worker.py oracle <run-dir>

``setup`` times what every invocation pays before its first stage: importing
kgrerank, loading the config file and validating it. ``run`` does the same
set-up, then times ``kgrerank.cli.main(["run", ...])``; given a spans path it
installs the tracer first, and after the timed run it also times, on a
small probe sample, every metric the workload does not configure (see
``probe``); it writes the spans there at the end. Both also
time the host-speed reference job of ``calibrate.py`` next to what they
time. ``oracle`` compares sampled candidate metric values with the
brute-force oracles in ``tests/oracles.py``. Each mode prints one JSON
object on stdout. The checkout's ``src`` directory must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def setup(config_path):
    start = time.perf_counter()
    from kgrerank import cli

    cfg = cli.RunConfig.from_file(config_path)
    findings = cli.validate_config(cfg)
    elapsed = time.perf_counter() - start
    if findings:
        raise SystemExit(f"invalid benchmark config: {findings}")
    return cli, elapsed


def run(config_path, spans_path=None) -> dict:
    cli, setup_s = setup(config_path)
    import calibrate

    before = calibrate.reference_seconds()
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(["run", "--config", str(config_path)])
    run_s = time.perf_counter() - start
    after = calibrate.reference_seconds()
    if tracer is not None:
        if code == 0:
            tracer.probe_from = len(tracer.spans)
            probe(cli, json.loads(Path(config_path).read_text(encoding="utf-8")))
        tracer.write(spans_path)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "reference_s": (before + after) / 2.0,
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
        # pool worker, resident at the same time as the run process
        "peak_rss_mb": (own + pool) / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }


# ---------------------------------------------------------------------------
# probe of the metrics a workload does not configure

PROBE_USERS = 4
# more than 20, so that the tail (11th largest sample) lies above the median
PROBE_CANDIDATES = 24


def probe(cli, config: dict) -> None:
    """Evaluate every metric the config leaves out on about PROBE_CANDIDATES
    base-run candidates of the first PROBE_USERS users, through the wrapped
    ``cli.evaluate_candidates``, so that the traced run reports a kernel
    timing for every metric on every workload. Runs after the timed run."""
    from kgrerank import MetricKind, RecommendationList, induce_profile_subgraph
    from perlayer import ALL_METRICS

    missing = [m for m in ALL_METRICS if m not in config["rerank"]["metrics"]]
    if not missing:
        return
    catalog, profiles, base = _load_run(config["output_dir"])
    users = sorted(base)[:PROBE_USERS]
    per_user = -(-PROBE_CANDIDATES // len(users))
    for user in users:
        sg = induce_profile_subgraph(catalog, profiles[user]["history"], user=user)
        recs = RecommendationList(user=user, items=tuple(base[user][:per_user]))
        for name in missing:
            cli.evaluate_candidates(catalog, sg, recs, MetricKind.from_name(name))


def _load_run(run_dir):
    """(catalog, profiles, base lists) of a finished run directory."""
    from kgrerank import read_graph

    run_dir = Path(run_dir)
    catalog = read_graph(run_dir / "catalog_triples.tsv", run_dir / "catalog_nodes.tsv")
    profiles = json.loads((run_dir / "profiles.json").read_text())["users"]
    base: dict[str, list[tuple[str, float]]] = {}
    for line in (run_dir / "base_run.txt").read_text().splitlines():
        user, _, item, score = line.split()
        base.setdefault(user, []).append((item, float(score)))
    return catalog, profiles, base


# ---------------------------------------------------------------------------
# oracle spot-check

ORACLE_USERS = 3
ORACLE_CANDIDATES = 8
# PageRank stops at an L1 change of 1e-9, so its HHI is good to about that
ORACLE_TOLERANCE = {"betweenness": 1e-9, "closeness": 1e-9, "pagerank": 1e-7}


def _normalized_hhi(scores: dict) -> float:
    values = [float(scores[k]) for k in sorted(scores)]
    total = sum(values)
    n = len(values)
    shares = [v / total for v in values] if total else [1.0 / n] * n
    if n == 1:
        return 1.0
    raw = sum(s * s for s in shares)
    return min(1.0, max(0.0, (raw - 1.0 / n) / (1.0 - 1.0 / n)))


def _induced(catalog_edges, nodes):
    from kgrerank import Multigraph, Node

    g = Multigraph()
    for node in sorted(nodes):
        g.add_node(Node(node, "other"))
    for source, predicate, target in catalog_edges:
        if source in nodes and target in nodes:
            g.add_edge(source, predicate, target)
    return g


def oracle(run_dir) -> dict:
    """Check sampled candidates' metric values against tests/oracles.py.

    The oracle side builds each extended profile graph independently, as the
    catalog subgraph induced by the history, its neighbours and the
    candidate's closed neighbourhood. The library side is the production
    ``evaluate_candidates`` call on the induced profile.
    """
    sys.path.insert(0, "tests")
    import oracles
    from kgrerank import MetricKind, RecommendationList, induce_profile_subgraph
    from kgrerank.rerank import evaluate_candidates

    catalog, profiles, base = _load_run(run_dir)
    edges = list(catalog.edges())
    adjacency: dict[str, set[str]] = {}
    for source, _, target in edges:
        adjacency.setdefault(source, set()).add(target)
        adjacency.setdefault(target, set()).add(source)

    brute = {
        "betweenness": oracles.brute_betweenness,
        "closeness": oracles.brute_harmonic_closeness,
        "pagerank": oracles.dense_pagerank,
    }
    attempted, mismatches = 0, []
    for user in sorted(base)[:ORACLE_USERS]:
        history = profiles[user]["history"]
        profile_nodes = set(history).union(*(adjacency.get(h, ()) for h in history))
        sg = induce_profile_subgraph(catalog, history, user=user)
        recs = RecommendationList(user=user, items=tuple(base[user][:ORACLE_CANDIDATES]))
        for name, oracle_fn in brute.items():
            evaluations = evaluate_candidates(catalog, sg, recs, MetricKind.from_name(name))
            for evaluation in evaluations:
                item = evaluation.item
                extended = _induced(edges, profile_nodes | {item} | adjacency.get(item, set()))
                expected = _normalized_hhi(oracle_fn(extended))
                attempted += 1
                got = evaluation.metric_value.value
                if abs(got - expected) > ORACLE_TOLERANCE[name]:
                    mismatches.append(f"{user} {item} {name}: {got!r} != oracle {expected!r}")
    return {"attempted": attempted, "failed": len(mismatches), "mismatches": mismatches}


def main(argv) -> int:
    mode, path, *rest = argv
    if mode == "setup":
        _, elapsed = setup(path)
        import calibrate

        result = {"setup_s": elapsed, "reference_s": calibrate.reference_seconds()}
    elif mode == "run":
        result = run(path, rest[0] if rest else None)
    elif mode == "oracle":
        result = oracle(path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""kgrerank benchmark: named ``kgrerank run`` workloads, timed end to end.

    python3 perfbench/run.py --workload synth-h24 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` directory and works under ``.perfbench_work/``.

Every workload is a batch job in a closed loop: the benchmark starts one
fresh interpreter per ``kgrerank run`` and the next only after the previous
one has ended, until ``--seconds`` are used up. Inputs come from ``--seed``
alone. With ``--trace 0`` it reports the end-to-end metrics as medians over
the runs, with times rescaled to a fixed host speed (``calibrate.py``); with
``--trace 1`` it alternates untraced and traced runs at one worker and
reports the per-layer metrics of ``perlayer.py``; one that cannot be
measured reads 0, with the reason on a ``# unavailable`` line. Every run's
outputs are checked (``checks.py``); on synth-h24 sampled metric values are
also compared with the brute-force oracles in ``tests/oracles.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
record the machine, the input sizes and the artifact digests. ``--workload
all`` runs every workload in turn and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import NOMINAL_S
from checks import check_run
from corpus import CorpusSpec, UserGroup, generate_corpus
from perlayer import OVERHEAD, SPECS, Trace, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

# digests in digests.json are recorded for this seed
DEFAULT_SEED = 1
ORDERS = ("asc", "desc")
# set-up is short and noisy: take the median of this many fresh interpreters
SETUP_SAMPLES = 11
# every child process is stopped by this many seconds after the start, so
# that one invocation ends within three minutes whatever the program does
TIME_LIMIT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    metrics: tuple[str, ...]
    top_n: int
    parallelism: int
    synthetic_users: int = 0
    corpus: CorpusSpec | None = None
    sample_users: int = 0
    min_unique_tracks: int = 100
    oracle: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP baseline shape: 50-node star profiles, where every
        # candidate attaches through one existing node and almost all values
        # tie. It exercises a single-attach fast path and exposes tie order.
        # The baseline recommender only proposes items other users rated, so
        # six users leave each at least about 60 candidates; taking 40 keeps
        # the work per run the same for every seed.
        Workload(
            name="synth-h24",
            why="built-in synthetic star profiles (h=24, 40 candidates): "
            "single-attach candidates, tied values, per-candidate overhead",
            metrics=("betweenness", "closeness", "pagerank", "in_degree"),
            top_n=40,
            parallelism=1,
            synthetic_users=6,
            oracle=True,
        ),
        # About 220-node profiles with cycles: the all-sources betweenness and
        # closeness kernels do almost all the work, few candidates attach
        # through one node and few values tie. Histories hold exactly 100
        # tracks (the paper's threshold); the 60 shorter histories only shape
        # the catalog and its popularity. Three users average out how much
        # profile sizes vary between seeds, and 8 candidates each keep one run
        # near three seconds, so that a 30-second window holds several.
        Workload(
            name="rich-h100",
            why="Last.fm-format corpus, histories of 100 tracks: profiles with "
            "cycles where betweenness and closeness kernels dominate",
            metrics=("betweenness", "closeness", "pagerank"),
            top_n=8,
            parallelism=1,
            corpus=CorpusSpec(groups=(UserGroup(6, 100, 100), UserGroup(60, 20, 60))),
            sample_users=3,
            min_unique_tracks=100,
        ),
        # Cheap metrics over many short profiles: per-user fixed costs, the
        # process pool, the recommender, artifact I/O and evaluation dominate.
        # No betweenness or closeness runs here, so an engine change for
        # them predicts no change.
        Workload(
            name="rich-many-short",
            why="many short histories, cheap metrics, two workers: per-user "
            "costs, pool, recommender, artifact I/O and evaluation dominate",
            metrics=("pagerank", "in_degree", "node_count"),
            top_n=20,
            parallelism=2,
            corpus=CorpusSpec(groups=(UserGroup(40, 20, 60),)),
            sample_users=40,
            min_unique_tracks=20,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs


def prepare(workload: Workload, seed: int, work: Path) -> tuple[dict, dict]:
    """Generate the inputs and write the run configs; return (configs, sizes)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config: dict = {
        "recommender": "baseline",
        "rerank": {
            "metrics": list(workload.metrics),
            "orders": list(ORDERS),
            "mode": "closed",
            "top_n": workload.top_n,
        },
        "evaluation": {"k": 10},
        "seed": seed,
        "output_dir": str(work / "out"),
    }
    if workload.corpus is None:
        sizes = {"tracks": 200, "users": workload.synthetic_users, "history": 24}
        config["dataset"] = {
            "kind": "synthetic",
            "synthetic": {
                "tracks": sizes["tracks"],
                "users": sizes["users"],
                "history": sizes["history"],
            },
        }
    else:
        inputs = work / "inputs"
        sizes = generate_corpus(workload.corpus, seed, inputs)
        sizes["bytes"] = sum(p.stat().st_size for p in inputs.iterdir())
        sizes["sampled_users"] = workload.sample_users
        config["dataset"] = {
            "kind": "lastfm",
            "events": str(inputs / "events.tsv"),
            "features": str(inputs / "features.csv"),
            "genres": str(inputs / "genres.csv"),
            "sample_users": workload.sample_users,
            "min_unique_tracks": workload.min_unique_tracks,
        }
    paths = {}
    for label, parallelism in (("run", workload.parallelism), ("serial", 1)):
        paths[label] = work / f"config_{label}.json"
        paths[label].write_text(json.dumps({**config, "parallelism": parallelism}, indent=2))
    return paths, sizes


# ---------------------------------------------------------------------------
# child processes


def worker(args: list[str], log: Path, deadline: float) -> dict | None:
    """Run worker.py in a fresh interpreter; None if it failed or was still
    running at ``deadline`` (a time.monotonic() value)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timeout = max(1.0, deadline - time.monotonic())
    with open(log, "a", encoding="utf-8") as err:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            err.write(f"worker {args[0]} stopped after {timeout:.0f} s\n")
            return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def rescaled(seconds: list[float], references: list[float]) -> float:
    """Median over runs of each run's time, rescaled to the nominal host
    speed of calibrate.py by the reference time measured around that run."""
    return statistics.median(s * NOMINAL_S / r for s, r in zip(seconds, references))


def measure_setup(config: Path, log: Path, deadline: float) -> dict:
    worker(["setup", str(config)], log, deadline)  # warm-up: fills the bytecode cache
    samples = [worker(["setup", str(config)], log, deadline) for _ in range(SETUP_SAMPLES)]
    if any(s is None for s in samples):
        raise BenchmarkError(f"kgrerank set-up failed; see {log}")
    return {key: [s[key] for s in samples] for key in ("setup_s", "reference_s")}


@dataclass
class Runs:
    """Outcome of the runs of one workload invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict | None = None
    results: dict[str, list[dict]] = field(default_factory=dict)

    def add(self, kind: str, result: dict, checked: tuple) -> None:
        attempted, failed, problems, found = checked
        if self.digests is None:
            self.digests = found
        elif found != self.digests:
            # every run, traced or not, must produce the same bytes
            failed = attempted
            problems.append(f"{kind} run's artifacts differ from the first run's")
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        self.results.setdefault(kind, []).append(result)


def one_run(workload, config, work, expected, deadline, runs: Runs, kind: str, spans=None) -> None:
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    args = ["run", str(config)] + ([str(spans)] if spans else [])
    result = worker(args, work / "worker.log", deadline) or {"exit_code": -1}
    base = out / "base_run.txt"
    if base.exists():
        # candidate-metric evaluations: list lengths times metrics
        result["evaluations"] = len(base.read_text(encoding="utf-8").splitlines()) * len(workload.metrics)
    checked = check_run(out, result["exit_code"], workload.metrics, ORDERS, expected)
    runs.add(kind, result, checked)


def run_loop(seconds: float, step_kinds: tuple[str, ...], step) -> None:
    """Call step(kind) round-robin over the kinds until the next round would
    overrun ``seconds``; every kind runs at least once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind in step_kinds:
            step(kind)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: Runs, setup: dict) -> dict:
    done = [r for r in runs.results["run"] if r.get("exit_code") == 0]
    if not done:
        raise BenchmarkError("no kgrerank run completed")
    run_s = rescaled([r["run_s"] for r in done], [r["reference_s"] for r in done])
    return {
        "run_s": metric(run_s, "s"),
        "evals_per_s": metric(statistics.median(r["evaluations"] for r in done) / run_s, "1/s"),
        "setup_s": metric(rescaled(setup["setup_s"], setup["reference_s"]), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in done), "MB"),
    }


def per_layer(workload: Workload, runs: Runs, spans_files: list[Path]) -> tuple[dict, dict]:
    """(metrics, name -> reason for each metric that could not be measured).

    The result line must hold a number for every metric, so an unmeasurable
    one reads 0 and its reason is printed on a line of its own."""
    per_trace = [layer_metrics(Trace(p, workload.metrics)) for p in spans_files if p.exists()]
    out, unavailable = {}, {}
    for name, unit, _, _ in SPECS:
        values = [m[name][0] for m in per_trace]
        if per_trace and all(v is not None for v in values):
            out[name] = metric(statistics.median(values), unit)
        else:
            unavailable[name] = next(
                (m[name][1] for m in per_trace if m[name][0] is None), "no traced run completed"
            )
            out[name] = metric(0.0, unit)
    plain, traced = (
        [r for r in runs.results.get(kind, []) if r.get("exit_code") == 0]
        for kind in ("serial", "traced")
    )
    name, unit, _ = OVERHEAD
    if plain and traced:
        plain_s, traced_s = (
            rescaled([r["run_s"] for r in rs], [r["reference_s"] for r in rs])
            for rs in (plain, traced)
        )
        out[name] = metric((traced_s - plain_s) / plain_s, unit)
    else:
        unavailable[name] = "a traced or an untraced run failed"
        out[name] = metric(0.0, unit)
    return out, unavailable


# roadmap baseline of the betweenness cost per candidate, by profile size
ROADMAP_BETWEENNESS_MS = {"synth-h24": (4.0, 50), "rich-h100": (53.0, 202)}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / workload.name
    configs, sizes = prepare(workload, seed, work)
    log = work / "worker.log"
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = recorded.get("workloads", {}).get(workload.name) if seed == recorded.get("seed") else None

    runs = Runs()
    setup = None
    spans_files: list[Path] = []

    def step(kind: str) -> None:
        spans = None
        if kind == "traced":
            spans = work / f"spans_{len(spans_files)}.jsonl"
            spans_files.append(spans)
        # traced runs and their untraced comparison use one worker
        config = configs["run" if kind == "run" else "serial"]
        one_run(workload, config, work, expected, deadline, runs, kind, spans)

    if trace:
        run_loop(seconds, ("serial", "traced"), step)
    else:
        setup = measure_setup(configs["run"], log, deadline)
        run_loop(seconds, ("run",), step)

    if workload.oracle:
        checked = worker(["oracle", str(work / "out")], log, deadline)
        if checked is None:
            runs.attempted += 1
            runs.failed += 1
            runs.problems.append(f"oracle spot-check crashed; see {log}")
        else:
            runs.attempted += checked["attempted"]
            runs.failed += checked["failed"]
            runs.problems += checked["mismatches"]

    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            **machine(),
            "numpy": next((r["numpy"] for rs in runs.results.values() for r in rs if "numpy" in r), None),
        },
        "inputs": sizes,
        # raw samples: (seconds, reference seconds) per run
        "samples": {
            kind: [(r.get("run_s"), r.get("reference_s")) for r in results]
            for kind, results in runs.results.items()
        },
        "setup_samples": setup and list(zip(setup["setup_s"], setup["reference_s"])),
        "digests_checked_against_record": expected is not None,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# digests " + json.dumps(runs.digests, sort_keys=True))
    for problem in runs.problems[:20]:
        print(f"# problem {problem}")

    if trace:
        metrics, unavailable = per_layer(workload, runs, spans_files)
        for name, reason in unavailable.items():
            print(f"# unavailable {name}: {reason}")
        kernel = "metrics.betweenness.kernel_ms_per_cand"
        got = metrics[kernel]["value"]
        if workload.name in ROADMAP_BETWEENNESS_MS and kernel not in unavailable:
            ms, nodes = ROADMAP_BETWEENNESS_MS[workload.name]
            speed = NOMINAL_S / statistics.median(
                r["reference_s"] for r in runs.results["traced"] if r["exit_code"] == 0
            )
            print(f"# roadmap betweenness per candidate: {got:.4g} ms here "
                  f"({got * speed:.4g} ms at nominal host speed), "
                  f"{ms} ms in ROADMAP's baseline table at {nodes} nodes")
    else:
        metrics = end_to_end(runs, setup)
    return {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgrerank" / "__init__.py").exists():
        print(f"benchmark error: no kgrerank package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        share = result["failed"] / result["attempted"]
        cells = [f"{key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
        print(f"{name}: " + ", ".join(cells + [f"failed_share {share:.6g} ratio"]))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

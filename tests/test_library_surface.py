"""The library exports what the pipeline runs: every public function and
public method in ``src/kgrerank`` is one that the pipeline calls, or is on
the allow-list below.

A ``sys.setprofile`` hook records every function that runs during
``kgrerank run`` and during each stage run alone, on the synthetic, Last.fm
corpus and Netflix configs of ``conftest.pipeline_doc``. The Netflix config
prunes its catalog here, as the default config does. A public function or
method that none of these calls is either deleted, or it is named below with
the reason it stays.
"""

import functools
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import kgrerank
from kgrerank.cli import main

from conftest import DATASET_KINDS, pipeline_doc, write_config

ROOT = Path(__file__).resolve().parents[1]

# README's named library entries: one per concept, for library users
README_ENTRIES = {
    "metrics.compute_metric",
    "evaluation.ild",
    "evaluation.ndcg_at_k",
    "evaluation.unexpectedness",
}
# names that ``perfbench/worker.py`` calls or a tracer hook reads, which
# ROADMAP item 15b removes or keeps once the benchmark stops naming them
LATER_ITEMS = {
    "rerank.evaluate_candidates",
    "metrics.MetricKind.from_name",
    "graph.Multigraph.num_edges",
}
# called only on an error path: a usage error, a ConvergenceError's last
# iterate, and the node an error names
ERROR_PATHS = {
    "cli._Parser.error",
    "metrics._Stack.by_node",
    "metrics._Stack.nodes",
}
STAGES = ("ingest", "recommend", "rerank", "evaluate")


def _function(member):
    """The plain function behind a class attribute, or None."""
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    return member if inspect.isfunction(member) else None


def public_functions() -> dict:
    """``module.name`` or ``module.Class.name`` -> code object, for every
    public function defined in a ``kgrerank`` module and every public method
    of a class defined there."""
    found = {}
    for info in pkgutil.iter_modules(kgrerank.__path__):
        name = f"kgrerank.{info.name}"
        importlib.import_module(name)
        # ``kgrerank.rerank`` is also the name of the exported function
        module = sys.modules[name]
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                found[f"{info.name}.{attr}"] = obj.__code__
            elif inspect.isclass(obj):
                for method, member in vars(obj).items():
                    function = _function(member)
                    if function is not None and not method.startswith("_"):
                        found[f"{info.name}.{attr}.{method}"] = function.__code__
    return found


def test_every_public_function_is_called_or_allowed(tmp_path, request):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for dataset in DATASET_KINDS:
        doc = pipeline_doc(request, dataset)
        if dataset == "netflix":
            doc["dataset"]["prune"]["degree_one"] = True
        config = str(write_config(tmp_path / f"{dataset}.json", doc))
        sys.setprofile(record)
        try:
            run = main(["run", "--config", config, "--out", str(tmp_path / dataset / "run")])
            stages = [
                main([stage, "--config", config, "--out", str(tmp_path / dataset / "stages")])
                for stage in STAGES
            ]
        finally:
            sys.setprofile(None)
        assert [run, *stages] == [0] * 5, dataset
    uncalled = {name for name, code in public_functions().items() if code not in called}
    assert sorted(uncalled) == sorted(README_ENTRIES | LATER_ITEMS | ERROR_PATHS)


def test_readme_names_each_library_entry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Za-z_.]+)[`(]", readme))
    missing = [name for name in README_ENTRIES if name.rsplit(".", 1)[1] not in named]
    assert missing == []

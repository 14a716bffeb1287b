import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kgrerank import (
    ConvergenceError,
    MetricKind,
    Multigraph,
    Node,
    RecommendationList,
    Triple,
    build_catalog,
    evaluate_metrics,
    induce_profile_subgraph,
)
from kgrerank import metrics as metrics_module
from kgrerank.metrics import _Stack, compile_graph

from oracles import two_core

T, A, G = "track", "artist", "genre"
ROOT = Path(__file__).resolve().parents[1]


def record_bfs_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record every BFS pass, ``metrics._source_blocks(adj, sources)``, as
    (graph size, source rows)."""
    calls = []
    real = metrics_module._source_blocks

    def counting(adj, sources):
        calls.append((adj.shape[0], len(sources)))
        return real(adj, sources)

    monkeypatch.setattr(metrics_module, "_source_blocks", counting)
    return calls


def core_passes(graphs) -> list[tuple[int, int]]:
    """The BFS passes of the path kernels on each of ``graphs`` (graphs, or
    one-row batches), as :func:`record_bfs_calls` records them: one from
    every node of the graph's 2-core, and none where the 2-core is empty."""
    passes = []
    for graph in graphs:
        if isinstance(graph, metrics_module._Stack):
            nodes = graph.nodes(0)
            g = Multigraph()
            for v in nodes:
                g.add_node(Node(v, "other"))
            for source, target in zip(graph.row_src.tolist(), graph.row_dst.tolist()):
                g.add_edge(nodes[source], "rel", nodes[target])
            graph = g
        size = len(two_core(graph))
        if size:
            passes.append((size, size))
    return passes


@pytest.fixture()
def bfs_calls(monkeypatch):
    return record_bfs_calls(monkeypatch)


def compiled_edges(labels, edges) -> _Stack:
    """The graph on ``labels`` with one edge per (source index, target index)
    pair of ``edges``, compiled by :func:`compile_graph` as a batch of one
    row; the pairs may come in any order, and a repeated pair is a parallel
    edge."""
    g = Multigraph()
    for label in labels:
        g.add_node(Node(label, "other"))
    for k, (i, j) in enumerate(edges):
        g.add_edge(labels[i], f"p{k}", labels[j])
    return compile_graph(g, labels)


def disjoint_batch(graphs) -> _Stack:
    """The batch whose row ``r`` is ``graphs[r]`` (a graph, or a one-row
    batch), cut with ``_Stack.cut`` from the disjoint union of the graphs.

    In the union, node ``v`` of graph ``r`` is ``f"{r}/{v}"``. A row's
    labels share that prefix, so they sort as the graph's own do, and the
    row holds the graph's nodes in the graph's order and the graph's pairs:
    every value a kernel or a collapse computes on it is the graph's alone.
    """
    parts = [g if isinstance(g, _Stack) else compile_graph(g) for g in graphs]
    labels, edges, owner = [], [], []
    for r, part in enumerate(parts):
        start = len(labels)
        labels += [f"{r}/{v}" for v in part.nodes(0)]
        owner += [r] * int(part.sizes[0])
        pairs = zip(part.row_src.tolist(), part.row_dst.tolist(), part.mult.tolist())
        edges += [(start + i, start + j) for i, j, mult in pairs for _ in range(mult)]
    mask = np.arange(len(parts))[:, None] == np.array(owner, dtype=np.intp)
    return _Stack.cut([(compiled_edges(labels, edges), mask)])


def unprefixed(scores: dict) -> dict:
    """``scores`` keyed by the graph's own node ids, without the prefix
    :func:`disjoint_batch` gave them."""
    return {label.split("/", 1)[1]: value for label, value in scores.items()}


def node_scores(graphs, kind: MetricKind, **pagerank_constants) -> list[dict[str, float]]:
    """Each graph's per-node betweenness, closeness or PageRank (``kind``),
    from the kernel on one :func:`disjoint_batch` of ``graphs``, keyed by
    the graph's own node ids. ``pagerank_constants`` (``damping``, ``tol``,
    ``max_iter``) replace the PageRank kernel's module constants
    (``metrics._DAMPING``, ``_TOL``, ``_MAX_ITER``) for this call; its
    :class:`ConvergenceError` carries its last iterate keyed so too."""
    stack = disjoint_batch(graphs)
    if kind is MetricKind.PAGERANK:
        with pytest.MonkeyPatch.context() as monkeypatch:
            for name, value in pagerank_constants.items():
                monkeypatch.setattr(metrics_module, f"_{name.upper()}", value)
            try:
                block = metrics_module._pagerank_batch(stack)
            except ConvergenceError as exc:
                exc.last_scores = unprefixed(exc.last_scores)
                raise
    else:
        block = [
            metrics_module._path_scores(stack.adjacency(row), (kind,))[kind]
            for row in range(len(stack))
        ]
    return [unprefixed(stack.by_node(row, block[row])) for row in range(len(stack))]


def betweenness(g) -> dict[str, float]:
    """Per-node betweenness of ``g`` alone; see :func:`node_scores`."""
    return node_scores([g], MetricKind.BETWEENNESS)[0]


def closeness(g) -> dict[str, float]:
    """Per-node harmonic closeness of ``g`` alone; see :func:`node_scores`."""
    return node_scores([g], MetricKind.CLOSENESS)[0]


def pagerank(g, **pagerank_constants) -> dict[str, float]:
    """Per-node PageRank of ``g`` alone; see :func:`node_scores`."""
    return node_scores([g], MetricKind.PAGERANK, **pagerank_constants)[0]


def collapse(scores) -> float:
    """The normalized HHI of one distribution: :meth:`_Stack.collapse` over
    a batch of one edgeless graph. ``scores`` maps node ids to scores; a
    sequence is keyed ``n000``, ``n001``, ..., so that the collapse's
    sorted-label order is the sequence's order."""
    if not isinstance(scores, dict):
        scores = {f"n{i:03d}": score for i, score in enumerate(scores)}
    stack = compiled_edges(list(scores), [])
    return stack.collapse(np.array([list(scores.values())], dtype=float))[0].item()


def matrix_ratings(matrix) -> dict[str, dict[str, float]]:
    """The ratings a ``RatingMatrix`` holds, read from its arrays, as {user:
    {item: rating}} in the matrix's (user, item) order."""
    users, items = list(matrix._user_pos), matrix._items
    ratings: dict[str, dict[str, float]] = {}
    triples = zip(matrix._rows.tolist(), matrix._cols.tolist(), matrix._values.tolist())
    for u, i, value in triples:
        ratings.setdefault(users[u], {})[items[i]] = value
    return ratings


def record_group_stacks(monkeypatch) -> list:
    """Record every batch that ``rerank.evaluate_metrics`` scores, once per
    group of users however many metric groups score it."""
    # ``kgrerank.rerank`` is also the name of the exported function, so the
    # module is reached through sys.modules
    module = sys.modules["kgrerank.rerank"]
    real = module.score_stack
    stacks = []

    def recording(stack, kinds):
        if not any(seen is stack for seen in stacks):
            stacks.append(stack)
        return real(stack, kinds)

    monkeypatch.setattr(module, "score_stack", recording)
    return stacks


def extension_batch(catalog, sg, items, mode):
    """The batch (``metrics._Stack``) of the extensions of ``sg`` by each of
    ``items`` that ``rerank.evaluate_metrics`` builds, taken from its call to
    ``score_stack``."""
    recs = RecommendationList(user=sg.user, items=tuple((item, 0.0) for item in items))
    with pytest.MonkeyPatch.context() as monkeypatch:
        stacks = record_group_stacks(monkeypatch)
        evaluate_metrics(catalog, [(sg, recs)], [MetricKind.NODE_COUNT], mode)
    (stack,) = stacks
    return stack


def compiled_extensions(catalog, sg, items, mode) -> list:
    """The rows of :func:`extension_batch`, each as a batch of one row."""
    stack = extension_batch(catalog, sg, items, mode)
    return [stack.rows([row]) for row in range(len(stack))]


def assert_same_graph(got, want, context=None) -> None:
    """The one-row batches ``got`` and ``want`` hold the same nodes, in one
    order, and the same pair arrays, dtypes included."""
    assert got.nodes(0) == want.nodes(0), context
    for name in ("row_src", "row_dst", "mult"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, (context, name)
        assert got_array.tolist() == want_array.tolist(), (context, name)


def catalog_layout(g) -> tuple:
    """What a catalog shows, in its orders: its nodes with their kinds and
    attributes, each node's successors with their predicates, its edges,
    its recommendable set and its edge count."""
    return (
        list(g.nodes()),
        [list(g.successors(v).items()) for v in g.node_ids()],
        list(g.edges()),
        g.recommendable,
        g.num_edges,
    )


def signature(g) -> tuple[frozenset, frozenset]:
    """Hashable (nodes with their kinds, edges) snapshot of a graph."""
    return frozenset((n.id, n.kind) for n in g.nodes()), frozenset(g.edges())


# Catalog where a two-track profile (t1, t2 by artist a1, genre g1) can be
# extended either by "similar" candidates (s1, s2: more tracks by a1) or by
# "diverse" ones (d1, d2: new artists e1, e2 that also open alternative paths
# back into the profile). Extending with the diverse pair adds 4 nodes and 7
# edges; the similar pair adds 2 nodes and 2 edges.
DVS_TRIPLES = [
    Triple("t1", "maker", "a1", T, A),
    Triple("t1", "genre", "g1", T, G),
    Triple("t2", "maker", "a1", T, A),
    Triple("t2", "genre", "g1", T, G),
    Triple("s1", "maker", "a1", T, A),
    Triple("s2", "maker", "a1", T, A),
    Triple("d1", "maker", "e1", T, A),
    Triple("d1", "genre", "g1", T, G),
    Triple("e1", "genre", "g1", A, G),
    Triple("e1", "influenced_by", "a1", A, A),
    Triple("d2", "maker", "e2", T, A),
    Triple("d2", "genre", "g1", T, G),
    Triple("e2", "influenced_by", "a1", A, A),
]

# exact betweenness concentrations of the extended subgraphs
DVS_EXPECTED = {"d1": 10 / 49, "d2": 13 / 160, "s1": 73 / 288, "s2": 73 / 288}


@pytest.fixture(scope="session")
def dvs_catalog():
    return build_catalog(DVS_TRIPLES)


@pytest.fixture()
def dvs_profile(dvs_catalog):
    return induce_profile_subgraph(dvs_catalog, {"t1", "t2"}, user="u1")


@pytest.fixture()
def dvs_recs():
    # the base recommender prefers the similar items
    return RecommendationList(
        user="u1",
        items=(("s1", 0.9), ("s2", 0.8), ("d1", 0.4), ("d2", 0.3)),
    )


# The three-node catalog from a single enriched track: one track linked to its
# genre and its artist.
TRACK_TRIPLES = [
    Triple("t_4471632", "genre", "disco", T, G),
    Triple("t_4471632", "maker", "15160", T, A),
]


@pytest.fixture(scope="session")
def track_catalog():
    return build_catalog(TRACK_TRIPLES)


FEATURE_HEADER = (
    "track_id,danceability,energy,speechiness,acousticness,"
    "instrumentalness,liveness,valence,tempo"
)


@pytest.fixture()
def lastfm_files(tmp_path):
    """Five listening events; track tr4 has no feature row and is dropped."""
    events = tmp_path / "events.tsv"
    events.write_text(
        "u1\ta1\ttr1\t100\n"
        "u1\ta1\ttr2\t200\n"
        "u2\ta2\ttr3\t300\n"
        "u2\ta1\ttr1\t400\n"
        "u3\ta3\ttr4\t500\n",
        encoding="utf-8",
    )
    features = tmp_path / "features.csv"
    features.write_text(
        FEATURE_HEADER + "\n"
        "tr1,0.5,0.6,0.1,0.2,0.0,0.1,0.7,60\n"
        "tr2,0.4,0.5,0.2,0.3,0.1,0.2,0.6,120\n"
        "tr3,0.3,0.4,0.3,0.4,0.2,0.3,0.5,180\n",
        encoding="utf-8",
    )
    genres = tmp_path / "genres.csv"
    genres.write_text(
        "track_id,genre\ntr1,rock\ntr2,rock\n",
        encoding="utf-8",
    )
    return events, features, genres


NETFLIX_HEADER = (
    "show_id,type,title,director,cast,country,date_added,"
    "release_year,rating,duration,listed_in,description"
)

# hand-counted: 8 + 4 + 5 + 5 + 1 = 23 triples, 22 distinct nodes
@pytest.fixture()
def netflix_csv(tmp_path):
    path = tmp_path / "titles.csv"
    path.write_text(
        NETFLIX_HEADER + "\n"
        's1,Movie,Alpha,"D One, D Two","C One, C Two, C Three",United States,'
        "2021-01-01,2020,PG,90 min,Dramas,Small town drama\n"
        "s2,TV Show,Beta,,C One,,2021-02-01,2021,TV-MA,2 Seasons,"
        '"Dramas, Sci-Fi",Androids dream\n'
        's3,Movie,Gamma,D One,,"India, France",2021-03-01,2019,PG,100 min,'
        "Comedies,Mistaken identity\n"
        "s4,Movie,Delta,D Three,C Four,India,2021-04-01,2018,R,95 min,"
        "Dramas,Heist gone wrong\n"
        "s5,TV Show,Epsilon,,,,2021-05-01,2022,TV-PG,1 Season,,Quiet village\n",
        encoding="utf-8",
    )
    return path


def _corpus_module():
    """The benchmark's corpus generator, ``perfbench/corpus.py``."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the class body runs
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def make_lastfm_corpus(out_dir, seed: int):
    """Write a small Last.fm-format corpus from the benchmark's generator into
    ``out_dir``: four users with 10-14 tracks and twelve shorter histories,
    over 20 artists and 8 genres, so that profiles share artists and genres
    and have cycles."""
    corpus = _corpus_module()
    spec = corpus.CorpusSpec(
        groups=(corpus.UserGroup(4, 10, 14), corpus.UserGroup(12, 4, 8)),
        n_tracks=120,
        n_artists=20,
        n_genres=8,
    )
    corpus.generate_corpus(spec, seed=seed, out_dir=out_dir)
    return out_dir


@pytest.fixture(scope="session")
def lastfm_corpus(tmp_path_factory):
    """The :func:`make_lastfm_corpus` corpus at seed 3."""
    return make_lastfm_corpus(tmp_path_factory.mktemp("lastfm_corpus"), seed=3)


def lastfm_run_config(inputs, out_dir, metrics, top_n=6) -> dict:
    """A ``kgrerank run`` config over :func:`lastfm_corpus` files: three
    sampled users, closed mode, both orders."""
    return {
        "dataset": {
            "kind": "lastfm",
            "events": str(inputs / "events.tsv"),
            "features": str(inputs / "features.csv"),
            "genres": str(inputs / "genres.csv"),
            "sample_users": 3,
            "min_unique_tracks": 10,
        },
        "recommender": "baseline",
        "rerank": {
            "metrics": list(metrics),
            "orders": ["asc", "desc"],
            "mode": "closed",
            "top_n": top_n,
        },
        "evaluation": {"k": 5},
        "seed": 1,
        "parallelism": 1,
        "output_dir": str(out_dir),
    }


DATASET_KINDS = ("synthetic", "lastfm", "netflix")


def pipeline_doc(request, dataset: str) -> dict:
    """A small ``kgrerank run`` config document for each dataset kind: Last.fm
    with all nine metrics and both orders."""
    if dataset == "lastfm":
        corpus = request.getfixturevalue("lastfm_corpus")
        return lastfm_run_config(corpus, "runs/out", [kind.value for kind in MetricKind])
    doc = {
        "rerank": {"metrics": ["node_count"], "orders": ["asc"], "top_n": 15},
        "evaluation": {"k": 5},
        "seed": 13,
        "parallelism": 1,
    }
    if dataset == "synthetic":
        synthetic = {"tracks": 40, "users": 4, "history": 8}
        return {**doc, "dataset": {"kind": "synthetic", "synthetic": synthetic}}
    return {
        **doc,
        "dataset": {
            "kind": "netflix",
            "titles": str(request.getfixturevalue("netflix_csv")),
            "profiles": {"count": 5, "min_items": 2, "max_items": 4},
            "prune": {"degree_one": False},
        },
    }


def write_config(path, doc: dict):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path

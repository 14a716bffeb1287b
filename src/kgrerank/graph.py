"""Typed directed multigraph model for item catalogs and user profile subgraphs.

The catalog graph holds every recommendable item (tracks, movies, TV shows)
plus the entities that enrich them (artists, genres, directors, ...). A user's
profile subgraph is the catalog subgraph induced by the user's items and their
neighbours. :func:`added_nodes` names the nodes a candidate item adds to it
(see :class:`NeighborhoodMode`); the extension, the subgraph induced by the
profile's nodes and those, is built only by the re-ranker, which compiles it
straight from the catalog (``rerank.evaluate_metrics``) and never mutates the
profile, so per-candidate evaluations are independent.

A catalog travels between pipeline stages as two flat files
(:func:`export_graph`, :func:`read_graph`). Export refuses a node id or
predicate that holds a tab or line break, which the reader splits on, and
returns the catalog the reader reads back from its files.
:func:`build_catalog` makes a node only for a new id; :func:`read_graph` keeps
file order and reads a file a second time only to name the first line of a
repeated node or edge.
"""

from __future__ import annotations

from collections.abc import Collection, Container, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum


EntityId = str

# (source, predicate, target)
EdgeTriple = tuple[str, str, str]


class EntityKind:
    """Well-known node kinds. Any other string is accepted as a free-form kind."""

    TRACK = "track"
    ARTIST = "artist"
    GENRE = "genre"
    MOVIE = "movie"
    TV_SHOW = "tv_show"
    PERSON = "person"
    COUNTRY = "country"
    RATING = "rating"


RECOMMENDABLE_KINDS = frozenset(
    {EntityKind.TRACK, EntityKind.MOVIE, EntityKind.TV_SHOW}
)


class NeighborhoodMode(Enum):
    """How a candidate item is merged into a profile subgraph.

    The mode picks the nodes the candidate adds: CLOSED_NEIGHBORHOOD (the
    default elsewhere) adds the candidate and its catalog neighbors not yet in
    the subgraph; EDGES_TO_EXISTING adds the candidate if it is absent. The
    extension is the catalog subgraph that the added nodes induce together
    with the profile's, less a new candidate's self-loops in edges mode, so
    that such a candidate brings only its edges to nodes the profile has.
    """

    EDGES_TO_EXISTING = "edges"
    CLOSED_NEIGHBORHOOD = "closed"


class GraphError(ValueError):
    """Raised for malformed input or contract violations on graph operations."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    attrs: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Triple:
    """One labeled edge plus endpoint kinds, as emitted by ingestion."""

    source: str
    predicate: str
    target: str
    source_kind: str
    target_kind: str


class Multigraph:
    """Directed multigraph; parallel edges must carry distinct predicates.

    Nodes are identified by opaque string ids and carry a kind plus an
    attribute map. Attributes never influence graph algorithms.
    """

    __slots__ = ("_nodes", "_out", "_in", "_num_edges")

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        # adjacency: source -> target -> set of predicates (and the reverse)
        self._out: dict[str, dict[str, set[str]]] = {}
        self._in: dict[str, dict[str, set[str]]] = {}
        self._num_edges = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        existing = self._nodes.get(node.id)
        if existing is not None:
            if existing.kind != node.kind:
                raise GraphError(
                    f"node {node.id!r} redeclared with kind {node.kind!r}, "
                    f"already {existing.kind!r}"
                )
            return
        self._nodes[node.id] = node
        self._out[node.id] = {}
        self._in[node.id] = {}

    def add_edge(self, source: str, predicate: str, target: str) -> bool:
        """Insert an edge; returns False if the exact edge already exists."""
        if source not in self._nodes:
            raise GraphError(f"edge source {source!r} is not a node")
        if target not in self._nodes:
            raise GraphError(f"edge target {target!r} is not a node")
        preds = self._out[source].setdefault(target, set())
        if predicate in preds:
            return False
        preds.add(predicate)
        self._in[target].setdefault(source, set()).add(predicate)
        self._num_edges += 1
        return True

    # -- queries -----------------------------------------------------------

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def node_ids(self) -> Iterator[str]:
        return iter(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[EdgeTriple]:
        for source, targets in self._out.items():
            for target, preds in targets.items():
                # predicate sets iterate in hash order; sort for determinism
                for predicate in sorted(preds):
                    yield (source, predicate, target)

    def successors(self, node_id: str) -> Mapping[str, set[str]]:
        """Target -> predicate set. Treat the returned mapping as read-only."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return self._out[node_id]

    def neighbors(self, node_id: str) -> set[str]:
        """Adjacent node ids in either direction (the undirected view)."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return set(self._out[node_id]) | set(self._in[node_id])


class CatalogGraph(Multigraph):
    """Full catalog knowledge graph; treated as immutable once built.

    The recommendable set is derived from node kinds at insertion time.
    """

    __slots__ = ("_recommendable",)

    def __init__(self) -> None:
        super().__init__()
        self._recommendable: set[str] = set()

    def add_node(self, node: Node) -> None:
        super().add_node(node)
        if node.kind in RECOMMENDABLE_KINDS:
            self._recommendable.add(node.id)

    @property
    def recommendable(self) -> set[str]:
        """Ids of nodes eligible for recommendation lists. Treat as read-only."""
        return self._recommendable

    def is_recommendable(self, node_id: str) -> bool:
        return node_id in self._recommendable


@dataclass(frozen=True)
class ProfileSubgraph:
    """A user's induced subgraph of the catalog plus their interaction history."""

    user: str
    graph: Multigraph
    history: frozenset[str]


_TRIPLE_FIELDS = ("source", "predicate", "target", "source_kind", "target_kind")


def build_catalog(
    triples: Iterable[Triple], nodes: Iterable[Node] = ()
) -> CatalogGraph:
    """Build a catalog graph from a stream of typed triples.

    Nodes are deduplicated by id; a kind conflict is an error. ``nodes`` are
    added first, so they keep their attributes, and entities that carry no
    relations still appear. A triple's endpoint becomes a node only when its id
    is new. Malformed triples are rejected with their 1-based record index.
    """
    catalog = CatalogGraph()
    for node in nodes:
        catalog.add_node(node)
    known = catalog._nodes
    for i, triple in enumerate(triples, start=1):
        source, predicate, target = triple.source, triple.predicate, triple.target
        source_kind, target_kind = triple.source_kind, triple.target_kind
        if not (source and predicate and target and source_kind and target_kind):
            name = next(name for name in _TRIPLE_FIELDS if not getattr(triple, name))
            raise GraphError(f"triple #{i}: missing {name}")
        try:
            for node_id, kind in ((source, source_kind), (target, target_kind)):
                node = known.get(node_id)
                if node is None or node.kind != kind:
                    # adds the new id, or raises the kind conflict
                    catalog.add_node(Node(node_id, kind))
            catalog.add_edge(source, predicate, target)
        except GraphError as exc:
            raise GraphError(f"triple #{i}: {exc}") from None
    return catalog


def induce_profile_subgraph(
    catalog: CatalogGraph, history: Iterable[str], user: str = ""
) -> ProfileSubgraph:
    """Induce the profile subgraph for a set of interacted items.

    The subgraph contains every history item, every catalog node adjacent to a
    history item (the enriching entities), and every catalog edge with both
    endpoints included. Nodes are in sorted order.
    """
    history_set = frozenset(history)
    owner = f"user {user!r}: " if user else ""
    node_set: set[str] = set()
    for item in sorted(history_set):
        if item not in catalog:
            raise GraphError(f"{owner}history item {item!r} not in catalog")
        if not catalog.is_recommendable(item):
            raise GraphError(f"{owner}history item {item!r} is not recommendable")
        node_set.add(item)
        node_set.update(catalog.neighbors(item))
    graph = _induced(catalog, sorted(node_set))
    return ProfileSubgraph(user=user, graph=graph, history=history_set)


def _induced(catalog: CatalogGraph, nodes: list[str]) -> Multigraph:
    """The catalog subgraph on ``nodes``, added in that order."""
    members = set(nodes)
    graph = Multigraph()
    for node_id in nodes:
        graph.add_node(catalog.node(node_id))
    for source in nodes:
        for target, preds in catalog.successors(source).items():
            if target in members:
                for predicate in sorted(preds):
                    graph.add_edge(source, predicate, target)
    return graph


def added_nodes(
    present: Container[str],
    catalog: CatalogGraph,
    item: str,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> list[str]:
    """The nodes, sorted, that extending a subgraph on the nodes ``present``
    by ``item`` adds (see :class:`NeighborhoodMode`)."""
    if item not in catalog:
        raise GraphError(f"unknown item {item!r}")
    if not catalog.is_recommendable(item):
        raise GraphError(f"item {item!r} is not recommendable")
    closed = mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD
    reach = catalog.neighbors(item) | {item} if closed else {item}
    return sorted(v for v in reach if v not in present)


def prune_graph(g: Multigraph) -> Multigraph:
    """Return a copy of the graph without its degree-1 nodes.

    One pass, not to fixpoint: degrees are measured once on the input, so a
    node left with degree 1 by the removal stays. Isolated nodes are kept.
    The input is left untouched.
    """
    degree: dict[str, int] = dict.fromkeys(g.node_ids(), 0)
    for source, _, target in g.edges():
        degree[source] += 1
        degree[target] += 1
    doomed = {v for v, d in degree.items() if d == 1}

    pruned = g.__class__()
    for node in g.nodes():
        if node.id not in doomed:
            pruned.add_node(node)
    for source, predicate, target in g.edges():
        if source not in doomed and target not in doomed:
            pruned.add_edge(source, predicate, target)
    return pruned


def _clean(text: str) -> str:
    # a reader in text mode ends a line at "\r" as well as at "\n"
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _refuse_breaks(texts: Collection[str], what: str) -> None:
    """Raise naming the least of ``texts`` that holds a tab, carriage return
    or line feed, which the reader would split on."""
    joined = "".join(texts)
    if "\t" in joined or "\r" in joined or "\n" in joined:
        text = min(t for t in texts if _clean(t) != t)
        raise GraphError(f"{what} {text!r} holds a tab or line break")


def export_graph(g: Multigraph, triples_path, nodes_path) -> CatalogGraph:
    """Write the graph as flat files: an edge list and a node manifest.

    Edges: ``<source>\\t<predicate>\\t<target>``, sorted lexicographically.
    Nodes: ``<id>\\t<kind>\\t<label>``, sorted by id, where the label falls
    back from the ``label`` attribute to ``title`` to the empty string. A node
    id or predicate that holds a tab, carriage return or line feed raises
    :class:`GraphError` naming it, before either file is written; in a kind
    or label such a character is written as a space. Deterministic output
    suitable for golden-file comparison.

    Returns the catalog that :func:`read_graph` reads from the two files: the
    same nodes, kinds and labels, added in the same order, and the same
    edges, so that a caller holding it need not read the files back. It
    shares its nodes and predicate sets with ``g``: treat both as read-only.
    """
    ids = sorted(g.node_ids())
    edges = sorted(g.edges())
    _refuse_breaks(ids, "node id")
    _refuse_breaks({p for _, p, _ in edges}, "predicate")
    flat = CatalogGraph()
    rows = []
    for node_id in ids:
        node = g.node(node_id)
        kind = _clean(node.kind)
        label = _clean(str(node.attrs.get("label") or node.attrs.get("title") or ""))
        attrs = {"label": label} if label else {}
        same = (node.kind, node.attrs) == (kind, attrs)
        flat.add_node(node if same else Node(node_id, kind, attrs))
        rows.append(f"{node_id}\t{kind}\t{label}\n")
    # read_graph's add_edge calls, in file order, on g's predicate sets
    for source, _, target in edges:
        flat._out[source].setdefault(target, g._out[source][target])
        flat._in[target].setdefault(source, g._in[target][source])
    flat._num_edges = len(edges)
    with open(triples_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{s}\t{p}\t{t}\n" for s, p, t in edges))
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(rows))
    return flat


def read_graph(triples_path, nodes_path) -> CatalogGraph:
    """Load a graph previously written by :func:`export_graph`.

    Only the label attribute survives the round trip; other node attributes
    are not part of the flat format. A node id, and an edge, may appear on one
    line only. Nodes and edges are added in file order; a file is read a
    second time only to find the first line of a repeated node or edge.
    """
    catalog = CatalogGraph()
    with open(nodes_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                if parts == [""]:
                    continue
                raise GraphError(f"{nodes_path}:{lineno}: expected 3 fields")
            node_id, kind, label = parts
            if node_id in catalog:
                first = _first_line(nodes_path, lambda p: p[0] == node_id)
                raise GraphError(
                    f"{nodes_path}:{lineno}: repeated node {node_id!r}, "
                    f"first on line {first}"
                )
            catalog.add_node(Node(node_id, kind, {"label": label} if label else {}))
    with open(triples_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                if parts == [""]:
                    continue
                raise GraphError(f"{triples_path}:{lineno}: expected 3 fields")
            try:
                added = catalog.add_edge(*parts)
            except GraphError as exc:
                raise GraphError(f"{triples_path}:{lineno}: {exc}") from None
            if not added:
                first = _first_line(triples_path, parts.__eq__)
                raise GraphError(
                    f"{triples_path}:{lineno}: repeated edge {tuple(parts)!r}, "
                    f"first on line {first}"
                )
    return catalog


def _first_line(path, match) -> int:
    """The number of the first non-blank line of a flat file whose
    tab-separated fields ``match`` accepts; read only on an error path, so that
    reading keeps no table of line numbers."""
    with open(path, encoding="utf-8") as fh:
        return next(
            lineno for lineno, parts in enumerate(
                (line.rstrip("\n").split("\t") for line in fh), start=1
            )
            if parts != [""] and match(parts)
        )

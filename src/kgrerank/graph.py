"""Typed directed multigraph model for item catalogs and user profile subgraphs.

The catalog graph holds every recommendable item (tracks, movies, TV shows)
plus the entities that enrich them (artists, genres, directors, ...). A user's
profile subgraph is induced from the catalog and can be extended with a
candidate item, either by wiring the candidate to nodes the user already knows
or by pulling in the candidate's full closed neighborhood. Extension never
mutates the original subgraph, so per-candidate evaluations are independent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
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
    # kinds targeted by pruning rules
    CLASS = "class"
    PROPERTY = "property"
    LABEL = "label"


RECOMMENDABLE_KINDS = frozenset(
    {EntityKind.TRACK, EntityKind.MOVIE, EntityKind.TV_SHOW}
)
SCHEMA_KINDS = frozenset({EntityKind.CLASS, EntityKind.PROPERTY})


class NeighborhoodMode(Enum):
    """How a candidate item is merged into a profile subgraph.

    EDGES_TO_EXISTING adds the bare candidate node plus only the catalog edges
    between the candidate and nodes already present in the subgraph.
    CLOSED_NEIGHBORHOOD (the default elsewhere) additionally pulls in every
    neighbor of the candidate and all catalog edges connecting the newly added
    nodes to each other and to the existing subgraph.
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
    source_attrs: Mapping[str, object] | None = None
    target_attrs: Mapping[str, object] | None = None


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
            # keep the richer attribute map
            if node.attrs and not existing.attrs:
                self._nodes[node.id] = node
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

    def has_edge(self, source: str, predicate: str, target: str) -> bool:
        targets = self._out.get(source)
        if not targets:
            return False
        return predicate in targets.get(target, ())

    def successors(self, node_id: str) -> Mapping[str, set[str]]:
        """Target -> predicate set. Treat the returned mapping as read-only."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return self._out[node_id]

    def predecessors(self, node_id: str) -> Mapping[str, set[str]]:
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return self._in[node_id]

    def neighbors(self, node_id: str) -> set[str]:
        """Adjacent node ids in either direction (the undirected view)."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return set(self._out[node_id]) | set(self._in[node_id])

    def out_degree(self, node_id: str) -> int:
        return sum(len(p) for p in self.successors(node_id).values())

    def in_degree(self, node_id: str) -> int:
        return sum(len(p) for p in self.predecessors(node_id).values())

    def degree(self, node_id: str) -> int:
        return self.out_degree(node_id) + self.in_degree(node_id)

    def incident_edges(self, node_id: str) -> Iterator[EdgeTriple]:
        """All edges touching the node, each reported once."""
        for target, preds in self.successors(node_id).items():
            for predicate in sorted(preds):
                yield (node_id, predicate, target)
        for source, preds in self.predecessors(node_id).items():
            if source == node_id:
                continue  # self-loops already reported above
            for predicate in sorted(preds):
                yield (source, predicate, node_id)

    def edges_between(self, a: str, b: str) -> Iterator[EdgeTriple]:
        """Edges in either direction between two nodes (may be more than one)."""
        for predicate in sorted(self.successors(a).get(b, ())):
            yield (a, predicate, b)
        if a != b:
            for predicate in sorted(self.successors(b).get(a, ())):
                yield (b, predicate, a)

    def copy(self) -> "Multigraph":
        g = self.__class__()
        for node in self._nodes.values():
            g.add_node(node)
        for source, targets in self._out.items():
            for target, preds in targets.items():
                g._out[source][target] = set(preds)
                g._in[target][source] = set(preds)
        g._num_edges = self._num_edges
        return g

    def structural_signature(self) -> tuple[frozenset, frozenset]:
        """Hashable (nodes, edges) snapshot, used to assert non-mutation."""
        return (
            frozenset((n.id, n.kind) for n in self._nodes.values()),
            frozenset(self.edges()),
        )


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


def build_catalog(
    triples: Iterable[Triple], nodes: Iterable[Node] = ()
) -> CatalogGraph:
    """Build a catalog graph from a stream of typed triples.

    Nodes are deduplicated by id; a kind conflict is an error. ``nodes`` may
    seed entities that carry no relations (they would otherwise not appear).
    Malformed triples are rejected with their 1-based record index.
    """
    catalog = CatalogGraph()
    for node in nodes:
        catalog.add_node(node)
    for i, triple in enumerate(triples, start=1):
        for name, value in (
            ("source", triple.source),
            ("predicate", triple.predicate),
            ("target", triple.target),
            ("source_kind", triple.source_kind),
            ("target_kind", triple.target_kind),
        ):
            if not value:
                raise GraphError(f"triple #{i}: missing {name}")
        try:
            catalog.add_node(
                Node(triple.source, triple.source_kind, dict(triple.source_attrs or {}))
            )
            catalog.add_node(
                Node(triple.target, triple.target_kind, dict(triple.target_attrs or {}))
            )
            catalog.add_edge(triple.source, triple.predicate, triple.target)
        except GraphError as exc:
            raise GraphError(f"triple #{i}: {exc}") from None
    return catalog


def induce_profile_subgraph(
    catalog: CatalogGraph, history: Iterable[str], user: str = ""
) -> ProfileSubgraph:
    """Induce the profile subgraph for a set of interacted items.

    The subgraph contains every history item, every catalog node adjacent to a
    history item (the enriching entities), and every catalog edge with both
    endpoints included.
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

    graph = Multigraph()
    for node_id in sorted(node_set):
        graph.add_node(catalog.node(node_id))
    for source in sorted(node_set):
        for target, preds in catalog.successors(source).items():
            if target in node_set:
                for predicate in sorted(preds):
                    graph.add_edge(source, predicate, target)
    return ProfileSubgraph(user=user, graph=graph, history=history_set)


def closed_neighborhood(
    catalog: Multigraph, item: str
) -> tuple[set[str], set[EdgeTriple]]:
    """The item, all adjacent nodes (either direction), and all incident edges."""
    if item not in catalog:
        raise GraphError(f"unknown item {item!r}")
    node_set = {item} | catalog.neighbors(item)
    edge_set = set(catalog.incident_edges(item))
    return node_set, edge_set


@dataclass(frozen=True)
class ExtensionDelta:
    """Nodes and edges a candidate adds to a profile subgraph (both sorted)."""

    nodes: tuple[Node, ...]
    edges: tuple[EdgeTriple, ...]


def extension_delta(
    graph: Multigraph,
    catalog: CatalogGraph,
    item: str,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> ExtensionDelta:
    """Compute what adding ``item`` to ``graph`` contributes, without applying it.

    The delta contains only nodes absent from ``graph`` and edges not already
    present, so applying it yields the extended subgraph exactly.
    """
    if item not in catalog:
        raise GraphError(f"unknown item {item!r}")
    if not catalog.is_recommendable(item):
        raise GraphError(f"item {item!r} is not recommendable")

    new_edges: set[EdgeTriple] = set()
    if mode is NeighborhoodMode.EDGES_TO_EXISTING:
        item_present = item in graph
        added_ids = [] if item_present else [item]
        for source, predicate, target in catalog.incident_edges(item):
            other = target if source == item else source
            if other == item and not item_present:
                continue  # a self-loop is not an edge to an existing node
            if (other == item or other in graph) and not graph.has_edge(
                source, predicate, target
            ):
                new_edges.add((source, predicate, target))
    elif mode is NeighborhoodMode.CLOSED_NEIGHBORHOOD:
        nb_nodes, nb_edges = closed_neighborhood(catalog, item)
        added_ids = sorted(n for n in nb_nodes if n not in graph)
        added_set = set(added_ids)
        for edge in nb_edges:
            if not graph.has_edge(*edge):
                new_edges.add(edge)
        # catalog edges between newly added nodes and the rest of the result
        for node_id in added_ids:
            for source, predicate, target in catalog.incident_edges(node_id):
                other = target if source == node_id else source
                if (other in added_set or other in graph) and not graph.has_edge(
                    source, predicate, target
                ):
                    new_edges.add((source, predicate, target))
    else:  # pragma: no cover - enum is closed
        raise GraphError(f"unknown neighborhood mode {mode!r}")

    return ExtensionDelta(
        nodes=tuple(catalog.node(n) for n in sorted(added_ids)),
        edges=tuple(sorted(new_edges)),
    )


def extend_subgraph(
    sg: ProfileSubgraph,
    catalog: CatalogGraph,
    item: str,
    mode: NeighborhoodMode = NeighborhoodMode.CLOSED_NEIGHBORHOOD,
) -> ProfileSubgraph:
    """Return a new profile subgraph with the candidate item merged in.

    The input subgraph is never modified. Extending with an item already in
    the subgraph only adds whatever incident edges are still missing.
    """
    delta = extension_delta(sg.graph, catalog, item, mode)
    graph = sg.graph.copy()
    for node in delta.nodes:
        graph.add_node(node)
    for source, predicate, target in delta.edges:
        graph.add_edge(source, predicate, target)
    return ProfileSubgraph(user=sg.user, graph=graph, history=sg.history)


@dataclass(frozen=True)
class PruneRules:
    """Cleanup rules applied by :func:`prune_graph`.

    Kind-based drops run first; the degree-1 pass then uses degrees measured
    on the remaining structure and is applied once, not to fixpoint. Nodes
    with degree exactly 1 are removed (isolated nodes are kept).
    """

    drop_label_entities: bool = False
    drop_degree_one: bool = False
    drop_schema_nodes: bool = False


def prune_graph(g: Multigraph, rules: PruneRules) -> Multigraph:
    """Return a pruned copy of the graph; the input is left untouched."""
    doomed: set[str] = set()
    for node in g.nodes():
        if rules.drop_label_entities and node.kind == EntityKind.LABEL:
            doomed.add(node.id)
        elif rules.drop_schema_nodes and node.kind in SCHEMA_KINDS:
            doomed.add(node.id)

    survivors = [n.id for n in g.nodes() if n.id not in doomed]
    if rules.drop_degree_one:
        degree: dict[str, int] = dict.fromkeys(survivors, 0)
        for source, _, target in g.edges():
            if source in degree and target in degree:
                degree[source] += 1
                degree[target] += 1
        doomed.update(v for v in survivors if degree[v] == 1)

    pruned = g.__class__()
    for node in g.nodes():
        if node.id not in doomed:
            pruned.add_node(node)
    for source, predicate, target in g.edges():
        if source not in doomed and target not in doomed:
            pruned.add_edge(source, predicate, target)
    return pruned


def export_graph(g: Multigraph, triples_path, nodes_path) -> None:
    """Write the graph as flat files: an edge list and a node manifest.

    Edges: ``<source>\\t<predicate>\\t<target>``, sorted lexicographically.
    Nodes: ``<id>\\t<kind>\\t<label>`` where the label falls back from the
    ``label`` attribute to ``title`` to the empty string. Deterministic output
    suitable for golden-file comparison.
    """

    def clean(text: str) -> str:
        return text.replace("\t", " ").replace("\n", " ")

    with open(triples_path, "w", encoding="utf-8", newline="\n") as fh:
        for source, predicate, target in sorted(g.edges()):
            fh.write(f"{clean(source)}\t{clean(predicate)}\t{clean(target)}\n")
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        for node_id in sorted(g.node_ids()):
            node = g.node(node_id)
            label = str(node.attrs.get("label") or node.attrs.get("title") or "")
            fh.write(f"{clean(node_id)}\t{clean(node.kind)}\t{clean(label)}\n")


def read_graph(triples_path, nodes_path) -> CatalogGraph:
    """Load a graph previously written by :func:`export_graph`.

    Only the label attribute survives the round trip; other node attributes
    are not part of the flat format.
    """
    catalog = CatalogGraph()
    with open(nodes_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{nodes_path}:{lineno}: expected 3 fields")
            node_id, kind, label = parts
            attrs = {"label": label} if label else {}
            catalog.add_node(Node(node_id, kind, attrs))
    with open(triples_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{triples_path}:{lineno}: expected 3 fields")
            source, predicate, target = parts
            try:
                catalog.add_edge(source, predicate, target)
            except GraphError as exc:
                raise GraphError(f"{triples_path}:{lineno}: {exc}") from None
    return catalog

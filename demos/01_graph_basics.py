"""Build a catalog graph, induce a user profile, and grow it with a candidate.

The catalog is a typed directed multigraph: recommendable items (tracks,
movies, TV shows) plus the entities that describe them (artists, genres, ...).
A user's profile subgraph contains the items they interacted with, every
directly adjacent entity, and all catalog edges among those nodes.
"""

from kgrerank import (
    MetricKind,
    NeighborhoodMode,
    RecommendationList,
    Triple,
    build_catalog,
    evaluate_metrics,
    induce_profile_subgraph,
    prune_graph,
)

# A tiny music catalog: three tracks, two artists, one genre.
triples = [
    Triple("t_100", "maker", "a_rick", "track", "artist"),
    Triple("t_100", "genre", "disco", "track", "genre"),
    Triple("t_200", "maker", "a_rick", "track", "artist"),
    Triple("t_300", "maker", "a_kate", "track", "artist"),
    Triple("t_300", "genre", "disco", "track", "genre"),
]
catalog = build_catalog(triples)
print(f"catalog: {catalog.num_nodes} nodes, {catalog.num_edges} edges")
print(f"recommendable items: {sorted(catalog.recommendable)}")

# A user who listened to t_100 gets a profile with the track, its artist and
# its genre.
profile = induce_profile_subgraph(catalog, {"t_100"}, user="demo_user")
print(f"\nprofile subgraph: {profile.graph.num_nodes} nodes, "
      f"{profile.graph.num_edges} edges")

# The re-ranker scores each candidate on the profile extended by it, and
# never mutates the original profile. The mode picks the nodes the candidate
# adds: the default adds the candidate and its catalog neighbors,
# EDGES_TO_EXISTING only the candidate. The extension is the catalog subgraph
# those nodes induce together with the profile's, so in edges mode the
# candidate brings only its links to nodes the user has. The node and edge
# counts the re-ranker reports for t_300 show what it adds.
candidate = RecommendationList(user="demo_user", items=(("t_300", 1.0),))
counts = [MetricKind.NODE_COUNT, MetricKind.EDGE_COUNT]
for mode in (NeighborhoodMode.CLOSED_NEIGHBORHOOD, NeighborhoodMode.EDGES_TO_EXISTING):
    (scores,) = evaluate_metrics(catalog, [(profile, candidate)], counts, mode)
    nodes, edges = (int(scores[kind][0].metric_value.value) for kind in counts)
    print(f"extend with t_300 [{mode.value:>6}]: "
          f"+{nodes - profile.graph.num_nodes} nodes, "
          f"+{edges - profile.graph.num_edges} edges")
print(f"original profile still has {profile.graph.num_nodes} nodes")

# Cleanup for noisy catalogs: one single-pass removal of degree-1 nodes.
pruned = prune_graph(catalog)
print(f"\nafter degree-1 pruning: {pruned.num_nodes} nodes "
      f"(dropped {catalog.num_nodes - pruned.num_nodes})")

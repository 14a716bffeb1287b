"""Build a catalog graph, induce a user profile, and grow it with a candidate.

The catalog is a typed directed multigraph: recommendable items (tracks,
movies, TV shows) plus the entities that describe them (artists, genres, ...).
A user's profile subgraph contains the items they interacted with, every
directly adjacent entity, and all catalog edges among those nodes.
"""

from kgrerank import (
    NeighborhoodMode,
    Triple,
    build_catalog,
    extend_subgraph,
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

# Extending with a candidate never mutates the original profile. The mode
# picks the nodes the candidate adds: the default adds the candidate and its
# catalog neighbors, EDGES_TO_EXISTING only the candidate. The extension is
# the catalog subgraph those nodes induce together with the profile's, so in
# edges mode the candidate brings only its links to nodes the user has.
for mode in (NeighborhoodMode.CLOSED_NEIGHBORHOOD, NeighborhoodMode.EDGES_TO_EXISTING):
    extended = extend_subgraph(profile, catalog, "t_300", mode)
    print(f"extend with t_300 [{mode.value:>6}]: "
          f"+{extended.graph.num_nodes - profile.graph.num_nodes} nodes, "
          f"+{extended.graph.num_edges - profile.graph.num_edges} edges")
print(f"original profile still has {profile.graph.num_nodes} nodes")

# Cleanup for noisy catalogs: one single-pass removal of degree-1 nodes.
pruned = prune_graph(catalog)
print(f"\nafter degree-1 pruning: {pruned.num_nodes} nodes "
      f"(dropped {catalog.num_nodes - pruned.num_nodes})")

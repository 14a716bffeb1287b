"""Re-ranking a recommendation list by metric impact on the profile subgraph.

The profile here contains two tracks by one artist in one genre. The base
recommender scores two more tracks by the same artist highest ("similar"
candidates s1, s2). Two other candidates bring new artists that also link
back into the profile ("diverse" candidates d1, d2): they open alternative
paths, so the profile graph stays decentralized when they join. Sorting
ascending by betweenness concentration therefore lifts them to the top.
"""

from kgrerank import (
    MetricKind,
    RecommendationList,
    SortOrder,
    Triple,
    build_catalog,
    induce_profile_subgraph,
    rerank,
)

T, A, G = "track", "artist", "genre"
catalog = build_catalog([
    Triple("t1", "maker", "a1", T, A),
    Triple("t1", "genre", "g1", T, G),
    Triple("t2", "maker", "a1", T, A),
    Triple("t2", "genre", "g1", T, G),
    # similar candidates: more tracks by the profile's artist
    Triple("s1", "maker", "a1", T, A),
    Triple("s2", "maker", "a1", T, A),
    # diverse candidates: new artists that still connect back to the profile
    Triple("d1", "maker", "e1", T, A),
    Triple("d1", "genre", "g1", T, G),
    Triple("e1", "genre", "g1", A, G),
    Triple("e1", "influenced_by", "a1", A, A),
    Triple("d2", "maker", "e2", T, A),
    Triple("d2", "genre", "g1", T, G),
    Triple("e2", "influenced_by", "a1", A, A),
])

profile = induce_profile_subgraph(catalog, {"t1", "t2"}, user="u1")
print(f"profile: {profile.graph.num_nodes} nodes, {profile.graph.num_edges} edges")

# The base recommender prefers the similar items.
recs = RecommendationList(
    user="u1", items=(("s1", 0.9), ("s2", 0.8), ("d1", 0.4), ("d2", 0.3))
)
print("base order:", ", ".join(recs.item_ids()))

BETW, NODES = MetricKind.BETWEENNESS, MetricKind.NODE_COUNT
ASC, DESC = SortOrder.ASCENDING, SortOrder.DESCENDING
# One call evaluates every candidate once for all metrics, then orders the
# evaluations once per (metric, order) pair. It takes (profile, list) pairs,
# one per user, and returns one result per user: here, a user of one.
(ranked,) = rerank(catalog, [(profile, recs)], [BETW, NODES], [ASC, DESC])

print("\nre-ranked (ascending betweenness concentration):")
for rank, e in enumerate(ranked[BETW, ASC], start=1):
    print(f"  #{rank} {e.item}  metric={e.metric_value.value:.4f}  "
          f"(base rank {e.original_rank})")

# Descending order favors the candidates that centralize the profile instead.
print("\ndescending order:", ", ".join(e.item for e in ranked[BETW, DESC]))

# Any metric plugs into the same machinery.
print("ascending node count:", ", ".join(e.item for e in ranked[NODES, ASC]))

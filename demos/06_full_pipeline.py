"""End-to-end experiment on the bundled synthetic dataset.

Two hundred tracks split into two acoustic clusters; twenty users listen
mostly inside the first one. The bias baseline therefore recommends familiar
first-cluster tracks. Re-ranking ascending by betweenness concentration
surfaces second-cluster candidates, and unexpectedness against the user
history jumps while nDCG against the base list drops: the lists get more
surprising and less expectable at the same time.

The same experiment is available from the shell:

    kgrerank run --dataset synthetic --metric betweenness --order asc \\
        --mode closed --top-n 100 --k 10 --seed 7 --out runs/demo
"""

import statistics

from kgrerank import (
    BaselineRecommender,
    MetricKind,
    SortOrder,
    SyntheticConfig,
    build_catalog,
    ild,
    induce_profile_subgraph,
    lookup_features,
    make_synthetic_dataset,
    ndcg_at_k,
    rerank,
    scale_ratings,
    unexpectedness,
)

data = make_synthetic_dataset(SyntheticConfig(seed=7))
catalog = build_catalog(data.triples)
print(f"catalog: {catalog.num_nodes} nodes, {catalog.num_edges} edges, "
      f"{len(catalog.recommendable)} recommendable tracks")

model = BaselineRecommender().fit(scale_ratings(data.interactions))
histories: dict[str, set[str]] = {}
for interaction in data.interactions:
    histories.setdefault(interaction.user, set()).add(interaction.item)

K = 10
BETW, ASC = MetricKind.BETWEENNESS, SortOrder.ASCENDING
users = sorted(histories)
lists = {user: model.recommend(user, n=100) for user in users}
# One call reranks every user; it scores them in groups, so candidates of
# different users that attach the same shape share one kernel run.
all_ranked = rerank(
    catalog,
    ((induce_profile_subgraph(catalog, histories[user], user=user), lists[user])
     for user in users),
    [BETW], [ASC], top_n=100,
)

base_unexp, rr_unexp, base_ild, rr_ild, agreements = [], [], [], [], []
for user, ranked in zip(users, all_ranked):
    recs = lists[user]
    history_vectors = lookup_features(sorted(histories[user]), data.features)

    base_top = lookup_features(recs.top(K), data.features)
    base_unexp.append(unexpectedness(history_vectors, base_top))
    base_ild.append(ild(base_top))

    reranked = [e.item for e in ranked[BETW, ASC]]
    rr_top = lookup_features(reranked[:K], data.features)
    rr_unexp.append(unexpectedness(history_vectors, rr_top))
    rr_ild.append(ild(rr_top))
    agreements.append(ndcg_at_k(recs, reranked, K))

print(f"\nmeans over {len(histories)} users (top-{K} lists):")
print(f"  unexpectedness  base {statistics.fmean(base_unexp):.3f}  ->  "
      f"betweenness-asc {statistics.fmean(rr_unexp):.3f}")
print(f"  diversity (ILD) base {statistics.fmean(base_ild):.3f}  ->  "
      f"betweenness-asc {statistics.fmean(rr_ild):.3f}")
print(f"  nDCG@{K} against the base list: {statistics.fmean(agreements):.3f} "
      "(low = strong perturbation)")

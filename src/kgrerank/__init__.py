"""Re-rank recommendation lists by their impact on profile-graph metrics.

The package models an item catalog and each user's interaction history as
knowledge graphs, scores every recommendation candidate by the change it
induces in a complex-network metric of the user's profile subgraph, and
reorders the list accordingly. Distribution-valued metrics (degree, PageRank,
betweenness, closeness) are collapsed to a concentration scalar via the
normalized Herfindahl-Hirschman index. Ingestion, two baseline recommenders
and a beyond-accuracy evaluation suite round out the pipeline.
"""

__version__ = "0.1.0"

from .graph import (
    CatalogGraph,
    EntityKind,
    ExtensionDelta,
    GraphError,
    Multigraph,
    NeighborhoodMode,
    Node,
    OverlayView,
    ProfileSubgraph,
    PruneRules,
    Triple,
    build_catalog,
    closed_neighborhood,
    export_graph,
    extend_subgraph,
    extension_delta,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)
from .metrics import (
    ConvergenceError,
    MetricError,
    MetricKind,
    MetricValue,
    betweenness,
    centrality_to_shares,
    closeness,
    compute_metric,
    hhi,
    hhi_normalized,
    pagerank,
)
from .rerank import (
    RankedItem,
    RecommendationList,
    RerankConfig,
    RerankError,
    SortOrder,
    baseline_metric,
    evaluate_candidates,
    evaluate_metrics,
    order_candidates,
    rank_candidates,
    rerank,
)
from .recsys import (
    BaselineRecommender,
    Interaction,
    ItemKnnRecommender,
    NotFittedError,
    RatingMatrix,
    RunFileError,
    anti_testset,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)
from .evaluation import (
    EvalRow,
    FeatureVector,
    cosine_distance,
    emit_report,
    ild,
    lookup_features,
    ndcg_at_k,
    unexpectedness,
    write_qrels,
    write_trec_run,
)
from .ingest import (
    IngestError,
    MergeResult,
    SyntheticConfig,
    SyntheticProfileConfig,
    TitleRecord,
    generate_profiles,
    load_netflix,
    make_synthetic_dataset,
    merge_lastfm,
    sample_users,
    split_interactions,
)

__all__ = [
    "__version__",
    # graph
    "CatalogGraph", "EntityKind", "ExtensionDelta", "GraphError", "Multigraph",
    "NeighborhoodMode", "Node", "OverlayView", "ProfileSubgraph", "PruneRules",
    "Triple", "build_catalog", "closed_neighborhood", "export_graph",
    "extend_subgraph", "extension_delta", "induce_profile_subgraph",
    "prune_graph", "read_graph",
    # metrics
    "ConvergenceError", "MetricError", "MetricKind", "MetricValue",
    "betweenness", "centrality_to_shares", "closeness", "compute_metric",
    "hhi", "hhi_normalized", "pagerank",
    # rerank
    "RankedItem", "RecommendationList", "RerankConfig", "RerankError",
    "SortOrder", "baseline_metric", "evaluate_candidates", "evaluate_metrics",
    "order_candidates", "rank_candidates", "rerank",
    # recsys
    "BaselineRecommender", "Interaction", "ItemKnnRecommender", "NotFittedError",
    "RatingMatrix", "RunFileError", "anti_testset",
    "load_external_recommendations", "scale_ratings", "write_recommendations",
    # evaluation
    "EvalRow", "FeatureVector", "cosine_distance", "emit_report", "ild",
    "lookup_features", "ndcg_at_k", "unexpectedness", "write_qrels",
    "write_trec_run",
    # ingest
    "IngestError", "MergeResult", "SyntheticConfig", "SyntheticProfileConfig",
    "TitleRecord", "generate_profiles", "load_netflix", "make_synthetic_dataset",
    "merge_lastfm", "sample_users", "split_interactions",
]

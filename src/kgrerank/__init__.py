"""Re-rank recommendation lists by their impact on profile-graph metrics.

The package models an item catalog and each user's interaction history as
knowledge graphs, scores every recommendation candidate by the change it
induces in a complex-network metric of the user's profile subgraph, and
reorders the list accordingly. Distribution-valued metrics (degree, PageRank,
betweenness, closeness) are collapsed to a concentration scalar via the
normalized Herfindahl-Hirschman index. Ingestion, a bias baseline
recommender and a beyond-accuracy evaluation suite round out the pipeline.
"""

__version__ = "0.1.0"

from .graph import (
    CatalogGraph,
    EntityKind,
    GraphError,
    Multigraph,
    NeighborhoodMode,
    Node,
    ProfileSubgraph,
    Triple,
    build_catalog,
    export_graph,
    induce_profile_subgraph,
    prune_graph,
    read_graph,
)
from .metrics import (
    ConvergenceError,
    MetricError,
    MetricKind,
    MetricValue,
    compute_metric,
)
from .rerank import (
    CandidateEvaluation,
    RecommendationList,
    RerankError,
    SortOrder,
    evaluate_candidates,
    evaluate_metrics,
    rerank,
)
from .recsys import (
    BaselineRecommender,
    Interaction,
    NotFittedError,
    RatingMatrix,
    RunFileError,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)
from .evaluation import (
    EvalRow,
    emit_report,
    evaluate_user,
    feature_vector,
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
    generate_profiles,
    load_netflix,
    make_synthetic_dataset,
    merge_lastfm,
    sample_users,
)

__all__ = [
    "__version__",
    # graph
    "CatalogGraph", "EntityKind", "GraphError", "Multigraph",
    "NeighborhoodMode", "Node", "ProfileSubgraph", "Triple",
    "build_catalog", "export_graph", "induce_profile_subgraph", "prune_graph",
    "read_graph",
    # metrics
    "ConvergenceError", "MetricError", "MetricKind", "MetricValue",
    "compute_metric",
    # rerank
    "CandidateEvaluation", "RecommendationList", "RerankError", "SortOrder",
    "evaluate_candidates", "evaluate_metrics", "rerank",
    # recsys
    "BaselineRecommender", "Interaction", "NotFittedError", "RatingMatrix",
    "RunFileError", "load_external_recommendations", "scale_ratings",
    "write_recommendations",
    # evaluation
    "EvalRow", "emit_report", "evaluate_user",
    "feature_vector", "ild", "lookup_features", "ndcg_at_k", "unexpectedness",
    "write_qrels", "write_trec_run",
    # ingest
    "IngestError", "MergeResult", "SyntheticConfig", "SyntheticProfileConfig",
    "generate_profiles", "load_netflix", "make_synthetic_dataset", "merge_lastfm",
    "sample_users",
]

"""Beyond-accuracy measures: diversity, unexpectedness, and rank agreement.

Tracks are 8-dimensional acoustic feature rows in [0, 1], built and checked
by ``feature_vector``; cosine distance between them drives intra-list diversity (how varied is one list) and
unexpectedness (how far do recommendations sit from the user's history).
nDCG@k measures how much a re-ranked list still agrees with its base list.
"""

import tempfile
from pathlib import Path

from kgrerank import (
    EvalRow,
    RecommendationList,
    emit_report,
    feature_vector,
    ild,
    ndcg_at_k,
    unexpectedness,
)

mellow = feature_vector([0.2, 0.1, 0.05, 0.9, 0.8, 0.1, 0.3, 0.2])
mellow2 = feature_vector([0.25, 0.15, 0.05, 0.85, 0.75, 0.1, 0.35, 0.25])
club = feature_vector([0.95, 0.9, 0.1, 0.05, 0.1, 0.3, 0.8, 0.9])
club2 = feature_vector([0.9, 0.85, 0.15, 0.1, 0.05, 0.25, 0.85, 0.85])

# A pair's cosine distance is the ILD of the pair: both ordered pairs take it.
print("distance(mellow, mellow2):", round(ild([mellow, mellow2]), 4))
print("distance(mellow, club):   ", round(ild([mellow, club]), 4))

# A list of near-duplicates is not diverse; mixing the clusters is.
print("\nILD of four mellow-ish tracks: ",
      round(ild([mellow, mellow2, mellow, mellow2]), 4))
print("ILD of a mellow/club mix:      ",
      round(ild([mellow, club, mellow2, club2]), 4))

# Unexpectedness compares recommendations against the whole history.
history = [mellow, mellow2, mellow]
print("\nunexpectedness of more mellow: ",
      round(unexpectedness(history, [mellow2]), 4))
print("unexpectedness of club tracks: ",
      round(unexpectedness(history, [club, club2]), 4))

# nDCG@k with the base ranking as the relevance judgement: identical lists
# score 1, disjoint top-k scores 0.
base = RecommendationList(
    user="u", items=(("a", 5.0), ("b", 4.0), ("c", 3.0), ("d", 2.0), ("e", 1.0))
)
print("\nnDCG@3 of the base order itself:", ndcg_at_k(base, ["a", "b", "c"], 3))
print("nDCG@3 of a mild swap:          ",
      round(ndcg_at_k(base, ["b", "a", "c"], 3), 4))
print("nDCG@3 of unrelated items:      ", ndcg_at_k(base, ["x", "y", "z"], 3))

# Reports aggregate per-user rows into a deterministic CSV pair.
rows = [
    EvalRow("u1", "betweenness", "asc", 0.42, 0.63, 0.10),
    EvalRow("u2", "betweenness", "asc", 0.38, 0.57, 0.05),
    EvalRow("u1", "base", "-", 0.12, 0.08, 1.0),
    EvalRow("u2", "base", "-", 0.15, 0.09, 1.0),
]
with tempfile.TemporaryDirectory() as tmp:
    report = Path(tmp) / "report.csv"
    summary = Path(tmp) / "summary.csv"
    emit_report(rows, report, summary)
    print("\nreport.csv:")
    print(report.read_text(encoding="utf-8"))
    print("summary.csv (means per metric and order):")
    print(summary.read_text(encoding="utf-8"))

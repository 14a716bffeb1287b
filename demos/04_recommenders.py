"""Base recommender: implicit counts to ratings, biases, run files.

The re-ranking layer treats the recommender as a black box, so any system
that can emit a flat run file plugs in. One simple built-in keeps the
pipeline self-contained.
"""

import tempfile
from pathlib import Path

from kgrerank import (
    BaselineRecommender,
    Interaction,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)

# Play counts become explicit ratings per user: the most-played item maps to
# 1000, the least-played to 1.
interactions = [
    Interaction("ana", "t1", 40), Interaction("ana", "t2", 10),
    Interaction("ana", "t3", 1),
    Interaction("bob", "t2", 7), Interaction("bob", "t3", 7),
    Interaction("bob", "t4", 21),
    Interaction("cat", "t1", 3), Interaction("cat", "t4", 9),
    Interaction("cat", "t5", 27),
]
# ana played t1 40 times, t2 10 times and t3 once, so ana's ratings are
# 1000, 1 + 999 * 9 / 39 = 231.5 and 1. The matrix holds them only as arrays
# for the model to read.
matrix = scale_ratings(interactions)

# Bias baseline: global mean plus user and item deviations. The candidate
# pool for a user is everything rated by anyone that the user has not rated
# themselves, and the model scores all of it.
baseline = BaselineRecommender().fit(matrix)
print("baseline scores for ana's candidates:")
for item, score in baseline.recommend("ana").items:
    print(f"  {item}: {score:7.1f}")

# Recommendation lists are sorted, truncated, and re-loadable from disk.
users = sorted({interaction.user for interaction in interactions})
lists = {user: baseline.recommend(user, n=3) for user in users}
print("\ntop-3 lists from the baseline model:")
for user, lst in lists.items():
    print(f"  {user}: {', '.join(lst.item_ids())}")

with tempfile.TemporaryDirectory() as tmp:
    run_path = Path(tmp) / "base_run.txt"
    write_recommendations(lists, run_path)
    print("\nrun file contents:")
    print(run_path.read_text(encoding="utf-8"))
    reloaded = load_external_recommendations(run_path)
    assert reloaded["ana"].items == lists["ana"].items
    print("round-trip through the run format: ok")

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrerank import (
    BaselineRecommender,
    Interaction,
    NotFittedError,
    RatingMatrix,
    RecommendationList,
    RunFileError,
    load_external_recommendations,
    scale_ratings,
    write_recommendations,
)

from conftest import matrix_ratings
from oracles import reference_baseline, reference_predict, reference_recommend


def interactions(*rows):
    return [Interaction(u, i, c) for u, i, c in rows]


def matrix_from(rows):
    return RatingMatrix(rows)


class TestScaleRatings:
    def test_endpoints(self):
        m = scale_ratings(interactions(("u", "a", 10), ("u", "b", 1)))
        assert matrix_ratings(m) == {"u": {"a": 1000.0, "b": 1.0}}

    def test_constant_counts_all_max(self):
        m = scale_ratings(interactions(("u", "a", 5), ("u", "b", 5)))
        assert matrix_ratings(m) == {"u": {"a": 1000.0, "b": 1000.0}}

    def test_three_point_scale(self):
        m = scale_ratings(interactions(("u", "a", 1), ("u", "b", 2), ("u", "c", 3)))
        row = matrix_ratings(m)["u"]
        assert row["a"] == 1.0
        assert row["b"] == pytest.approx(500.5)
        assert row["c"] == 1000.0

    def test_duplicate_pairs_aggregate(self):
        m = scale_ratings(
            interactions(("u", "a", 1), ("u", "a", 2), ("u", "b", 1))
        )
        # a's aggregated count is 3
        assert matrix_ratings(m) == {"u": {"a": 1000.0, "b": 1.0}}

    def test_per_user_max_is_always_1000(self):
        rng = random.Random(41)
        rows = [
            Interaction(f"u{u}", f"i{rng.randint(0, 20)}", rng.randint(1, 99))
            for u in range(8)
            for _ in range(rng.randint(1, 12))
        ]
        m = scale_ratings(rows)
        for row in matrix_ratings(m).values():
            values = list(row.values())
            assert max(values) == 1000.0
            assert all(1.0 <= v <= 1000.0 for v in values)

    def test_matrix_holds_the_ratings_given_without_empty_users(self):
        rows = {"u2": {"b": 3.0, "a": 1000.0}, "u0": {}, "u1": {"c": 1.0}}
        assert list(matrix_ratings(RatingMatrix(rows)).items()) == [
            ("u1", {"c": 1.0}),
            ("u2", {"a": 1000.0, "b": 3.0}),
        ]

    def test_rating_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            RatingMatrix({"u": {"a": 1001.0}})

    def test_interaction_count_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            Interaction("u", "a", 0)


def fitted_score(model, user, item):
    """The clamped ``(mu + b_user) + b_item`` of a fitted model for a user
    and an item it has seen, read from the fitted arrays as ``recommend``
    reads them, so a rated pair can be scored too."""
    matrix = model._matrix
    u, i = matrix._user_pos[user], matrix._item_pos[item]
    score = (model._mu + model._user_bias[u]) + model._item_bias[i]
    return min(1000.0, max(1.0, float(score)))


class TestBaselineRecommender:
    def test_single_rating_predicts_itself(self):
        model = BaselineRecommender().fit(matrix_from({"u": {"a": 500.0}}))
        assert fitted_score(model, "u", "a") == pytest.approx(500.0)

    def test_identical_ratings_reproduced_everywhere(self):
        rows = {u: {i: 700.0 for i in ("a", "b", "c")} for u in ("u1", "u2")}
        model = BaselineRecommender().fit(matrix_from(rows))
        for u in ("u1", "u2"):
            for i in ("a", "b", "c"):
                assert fitted_score(model, u, i) == pytest.approx(700.0)
        # and where a user has unrated items, ``recommend`` scores them alike
        rows = {"u1": {"a": 700.0, "b": 700.0}, "u2": {"b": 700.0, "c": 700.0}}
        model = BaselineRecommender().fit(matrix_from(rows))
        for u in rows:
            (item, score), = model.recommend(u).items
            assert score == pytest.approx(700.0)

    def test_toy_matrix_matches_ridge_solve(self):
        # predictions frozen from the damped least-squares bias solve
        # (normal equations (A^T A + damping I) b = A^T (r - mu))
        rows = {
            "u1": {"i1": 800.0, "i2": 400.0},
            "u2": {"i1": 600.0, "i3": 200.0},
            "u3": {"i2": 1000.0, "i3": 500.0},
        }
        model = BaselineRecommender(epochs=200).fit(matrix_from(rows))
        expected = {
            ("u1", "i1"): 604.7785547785548,
            ("u1", "i2"): 599.8834498834499,
            ("u1", "i3"): 543.939393939394,
            ("u2", "i1"): 576.1072261072262,
            ("u2", "i2"): 571.2121212121212,
            ("u2", "i3"): 515.2680652680654,
            ("u3", "i1"): 634.8484848484849,
            ("u3", "i2"): 629.9533799533799,
            ("u3", "i3"): 574.009324009324,
        }
        for (user, item), value in expected.items():
            assert fitted_score(model, user, item) == pytest.approx(value, abs=1e-6)
        # each user has one unrated item, and ``recommend`` scores it alike
        for user, row in rows.items():
            (item, score), = model.recommend(user).items
            assert item not in row
            assert score == pytest.approx(expected[user, item], abs=1e-6)

    def test_prediction_clamped(self):
        rows = {"u1": {"a": 1000.0, "b": 1000.0}, "u2": {"a": 1000.0}}
        model = BaselineRecommender().fit(matrix_from(rows))
        assert fitted_score(model, "u1", "a") <= 1000.0
        (item, score), = model.recommend("u2").items
        assert item == "b" and score <= 1000.0

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            BaselineRecommender().recommend("u")


class TestAntiTestset:
    """The candidates ``recommend`` scores: every item someone rated that the
    user did not (``RatingMatrix._unrated``)."""

    def test_user_rated_everything(self):
        m = matrix_from({"u1": {"a": 10.0, "b": 20.0}, "u2": {"a": 30.0}})
        assert BaselineRecommender().fit(m).recommend("u1").items == ()

    def test_unknown_user_gets_all_rated_items(self):
        m = matrix_from({"u1": {"a": 10.0, "b": 20.0}})
        assert m._unrated("nobody").tolist() == [True, True]

    def test_set_difference(self):
        m = matrix_from(
            {
                "u1": {"a": 10.0, "b": 20.0},
                "u2": {"c": 5.0, "d": 5.0, "e": 5.0},
            }
        )
        model = BaselineRecommender().fit(m)
        assert set(model.recommend("u1").item_ids()) == {"c", "d", "e"}


class TestRecommend:
    def test_short_anti_testset_returned_whole(self):
        m = matrix_from({"u1": {"a": 500.0}, "u2": {"b": 600.0, "c": 700.0}})
        model = BaselineRecommender().fit(m)
        assert len(model.recommend("u1", n=100)) == 2

    def test_deterministic_across_fits(self):
        rows = {
            "u1": {"a": 900.0, "b": 100.0},
            "u2": {"b": 500.0, "c": 700.0},
            "u3": {"a": 300.0, "c": 400.0, "d": 800.0},
        }
        first = BaselineRecommender().fit(matrix_from(rows)).recommend("u1", 10)
        second = BaselineRecommender().fit(matrix_from(rows)).recommend("u1", 10)
        assert first.items == second.items

    def test_top_item_is_argmax(self):
        rows = {
            "u1": {"a": 900.0},
            "u2": {"b": 950.0, "c": 100.0},
            "u3": {"b": 990.0, "d": 500.0},
        }
        model = BaselineRecommender().fit(matrix_from(rows))
        predict = partial(reference_predict, reference_baseline(rows), "u1")
        best = max(["b", "c", "d"], key=predict)
        assert model.recommend("u1", 10).items[0][0] == best

    def test_never_returns_rated_items(self):
        rng = random.Random(43)
        rows = {}
        for u in range(6):
            rows[f"u{u}"] = {
                f"i{i}": float(rng.randint(1, 1000))
                for i in rng.sample(range(12), rng.randint(2, 6))
            }
        model = BaselineRecommender().fit(matrix_from(rows))
        for user, row in rows.items():
            recommended = set(model.recommend(user, 50).item_ids())
            assert recommended.isdisjoint(row)

    def test_unknown_user_rejected(self):
        model = BaselineRecommender().fit(matrix_from({"u": {"a": 500.0}}))
        with pytest.raises(ValueError, match="unknown user"):
            model.recommend("nobody")

    @pytest.mark.parametrize("n", [0, -1])
    def test_list_length_below_one_rejected(self, n):
        # three candidates: a negative n used to slice off the last ones
        rows = {"u1": {"a": 500.0}, "u2": {"b": 600.0, "c": 700.0, "d": 800.0}}
        model = BaselineRecommender().fit(matrix_from(rows))
        assert len(model.recommend("u1", 3)) == 3
        with pytest.raises(ValueError) as info:
            model.recommend("u1", n)
        assert str(info.value) == f"n must be >= 1, got {n}"


USERS = [f"u{k}" for k in range(5)]
ITEMS = [f"i{k}" for k in range(7)]
# few distinct values, so that biases and scores often tie exactly
ratings = st.one_of(
    st.sampled_from([1.0, 250.0, 500.0, 1000.0]),
    st.floats(min_value=1.0, max_value=1000.0),
)
rating_rows = st.dictionaries(
    st.sampled_from(USERS),
    st.dictionaries(st.sampled_from(ITEMS), ratings, max_size=len(ITEMS)),
    max_size=len(USERS),
)
# (epochs, damping): the default, and light damping, under which
# predictions leave [1, 1000] and clamp
fits = st.sampled_from([(10, 10.0), (3, 1.0), (1, 0.5)])

# two items with the same single rater and rating tie for u1; u0 rated
# every item
TIED = {"u0": {"a": 500.0, "b": 500.0, "c": 300.0}, "u1": {"c": 700.0}}
# under damping 1, u1's prediction for i1 is about 1143 and u2's for i1
# about -142
CLAMP_HIGH = {"u0": {"i1": 1000.0, "i2": 1.0}, "u1": {"i2": 1000.0}}
CLAMP_LOW = {"u1": {"i0": 1000.0, "i1": 1.0}, "u2": {"i0": 1.0}}


def check_against_reference(rows, epochs=10, damping=10.0, n=10):
    """The array matrix, fit and recommend equal the scalar reference."""
    matrix = RatingMatrix(rows)
    assert matrix_ratings(matrix) == {user: row for user, row in rows.items() if row}
    model = BaselineRecommender(epochs=epochs, damping=damping).fit(matrix)
    fit = reference_baseline(rows, epochs, damping)
    mu, user_bias, item_bias = fit
    assert model._mu == mu
    assert dict(zip(matrix._user_pos, model._user_bias.tolist())) == user_bias
    assert dict(zip(matrix._items, model._item_bias.tolist())) == item_bias
    predict = partial(reference_predict, fit)
    for user in user_bias:
        expected = reference_recommend(rows, predict, user, n)
        assert list(model.recommend(user, n).items) == expected
    with pytest.raises(ValueError) as reference_error:
        reference_recommend(rows, predict, "ghost", n)
    with pytest.raises(ValueError) as error:
        model.recommend("ghost", n)
    assert str(error.value) == str(reference_error.value)
    return model


class TestAgainstReference:
    @given(rating_rows, fits, st.sampled_from([1, 3, 10]))
    @example({}, (10, 10.0), 10)
    @settings(max_examples=300, deadline=None)
    def test_fit_and_lists_equal_the_reference(self, rows, fit, n):
        epochs, damping = fit
        check_against_reference(rows, epochs, damping, n)

    def test_ties_break_on_item_id(self):
        model = check_against_reference(TIED)
        (a, score_a), (b, score_b), *_ = model.recommend("u1").items
        assert (a, b) == ("a", "b") and score_a == score_b

    def test_user_who_rated_every_item_gets_an_empty_list(self):
        model = check_against_reference(TIED)
        assert model.recommend("u0").items == ()

    @pytest.mark.parametrize(
        "rows, user, item, bound",
        [(CLAMP_HIGH, "u1", "i1", 1000.0), (CLAMP_LOW, "u2", "i1", 1.0)],
        ids=["at_1000", "at_1"],
    )
    def test_clamped_prediction(self, rows, user, item, bound):
        model = check_against_reference(rows, damping=1.0)
        mu, user_bias, item_bias = reference_baseline(rows, 10, 1.0)
        raw = mu + user_bias[user] + item_bias[item]
        assert raw > 1000.0 if bound == 1000.0 else raw < 1.0
        assert (item, bound) in model.recommend(user).items


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        rows = {
            "u1": {"a": 900.0, "b": 100.0},
            "u2": {"c": 500.0, "a": 700.0},
        }
        model = BaselineRecommender().fit(matrix_from(rows))
        lists = {u: model.recommend(u, 3) for u in rows}
        path = tmp_path / "run.txt"
        write_recommendations(lists, path)
        loaded = load_external_recommendations(path)
        assert set(loaded) == set(lists)
        for user in lists:
            assert loaded[user].items == lists[user].items

    @pytest.mark.parametrize(
        "user, item",
        [("u1", "my track"), ("u1", "b\tc"), ("u1", ""), ("my user", "b"),
         ("u1", "b\u00a0c")],
        ids=["space", "tab", "empty-item", "user-space", "no-break-space"],
    )
    def test_id_the_format_cannot_hold_is_rejected_before_writing(
        self, tmp_path, user, item
    ):
        # the run format splits its lines on whitespace, so such an id would
        # be written and then fail to read back
        path = tmp_path / "run.txt"
        path.write_text("kept\n", encoding="utf-8")
        lists = {
            "u0": RecommendationList(user="u0", items=(("a", 1.0),)),
            user: RecommendationList(user=user, items=((item, 0.9), ("z", 0.5))),
        }
        with pytest.raises(RunFileError) as info:
            write_recommendations(lists, path)
        assert str(info.value) == (
            f"{path}: user {user!r}, item {item!r}: "
            "an id must be non-empty and hold no whitespace"
        )
        assert path.read_text(encoding="utf-8") == "kept\n"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert load_external_recommendations(path) == {}

    def test_shuffled_scores_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u 1 a 1.0\nu 2 b 5.0\n", encoding="utf-8")
        with pytest.raises(RunFileError, match=":2"):
            load_external_recommendations(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u 1 a\n", encoding="utf-8")
        with pytest.raises(RunFileError, match="4 fields"):
            load_external_recommendations(path)

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u 1 a 3.0\nu 3 b 2.0\n", encoding="utf-8")
        with pytest.raises(RunFileError, match="expected 2"):
            load_external_recommendations(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u one a 3.0\n", encoding="utf-8")
        with pytest.raises(RunFileError, match="numeric"):
            load_external_recommendations(path)

    def test_nan_score_rejected_with_line(self, tmp_path):
        # NaN compares false both ways, so without the check the increase
        # from 0.2 to 0.9 would go unnoticed
        path = tmp_path / "bad.txt"
        path.write_text("u1 1 a 0.2\nu1 2 b nan\nu1 3 c 0.9\n", encoding="utf-8")
        with pytest.raises(RunFileError) as info:
            load_external_recommendations(path)
        assert str(info.value) == f"{path}:2: score is not a number"

    def test_repeated_item_rejected_with_both_lines(self, tmp_path):
        path = tmp_path / "dup.run"
        path.write_text("u1 1 a 0.9\nu2 1 a 0.9\nu1 2 b 0.5\nu1 3 a 0.1\n", encoding="utf-8")
        with pytest.raises(RunFileError) as info:
            load_external_recommendations(path)
        assert str(info.value) == f"{path}:4: repeated item 'a' for user 'u1', first on line 1"

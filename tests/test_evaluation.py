import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    EvalRow,
    RecommendationList,
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

from kgrerank.evaluation import FEATURE_NAMES, _distance_matrix
from oracles import brute_ild, brute_ndcg, brute_unexpectedness


def fv(*values):
    return feature_vector(values)


ONE_HOT_A = fv(1, 0, 0, 0, 0, 0, 0, 0)
ONE_HOT_B = fv(0, 1, 0, 0, 0, 0, 0, 0)

V1 = fv(0.9, 0.1, 0.0, 0.2, 0.1, 0.3, 0.5, 0.4)
V2 = fv(0.1, 0.8, 0.2, 0.0, 0.7, 0.2, 0.1, 0.3)
V3 = fv(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
V4 = fv(0.2, 0.2, 0.9, 0.1, 0.4, 0.6, 0.3, 0.2)


def random_vectors(rng, n):
    return [
        fv(*(rng.uniform(0.05, 1.0) for _ in range(8))) for _ in range(n)
    ]


feature_values = st.lists(
    st.floats(0.01, 1.0, allow_nan=False), min_size=8, max_size=8
)


# the per-pair formula on fresh 1-D arrays, as computed before the distance
# matrix; ild and unexpectedness must equal these sums bit for bit
def fresh_distance(xa, xb):
    norm = float(np.linalg.norm(xa) * np.linalg.norm(xb))
    return min(1.0, max(0.0, 1.0 - float(xa @ xb) / norm))


def ascending_total(distances):
    """The distances added left to right in ascending order, the one order
    that depends on neither the list's nor the history's."""
    total = 0.0
    for d in sorted(distances):
        total += d
    return total


def fresh_ild(arrays):
    n = len(arrays)
    if n <= 1:
        return 0.0
    total = ascending_total(
        fresh_distance(arrays[i], arrays[j]) for i in range(n) for j in range(n) if i != j
    )
    return total / (n * (n - 1))


def fresh_unexpectedness(history, recs):
    total = ascending_total(fresh_distance(r, h) for r in recs for h in history)
    return total / (len(recs) * len(history))


def distance(a, b):
    """The distance of one pair: the ILD of the two rows, whose two ordered
    pairs both take it."""
    return ild([a, b])


def feature_like_vectors(rng, n):
    """Vectors shaped like the workload features: exact zeros and ones among
    uniform and 3-decimal values, never all-zero."""
    out = []
    while len(out) < n:
        values = [
            rng.choice((0.0, 1.0, rng.random(), round(rng.random(), 3)))
            for _ in range(8)
        ]
        if any(values):
            out.append(fv(*values))
    return out


# matrix sizes for the exact tests: unpadded, the BLAS product differs from the
# per-pair dot in the tail rows and columns of large sizes not a multiple of 8
EXACT_SIZES = (1, 2, 7, 9, 191, 193, 250, 257, 419)

feature_or_zero = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
nonzero_vectors = st.lists(feature_or_zero, min_size=8, max_size=8).filter(any)


def with_component(index, value):
    values = [0.5] * 8
    values[index] = value
    return values


class TestFeatureValidator:
    @pytest.mark.parametrize(
        "values, message",
        [
            (with_component(0, math.nan), "feature danceability = nan outside [0, 1]"),
            (with_component(3, -0.1), "feature acousticness = -0.1 outside [0, 1]"),
            (with_component(7, 1.5), "feature tempo = 1.5 outside [0, 1]"),
            ([0.5] * 7, "expected 8 components, got 7"),
            ([0.5] * 9, "expected 8 components, got 9"),
        ],
        ids=["nan", "negative", "above-one", "seven", "nine"],
    )
    def test_rejected(self, values, message):
        with pytest.raises(ValueError) as info:
            feature_vector(values)
        assert str(info.value) == message

    def test_read_only_float64_row(self):
        row = feature_vector([0, 1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert row.dtype == np.float64
        assert row.shape == (8,)
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.25

    def test_components_follow_feature_names(self):
        assert dict(zip(FEATURE_NAMES, V1.tolist())) == {
            "danceability": 0.9, "energy": 0.1, "speechiness": 0.0,
            "acousticness": 0.2, "instrumentalness": 0.1, "liveness": 0.3,
            "valence": 0.5, "tempo": 0.4,
        }


class TestPairDistance:
    def test_identical_is_zero(self):
        assert distance(V1, V1) == 0.0

    def test_orthogonal_is_one(self):
        assert distance(ONE_HOT_A, ONE_HOT_B) == pytest.approx(1.0)

    def test_forty_five_degrees(self):
        a = fv(1, 1, 0, 0, 0, 0, 0, 0)
        # 1 - 1/sqrt(2)
        assert distance(a, ONE_HOT_A) == pytest.approx(
            0.29289321881345254, abs=1e-12
        )

    def test_zero_norm_rejected(self):
        zero = fv(0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="zero-norm"):
            distance(zero, V1)

    @given(feature_values, feature_values)
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        va, vb = fv(*a), fv(*b)
        d = distance(va, vb)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(distance(vb, va), abs=1e-12)

    @given(nonzero_vectors, nonzero_vectors)
    @settings(max_examples=100, deadline=None)
    def test_equals_fresh_array_formula(self, a, b):
        va, vb = fv(*a), fv(*b)
        assert distance(va, vb) == fresh_distance(va, vb)


class TestIld:
    def test_identical_vectors(self):
        assert ild([V1] * 5) == 0.0

    def test_two_orthogonal(self):
        assert ild([ONE_HOT_A, ONE_HOT_B]) == pytest.approx(1.0)

    def test_three_vector_fixture(self):
        # frozen from the brute-force double loop over all 6 ordered pairs
        assert ild([V1, V2, V3]) == pytest.approx(0.385598559404639, abs=1e-12)

    def test_small_lists_are_zero(self):
        assert ild([]) == 0.0
        assert ild([V1]) == 0.0

    def test_one_row_takes_no_distance(self):
        # no pair, so not even an all-zero row's undefined distance
        assert ild([fv(0, 0, 0, 0, 0, 0, 0, 0)]) == 0.0

    def test_permutation_invariant(self):
        rng = random.Random(51)
        vectors = random_vectors(rng, 6)
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        assert ild(shuffled) == ild(vectors)

    def test_bounded_by_max_pairwise_distance(self):
        rng = random.Random(52)
        vectors = random_vectors(rng, 7)
        top = max(
            distance(a, b) for a in vectors for b in vectors
        )
        assert ild(vectors) <= top + 1e-12


class TestUnexpectedness:
    def test_recs_identical_to_history(self):
        assert unexpectedness([V1, V1], [V1, V1, V1]) == 0.0

    def test_orthogonal_recs(self):
        assert unexpectedness([ONE_HOT_A], [ONE_HOT_B, ONE_HOT_B]) == pytest.approx(1.0)

    def test_two_by_two_fixture(self):
        # frozen from the brute-force double loop
        assert unexpectedness([V1, V2], [V3, V4]) == pytest.approx(
            0.3630685348476719, abs=1e-12
        )

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError, match="history"):
            unexpectedness([], [V1])
        with pytest.raises(ValueError, match="recommendation"):
            unexpectedness([V1], [])

    def test_within_pairwise_envelope(self):
        rng = random.Random(53)
        history = random_vectors(rng, 5)
        recs = random_vectors(rng, 4)
        distances = [distance(r, h) for r in recs for h in history]
        value = unexpectedness(history, recs)
        assert min(distances) - 1e-12 <= value <= max(distances) + 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(54)
        history = random_vectors(rng, 5)
        recs = random_vectors(rng, 4)
        h2, r2 = list(history), list(recs)
        rng.shuffle(h2)
        rng.shuffle(r2)
        assert unexpectedness(h2, r2) == unexpectedness(history, recs)


def base_list(*ids):
    n = len(ids)
    return RecommendationList(
        user="u", items=tuple((i, float(n - k)) for k, i in enumerate(ids))
    )


class TestNdcg:
    def test_identity_is_exactly_one(self):
        base = base_list("a", "b", "c", "d")
        assert ndcg_at_k(base, ["a", "b", "c", "d"], 3) == 1.0
        assert ndcg_at_k(base, ["a", "b", "c", "d"], 10) == 1.0

    def test_disjoint_is_exactly_zero(self):
        base = base_list(*(f"x{i}" for i in range(12)))
        reranked = [f"x{i}" for i in range(10, 12)] + ["y1", "y2"]
        assert ndcg_at_k(base, reranked, 2) == 0.0

    def test_reversed_top_three(self):
        # relevances (3, 2, 1); frozen from the direct formula evaluation
        base = base_list("a", "b", "c")
        assert ndcg_at_k(base, ["c", "b", "a"], 3) == pytest.approx(
            0.7899980042460358, abs=1e-12
        )

    def test_items_below_k_are_ignored(self):
        base = base_list("a", "b", "c", "d", "e")
        first = ndcg_at_k(base, ["b", "a", "c", "d", "e"], 3)
        second = ndcg_at_k(base, ["b", "a", "c", "e", "d"], 3)
        assert first == second
        # shuffling the base below rank k does not change the grades either
        swapped_base = base_list("a", "b", "c", "e", "d")
        assert ndcg_at_k(swapped_base, ["b", "a", "c", "d", "e"], 3) == first

    def test_short_reranked_prefix(self):
        base = base_list("a", "b", "c", "d")
        value = ndcg_at_k(base, ["b"], 3)
        assert 0.0 < value < 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            ndcg_at_k(base_list("a"), ["a"], 0)

    def test_k_defaults_to_ten(self):
        ids = [f"i{j}" for j in range(12)]
        base, reranked = base_list(*ids), [*ids[10:], *ids[:10]]
        assert ndcg_at_k(base, reranked) == ndcg_at_k(base, reranked, 10)
        assert ndcg_at_k(base, reranked) != ndcg_at_k(base, reranked, 11)

    def test_empty_base_is_exactly_one(self):
        # an empty base list leaves nothing to disagree about
        assert ndcg_at_k(base_list(), ["a", "b"], 3) == 1.0
        assert ndcg_at_k(base_list(), [], 3) == 1.0
        lists = [("base", "-", base_list()), ("m", "asc", base_list("a"))]
        assert [row.ndcg for row in evaluate_user("u", ["h"], lists, None, 3)] == [1.0, 1.0]


class TestBruteForceAgreement:
    def test_ild_and_unexpectedness_match_oracles(self):
        rng = random.Random(55)
        for _ in range(60):
            vectors = random_vectors(rng, rng.randint(2, 9))
            assert ild(vectors) == pytest.approx(brute_ild(vectors), abs=1e-12)
            split = rng.randint(1, len(vectors) - 1)
            value = unexpectedness(vectors[:split], vectors[split:])
            expected = brute_unexpectedness(vectors[:split], vectors[split:])
            assert value == pytest.approx(expected, abs=1e-12)

    def test_ndcg_matches_oracle(self):
        rng = random.Random(56)
        for _ in range(60):
            n = rng.randint(1, 15)
            ids = [f"i{j}" for j in range(n)]
            base = base_list(*ids)
            reranked = list(ids)
            rng.shuffle(reranked)
            k = rng.randint(1, 12)
            assert ndcg_at_k(base, reranked, k) == pytest.approx(
                brute_ndcg(ids, reranked, k), abs=1e-12
            )


class TestExactAgainstPerPairSums:
    @pytest.mark.parametrize("n", EXACT_SIZES)
    def test_ild(self, n):
        vectors = feature_like_vectors(random.Random(n), n)
        assert ild(vectors) == fresh_ild(vectors)

    @pytest.mark.parametrize("n", [n for n in EXACT_SIZES if n > 1])
    def test_unexpectedness(self, n):
        # n rows in the matrix: a ten-item list and its history, and a list
        # against a one-item history
        vectors = feature_like_vectors(random.Random(1000 + n), n)
        for r in (min(10, n - 1), n - 1):
            recs, history = vectors[:r], vectors[r:]
            assert unexpectedness(history, recs) == fresh_unexpectedness(history, recs)

    @pytest.mark.parametrize("n", EXACT_SIZES)
    def test_every_matrix_entry(self, n):
        # the sums above can absorb a one-ulp change in a single distance
        vectors = feature_like_vectors(random.Random(2000 + n), n)
        matrix = _distance_matrix(vectors)
        mismatched = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and matrix[i, j] != fresh_distance(vectors[i], vectors[j])
        ]
        assert mismatched == []

    @pytest.mark.parametrize("n", [n for n in EXACT_SIZES if n > 1])
    def test_stacked_rows_equal_row_lists(self, n):
        # the pipeline passes lookup_features' (n x 8) arrays
        vectors = feature_like_vectors(random.Random(3000 + n), n)
        stacked = np.array(vectors)
        assert ild(stacked) == ild(vectors)
        r = min(10, n - 1)
        assert unexpectedness(stacked[r:], stacked[:r]) == unexpectedness(
            vectors[r:], vectors[:r]
        )

    @given(
        st.lists(nonzero_vectors, min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=20),
        st.integers(1, 19),
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicates_and_one_item_histories(self, pool, picks, split):
        vectors = [fv(*pool[i % len(pool)]) for i in picks]
        assert ild(vectors) == fresh_ild(vectors)
        one = vectors[:1]
        assert unexpectedness(one, vectors) == fresh_unexpectedness(one, vectors)
        assert unexpectedness(vectors, one) == fresh_unexpectedness(vectors, one)
        if split < len(vectors):
            recs, history = vectors[:split], vectors[split:]
            assert unexpectedness(history, recs) == fresh_unexpectedness(history, recs)


def reference_rows(user, history, lists, features, k):
    """A user's rows from the one-list functions, list by list."""
    base = lists[0][2]
    rows = []
    if features is not None:
        history_rows = lookup_features(history, features)
        rows.append(EvalRow(user, "profile", "-", ild(history_rows), None, None))
    for metric, order, lst in lists:
        ids = list(lst.item_ids())
        ild_value = unexp_value = None
        if features is not None:
            top = lookup_features(ids[:k], features)
            ild_value, unexp_value = ild(top), unexpectedness(history_rows, top)
        rows.append(EvalRow(user, metric, order, ild_value, unexp_value, ndcg_at_k(base, ids, k)))
    return rows


def outcome(function, *args):
    """The rows, or the type and message of the error raised."""
    try:
        return function(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), exc.args[0]


@st.composite
def user_cases(draw, faults=False):
    """(history, lists, store, k): a history and a base list over a pool of
    items, and up to four lists drawn from the base list, any of them left
    out as for a user missing from that rerank file. With ``faults``, items
    may lack features, and the history and any list may be empty."""
    pool = [f"i{n}" for n in range(draw(st.integers(2, 40)))]
    vectors = feature_like_vectors(random.Random(draw(st.integers(0, 2**16))), len(pool))
    store = dict(zip(pool, vectors))
    least = 0 if faults else 1
    history = draw(st.lists(st.sampled_from(pool), min_size=least, max_size=30, unique=True))
    base = draw(st.permutations(pool))[: draw(st.integers(least, len(pool)))]
    lists = [("base", "-", base)]
    for metric in ("pagerank", "in_degree"):
        for order in ("asc", "desc"):
            if draw(st.booleans()):
                picked = draw(st.permutations(base))
                lists.append((metric, order, picked[: draw(st.integers(least, len(base)))]))
    if faults:
        for item in draw(st.lists(st.sampled_from(pool), max_size=6)):
            store.pop(item, None)
    lists = [(m, o, base_list(*ids)) for m, o, ids in lists]
    return history, lists, store, draw(st.integers(1, 12))


class TestEvaluateUser:
    @given(user_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_one_list_functions(self, case):
        # unequal lengths, lists shorter than k, list items in the history,
        # one-item histories and lists, items shared between lists
        history, lists, store, k = case
        assert evaluate_user("u", history, lists, store, k) == reference_rows(
            "u", history, lists, store, k
        )
        assert evaluate_user("u", history, lists, None, k) == reference_rows(
            "u", history, lists, None, k
        )

    @given(user_cases(faults=True))
    @settings(max_examples=200, deadline=None)
    def test_errors_equal_the_one_list_functions(self, case):
        history, lists, store, k = case
        assert outcome(evaluate_user, "u", history, lists, store, k) == outcome(
            reference_rows, "u", history, lists, store, k
        )

    def test_history_item_in_a_list_keeps_its_own_distance(self):
        # V3's distance to itself is not 0, and it counts in unexpectedness
        assert fresh_distance(V3, V3) > 0.0
        store = {"a": V1, "b": V2, "c": V3}
        lists = [("base", "-", base_list("c", "b")), ("m", "asc", base_list("b", "c"))]
        rows = evaluate_user("u", ["c", "a"], lists, store, 10)
        assert rows == reference_rows("u", ["c", "a"], lists, store, 10)
        assert rows[1].unexpectedness == fresh_unexpectedness([V3, V1], [V3, V2])

    @pytest.mark.parametrize("missing, named", [
        ({"z", "a"}, "z"),  # the base's top 2 before the other list's
        ({"z", "h2"}, "h2"),  # the history first
    ])
    def test_first_missing_item_in_lookup_order_is_named(self, missing, named):
        store = {i: v for i, v in zip(["a", "y", "z", "h1", "h2"], [V1, V2, V3, V4, V1])}
        for item in missing:
            del store[item]
        lists = [("base", "-", base_list("y", "z", "a")), ("m", "asc", base_list("a", "y"))]
        with pytest.raises(KeyError, match=f"no feature vector for item '{named}'"):
            evaluate_user("u", ["h1", "h2"], lists, store, 2)
        assert outcome(evaluate_user, "u", ["h1", "h2"], lists, store, 2) == outcome(
            reference_rows, "u", ["h1", "h2"], lists, store, 2
        )

    def test_item_below_k_in_every_list_needs_no_features(self):
        store = {"a": V1, "b": V2, "h": V3}
        lists = [("base", "-", base_list("a", "b", "x")), ("m", "asc", base_list("b", "a", "x"))]
        assert evaluate_user("u", ["h"], lists, store, 2) == reference_rows(
            "u", ["h"], lists, store, 2
        )
        with pytest.raises(KeyError, match="'x'"):
            evaluate_user("u", ["h"], lists, store, 3)

    @pytest.mark.parametrize("history, second, message", [
        ([], ("a",), "non-empty history"),
        (["h"], (), "non-empty recommendation list"),
    ])
    def test_empty_history_or_list_rejected(self, history, second, message):
        # the empty one fails before a later list's item without features
        store = {"a": V1, "h": V3}
        lists = [
            ("base", "-", base_list("a")),
            ("m", "asc", base_list(*second)),
            ("m", "desc", base_list("x")),
        ]
        with pytest.raises(ValueError, match=message):
            evaluate_user("u", history, lists, store, 5)

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate_user("u", ["h"], [("base", "-", base_list("a"))], None, 0)


class TestOrderFree:
    """ILD and unexpectedness are means over pairs, so they are functions of
    the list's and the history's item sets, bit for bit."""

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_one_list_functions(self, r, h, seed):
        rng = random.Random(seed)
        recs, history = feature_like_vectors(rng, r), feature_like_vectors(rng, h)
        shuffled_recs = rng.sample(recs, len(recs))
        shuffled_history = rng.sample(history, len(history))
        assert ild(shuffled_recs) == ild(recs)
        assert ild(shuffled_history) == ild(history)
        assert unexpectedness(shuffled_history, shuffled_recs) == unexpectedness(history, recs)

    @given(user_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_evaluate_user(self, case, rng):
        # each list's top k, and the history, in another order
        history, lists, store, k = case
        shuffled = []
        for metric, order, lst in lists:
            ids = list(lst.item_ids())
            top = rng.sample(ids[:k], len(ids[:k]))
            shuffled.append((metric, order, base_list(*top, *ids[k:])))
        rows = evaluate_user("u", history, lists, store, k)
        again = evaluate_user("u", rng.sample(history, len(history)), shuffled, store, k)
        assert [(r.ild, r.unexpectedness) for r in again] == [
            (r.ild, r.unexpectedness) for r in rows
        ]


class TestLookupFeatures:
    def test_missing_item_named(self):
        with pytest.raises(KeyError, match="t_missing"):
            lookup_features(["t_missing"], {})

    def test_resolves_in_order(self):
        store = {"a": V1, "b": V2}
        rows = lookup_features(["b", "a"], store)
        assert rows.shape == (2, 8)
        assert np.array_equal(rows, [V2, V1])

    def test_no_items_is_zero_rows(self):
        assert lookup_features([], {"a": V1}).shape == (0, 8)


class TestReports:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report([], path)
        assert path.read_text(encoding="utf-8") == (
            "user,metric,order,ild,unexpectedness,ndcg10\n"
        )

    def test_single_row_byte_stable(self, tmp_path):
        row = EvalRow("u1", "betweenness", "asc", 0.5, 0.25, 0.75)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report([row], a)
        emit_report([row], b)
        assert a.read_bytes() == b.read_bytes()
        assert "u1,betweenness,asc,0.5,0.25,0.75" in a.read_text(encoding="utf-8")

    def test_aggregate_mean_matches_hand_average(self, tmp_path):
        rows = [
            EvalRow("u1", "betweenness", "asc", 0.2, 0.1, 1.0),
            EvalRow("u2", "betweenness", "asc", 0.4, 0.3, 0.5),
            EvalRow("u1", "node_count", "desc", 0.6, 0.5, 0.25),
            EvalRow("u2", "node_count", "desc", 0.8, 0.7, 0.75),
        ]
        report, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        emit_report(rows, report, summary)
        lines = summary.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,order,ild,unexpectedness,ndcg10"
        assert lines[1].startswith("betweenness,asc,")
        b_cells = lines[1].split(",")
        assert float(b_cells[2]) == pytest.approx((0.2 + 0.4) / 2)
        assert float(b_cells[3]) == pytest.approx((0.1 + 0.3) / 2)
        assert float(b_cells[4]) == pytest.approx(0.75)
        n_cells = lines[2].split(",")
        assert float(n_cells[4]) == pytest.approx(0.5)

    def test_ndcg_header_names_k(self, tmp_path):
        report, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        emit_report([EvalRow("u1", "base", "-", None, None, 1.0)], report, summary, k=3)
        assert report.read_text(encoding="utf-8").splitlines()[0].endswith(",ndcg3")
        assert summary.read_text(encoding="utf-8").splitlines()[0].endswith(",ndcg3")

    def test_none_cells_serialize_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([EvalRow("u1", "base", "-", None, None, 1.0)], path)
        assert "u1,base,-,,,1\n" in path.read_text(encoding="utf-8")

    def test_rows_sorted(self, tmp_path):
        rows = [
            EvalRow("u2", "a", "asc", None, None, 1.0),
            EvalRow("u1", "b", "asc", None, None, 1.0),
            EvalRow("u1", "a", "asc", None, None, 1.0),
        ]
        path = tmp_path / "r.csv"
        emit_report(rows, path)
        data_lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [l.split(",")[0:2] for l in data_lines] == [
            ["u1", "a"], ["u1", "b"], ["u2", "a"],
        ]


class TestTrecFiles:
    def test_qrels_content(self, tmp_path):
        lists = {"u1": base_list("a", "b", "c")}
        path = tmp_path / "qrels.txt"
        write_qrels(lists, 2, path)
        assert path.read_text(encoding="utf-8") == "u1 0 a 2\nu1 0 b 1\n"

    def test_run_scores_non_increasing(self, tmp_path):
        path = tmp_path / "run.txt"
        write_trec_run({"u1": ["c", "a", "b"]}, tag="betweenness_asc", path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "u1 Q0 c 1 3.0 betweenness_asc"
        scores = [float(line.split()[4]) for line in lines]
        assert scores == sorted(scores, reverse=True)

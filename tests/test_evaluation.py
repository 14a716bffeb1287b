import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrerank import (
    EvalRow,
    FeatureVector,
    RecommendationList,
    cosine_distance,
    emit_report,
    ild,
    lookup_features,
    ndcg_at_k,
    unexpectedness,
    write_qrels,
    write_trec_run,
)

from kgrerank.evaluation import _distance_matrix
from oracles import brute_ild, brute_ndcg, brute_unexpectedness


def fv(*values):
    return FeatureVector.from_iterable(values)


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


def fresh_ild(items):
    arrays = [v.as_array() for v in items]
    n = len(arrays)
    if n <= 1:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += fresh_distance(arrays[i], arrays[j])
    return total / (n * (n - 1))


def fresh_unexpectedness(history, recs):
    h_arrays = [v.as_array() for v in history]
    r_arrays = [v.as_array() for v in recs]
    total = sum(fresh_distance(r, h) for r in r_arrays for h in h_arrays)
    return total / (len(recs) * len(history))


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


class TestFeatureVector:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="tempo"):
            fv(0, 0, 0, 0, 0, 0, 0, 1.5)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="8 components"):
            FeatureVector.from_iterable([0.5, 0.5])

    def test_array_round_trip(self):
        assert np.allclose(V1.as_array(), [0.9, 0.1, 0.0, 0.2, 0.1, 0.3, 0.5, 0.4])


class TestCosineDistance:
    def test_identical_is_zero(self):
        assert cosine_distance(V1, V1) == 0.0

    def test_orthogonal_is_one(self):
        assert cosine_distance(ONE_HOT_A, ONE_HOT_B) == pytest.approx(1.0)

    def test_forty_five_degrees(self):
        a = fv(1, 1, 0, 0, 0, 0, 0, 0)
        # 1 - 1/sqrt(2)
        assert cosine_distance(a, ONE_HOT_A) == pytest.approx(
            0.29289321881345254, abs=1e-12
        )

    def test_zero_norm_rejected(self):
        zero = fv(0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_distance(zero, V1)

    @given(feature_values, feature_values)
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        va, vb = fv(*a), fv(*b)
        d = cosine_distance(va, vb)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(cosine_distance(vb, va), abs=1e-12)

    @given(nonzero_vectors, nonzero_vectors)
    @settings(max_examples=100, deadline=None)
    def test_equals_fresh_array_formula(self, a, b):
        va, vb = fv(*a), fv(*b)
        assert cosine_distance(va, vb) == fresh_distance(va.as_array(), vb.as_array())


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

    def test_permutation_invariant(self):
        rng = random.Random(51)
        vectors = random_vectors(rng, 6)
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        assert ild(shuffled) == pytest.approx(ild(vectors), abs=1e-12)

    def test_bounded_by_max_pairwise_distance(self):
        rng = random.Random(52)
        vectors = random_vectors(rng, 7)
        top = max(
            cosine_distance(a, b) for a in vectors for b in vectors
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
        distances = [cosine_distance(r, h) for r in recs for h in history]
        value = unexpectedness(history, recs)
        assert min(distances) - 1e-12 <= value <= max(distances) + 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(54)
        history = random_vectors(rng, 5)
        recs = random_vectors(rng, 4)
        h2, r2 = list(history), list(recs)
        rng.shuffle(h2)
        rng.shuffle(r2)
        assert unexpectedness(h2, r2) == pytest.approx(
            unexpectedness(history, recs), abs=1e-12
        )


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

    def test_accepts_ranked_item_objects(self, dvs_catalog, dvs_profile, dvs_recs):
        from kgrerank import MetricKind, RerankConfig, SortOrder, rerank

        ranked = rerank(
            dvs_catalog, dvs_profile, dvs_recs,
            RerankConfig(metric=MetricKind.NODE_COUNT, order=SortOrder.ASCENDING),
        )
        by_objects = ndcg_at_k(dvs_recs, ranked, 3)
        by_ids = ndcg_at_k(dvs_recs, [r.item for r in ranked], 3)
        assert by_objects == by_ids

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            ndcg_at_k(base_list("a"), ["a"], 0)


class TestBruteForceAgreement:
    def test_ild_and_unexpectedness_match_oracles(self):
        rng = random.Random(55)
        for _ in range(60):
            vectors = random_vectors(rng, rng.randint(2, 9))
            arrays = [v.as_array() for v in vectors]
            assert ild(vectors) == pytest.approx(brute_ild(arrays), abs=1e-12)
            split = rng.randint(1, len(vectors) - 1)
            value = unexpectedness(vectors[:split], vectors[split:])
            expected = brute_unexpectedness(arrays[:split], arrays[split:])
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
        arrays = [v.as_array() for v in vectors]
        matrix = _distance_matrix(vectors)
        mismatched = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and matrix[i, j] != fresh_distance(arrays[i], arrays[j])
        ]
        assert mismatched == []

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


class TestLookupFeatures:
    def test_missing_item_named(self):
        with pytest.raises(KeyError, match="t_missing"):
            lookup_features(["t_missing"], {})

    def test_resolves_in_order(self):
        store = {"a": V1, "b": V2}
        assert lookup_features(["b", "a"], store) == [V2, V1]


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

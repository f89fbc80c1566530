import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from phcle.datamodel import EmbeddingModel, VocabularyMaps
from phcle.evaluation import (
    cluster_order,
    correlation_matrix,
    correlation_to_tsv,
    describe_embedding,
    retrieve_labels,
)
from reference import cosine_similarity


def make_model(W, U=None, contexts=1):
    W = np.asarray(W, dtype=np.float64)
    dim = W.shape[0]
    if U is None:
        U = np.zeros((dim, 0))
    return EmbeddingModel(W=W, Cs=(np.zeros((dim, contexts)),), Us=(np.asarray(U, dtype=np.float64),), dim=dim)


def label_vocab(labels, attributes=()):
    return VocabularyMaps(labels=tuple(labels), context_lists=(("ctx",),), attribute_lists=(tuple(attributes),))


class TestCosine:
    def test_forty_five_degrees(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2), rel=1e-15)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_antiparallel(self):
        assert cosine_similarity([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, rel=1e-15)

    def test_near_zero_vector_gives_zero(self):
        assert cosine_similarity([1e-13, 0.0], [1.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])


class TestRetrieve:
    def oracle(self, model, vocab, query, topk):
        qi = vocab.labels.index(query)
        sims = [
            cosine_similarity(model.W[:, qi], model.W[:, j]) for j in range(len(vocab.labels))
        ]
        ranked = sorted(
            (j for j in range(len(vocab.labels)) if j != qi), key=lambda j: (-sims[j], j)
        )
        return [(vocab.labels[j], sims[j]) for j in ranked[:topk]]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        labels = tuple(f"w{i}" for i in range(9))
        model = make_model(rng.standard_normal((4, 9)))
        vocab = label_vocab(labels)
        got = retrieve_labels(model, vocab, "w3", topk=6)
        expected = self.oracle(model, vocab, "w3", 6)
        assert [name for name, _ in got] == [name for name, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert s_got == pytest.approx(s_exp, abs=1e-12)

    def test_ties_break_by_vocabulary_order(self):
        W = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        model = make_model(W)
        vocab = label_vocab(("a", "b", "c", "d"))
        got = retrieve_labels(model, vocab, "a", topk=3)
        assert [name for name, _ in got] == ["b", "c", "d"]
        assert got[0][1] == 1.0 and got[1][1] == 1.0

    def test_query_is_excluded(self):
        model = make_model(np.eye(3))
        vocab = label_vocab(("a", "b", "c"))
        names = [name for name, _ in retrieve_labels(model, vocab, "b", topk=3)]
        assert "b" not in names and len(names) == 2

    def test_zero_query_vector_yields_zero_scores(self):
        W = np.array([[0.0, 1.0, 2.0]])
        model = make_model(W)
        vocab = label_vocab(("z", "a", "b"))
        got = retrieve_labels(model, vocab, "z", topk=2)
        assert got == [("a", 0.0), ("b", 0.0)]

    def test_topk_zero(self):
        model = make_model(np.eye(2))
        assert retrieve_labels(model, label_vocab(("a", "b")), "a", topk=0) == []

    def test_unknown_query_suggests_nearest_names(self):
        model = make_model(np.eye(6))
        vocab = label_vocab(("fig", "pit", "pig1", "dog", "zebra", "yak"))
        with pytest.raises(ValueError) as err:
            retrieve_labels(model, vocab, "pig")
        assert str(err.value) == "label 'pig' unknown; nearest names: fig, pig1, pit, dog, yak"

    def test_negative_topk(self):
        model = make_model(np.eye(2))
        with pytest.raises(ValueError):
            retrieve_labels(model, label_vocab(("a", "b")), "a", topk=-1)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_cosines(self, seed):
        rng = np.random.default_rng(10 + seed)
        labels = tuple(f"w{i}" for i in range(7))
        model = make_model(rng.standard_normal((3, 7)))
        vocab = label_vocab(labels)
        subset = ["w5", "w0", "w3", "w6"]
        M = correlation_matrix(model, vocab, subset)
        for i, a in enumerate(subset):
            for j, b in enumerate(subset):
                ia, jb = labels.index(a), labels.index(b)
                want = 1.0 if i == j else cosine_similarity(model.W[:, ia], model.W[:, jb])
                assert M[i, j] == pytest.approx(want, abs=1e-12)

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(14)
        model = make_model(rng.standard_normal((5, 6)))
        vocab = label_vocab(tuple(f"w{i}" for i in range(6)))
        M = correlation_matrix(model, vocab, vocab.labels)
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 1.0)

    def test_zero_vector_row_is_zero(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        model = make_model(W)
        M = correlation_matrix(model, label_vocab(("a", "b")), ["a", "b"])
        assert np.array_equal(M, [[1.0, 0.0], [0.0, 0.0]])

    def test_unknown_name(self):
        model = make_model(np.eye(2))
        with pytest.raises(ValueError, match="unknown"):
            correlation_matrix(model, label_vocab(("a", "b")), ["a", "q"])

    def test_empty_subset(self):
        model = make_model(np.eye(2))
        M = correlation_matrix(model, label_vocab(("a", "b")), [])
        assert M.shape == (0, 0)


def random_correlation(rng, n, dim=3):
    V = rng.standard_normal((dim, n))
    N = V / np.linalg.norm(V, axis=0)
    M = N.T @ N
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 1.0)
    return M


def ref_cluster_order(corr, clusters):
    """The earlier implementation, kept verbatim as the oracle: every
    pairwise block mean recomputed at every merge (O(n^4))."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(f"correlation matrix must be square, got {corr.shape}")
    n = corr.shape[0]
    if not 1 <= clusters <= n:
        raise ValueError(f"cluster count must be in 1..{n}, got {clusters}")
    dist = 1.0 - corr

    groups: list[list[int]] = [[i] for i in range(n)]
    snapshot = [list(g) for g in groups] if clusters == n else None
    while len(groups) > 1:
        best = None
        best_key = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                ga, gb = groups[a], groups[b]
                d = float(np.mean(dist[np.ix_(ga, gb)]))
                lo, hi = sorted((min(ga), min(gb)))
                key = (d, lo, hi)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (a, b)
        a, b = best
        if min(groups[a]) > min(groups[b]):
            a, b = b, a
        merged = groups[a] + groups[b]
        groups = [g for i, g in enumerate(groups) if i not in (a, b)]
        groups.append(merged)
        if len(groups) == clusters:
            snapshot = [list(g) for g in groups]

    order = list(groups[0]) if n else []
    assignment = [0] * n
    for cluster_id, g in enumerate(sorted(snapshot, key=min)):
        for i in g:
            assignment[i] = cluster_id
    return order, assignment


def assert_matches_reference(corr):
    for k in range(1, corr.shape[0] + 1):
        assert cluster_order(corr, k) == ref_cluster_order(corr, k), f"k={k}"


def dyadic_correlation(rng, n):
    M = np.triu(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, n)), 1)
    M = M + M.T
    np.fill_diagonal(M, 1.0)
    return M


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 24), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_property_cluster_order_matches_reference(n, dim, seed):
    assert_matches_reference(random_correlation(np.random.default_rng(seed), n, dim))


class TestClusterOrderTies:
    """Exact ties: every average below is computed without rounding, or
    from bitwise-equal rows, so the smallest-pair rule alone decides."""

    @pytest.mark.parametrize("seed", range(12))
    def test_dyadic_entries(self, seed):
        rng = np.random.default_rng(100 + seed)
        assert_matches_reference(dyadic_correlation(rng, int(rng.integers(2, 17))))

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 17))
        base = random_correlation(rng, int(rng.integers(1, n)), dim=int(rng.integers(1, 4)))
        copies = rng.integers(0, base.shape[0], size=n)
        assert_matches_reference(base[np.ix_(copies, copies)])

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_dyadic_columns(self, seed):
        rng = np.random.default_rng(300 + seed)
        base = dyadic_correlation(rng, 5)
        copies = rng.integers(0, 5, size=12)
        assert_matches_reference(base[np.ix_(copies, copies)])

    @pytest.mark.parametrize("value", [0.0, 0.25, 0.5, 0.75, -0.5])
    def test_all_equal_off_diagonal(self, value):
        n = 9
        corr = np.full((n, n), value)
        np.fill_diagonal(corr, 1.0)
        assert_matches_reference(corr)
        for k in range(1, n + 1):
            # every pair ties, so group 0 absorbs 1, 2, ... in turn
            assert cluster_order(corr, k) == (list(range(n)), [0] * (n - k + 1) + list(range(1, k)))

    def test_infinite_distances_merge_by_smallest_pair(self):
        corr = np.full((5, 5), -np.inf)
        np.fill_diagonal(corr, 1.0)
        corr[3, 4] = corr[4, 3] = 0.5
        assert_matches_reference(corr)


class TestClusterOrder:
    def test_two_planted_blocks(self):
        corr = np.array(
            [
                [1.0, 0.9, 0.1, 0.0],
                [0.9, 1.0, 0.2, 0.1],
                [0.1, 0.2, 1.0, 0.8],
                [0.0, 0.1, 0.8, 1.0],
            ]
        )
        order, assignment = cluster_order(corr, 2)
        assert order == [0, 1, 2, 3]
        assert assignment == [0, 0, 1, 1]

    def test_tie_prefers_smallest_pair(self):
        corr = np.full((3, 3), 0.5)
        np.fill_diagonal(corr, 1.0)
        order, assignment = cluster_order(corr, 2)
        assert order == [0, 1, 2]
        assert assignment == [0, 0, 1]

    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 3), (2, 4), (3, 2), (4, 3)])
    def test_partition_matches_reference_solver(self, seed, k):
        rng = np.random.default_rng(seed)
        corr = random_correlation(rng, 6)
        _, assignment = cluster_order(corr, k)
        dist = 1.0 - corr
        np.fill_diagonal(dist, 0.0)
        Z = linkage(squareform(dist, checks=False), method="average")
        ref = fcluster(Z, t=k, criterion="maxclust")
        got_parts = {frozenset(np.flatnonzero(np.array(assignment) == c)) for c in set(assignment)}
        ref_parts = {frozenset(np.flatnonzero(ref == c)) for c in set(ref)}
        assert got_parts == ref_parts

    @pytest.mark.parametrize("n,seed", [(40, 0), (40, 1), (200, 2), (200, 3)])
    def test_partition_matches_reference_solver_when_larger(self, n, seed):
        corr = random_correlation(np.random.default_rng(500 + seed), n, dim=5)
        dist = 1.0 - corr
        np.fill_diagonal(dist, 0.0)
        Z = linkage(squareform(dist, checks=False), method="average")
        for k in (1, 2, 3, 5, 8, n // 4, n - 1, n):
            _, assignment = cluster_order(corr, k)
            ref = fcluster(Z, t=k, criterion="maxclust")
            got_parts = {frozenset(np.flatnonzero(np.array(assignment) == c)) for c in set(assignment)}
            ref_parts = {frozenset(np.flatnonzero(ref == c)) for c in set(ref)}
            assert got_parts == ref_parts, f"k={k}"

    @pytest.mark.parametrize("seed", range(3))
    def test_clusters_are_contiguous_in_leaf_order(self, seed):
        rng = np.random.default_rng(20 + seed)
        corr = random_correlation(rng, 7)
        order, assignment = cluster_order(corr, 3)
        assert sorted(order) == list(range(7))
        positions = {i: order.index(i) for i in range(7)}
        for cid in set(assignment):
            spots = sorted(positions[i] for i in range(7) if assignment[i] == cid)
            assert spots == list(range(spots[0], spots[0] + len(spots)))

    def test_ids_numbered_by_smallest_member(self):
        rng = np.random.default_rng(30)
        corr = random_correlation(rng, 6)
        _, assignment = cluster_order(corr, 3)
        assert assignment[0] == 0
        firsts = {}
        for i, cid in enumerate(assignment):
            firsts.setdefault(cid, i)
        assert [firsts[c] for c in sorted(firsts)] == sorted(firsts.values())

    def test_all_singletons(self):
        corr = random_correlation(np.random.default_rng(31), 4)
        order, assignment = cluster_order(corr, 4)
        assert assignment == [0, 1, 2, 3]
        assert sorted(order) == [0, 1, 2, 3]

    def test_asymmetric_input_reads_blocks_as_the_reference_does(self):
        rng = np.random.default_rng(400)
        for n in (5, 9, 14):
            assert_matches_reference(rng.standard_normal((n, n)))

    def test_single_point(self):
        assert cluster_order(np.array([[1.0]]), 1) == ([0], [0])

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            cluster_order(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError, match="cluster count"):
            cluster_order(np.eye(3), 0)
        with pytest.raises(ValueError, match="cluster count"):
            cluster_order(np.eye(3), 4)


class TestDescribeEmbedding:
    def random_case(self, seed, labels=8, dim=3, attrs=4):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((dim, labels))
        U = rng.standard_normal((dim, attrs))
        vocab = label_vocab(
            tuple(f"w{i}" for i in range(labels)), tuple(f"a{i}" for i in range(attrs))
        )
        return make_model(W, U), vocab, rng.standard_normal(dim)

    @pytest.mark.parametrize("seed", range(5))
    def test_percentages_sum_to_hundred(self, seed):
        model, vocab, w = self.random_case(seed)
        desc = describe_embedding(model, vocab, w, coverage=0.7)
        assert desc.related
        assert sum(p for _, p in desc.related) == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_is_minimal_and_sufficient(self, seed):
        coverage = 0.6
        model, vocab, w = self.random_case(40 + seed)
        desc = describe_embedding(model, vocab, w, coverage=coverage)
        sims = np.maximum(
            [cosine_similarity(w, model.W[:, j]) for j in range(len(vocab.labels))], 0.0
        )
        total = float(np.sum(sims))
        by_name = {vocab.labels[j]: sims[j] for j in range(len(vocab.labels))}
        mass = sum(by_name[name] for name, _ in desc.related)
        assert mass >= coverage * total - 1e-12
        if len(desc.related) > 1:
            assert mass - by_name[desc.related[-1][0]] < coverage * total

    def test_related_sorted_descending(self):
        model, vocab, w = self.random_case(50)
        desc = describe_embedding(model, vocab, w, coverage=0.9)
        percents = [p for _, p in desc.related]
        assert percents == sorted(percents, reverse=True)

    def test_anti_aligned_vector_has_no_related(self):
        W = np.array([[1.0, 1.0], [0.0, 0.0]])
        U = np.array([[2.0], [0.0]])
        model = make_model(W, U)
        vocab = label_vocab(("a", "b"), ("attr",))
        desc = describe_embedding(model, vocab, [-1.0, 0.0])
        assert desc.related == ()
        assert desc.attributes == (("attr", -2.0),)

    def test_full_coverage_keeps_every_positive_label(self):
        model, vocab, w = self.random_case(51)
        desc = describe_embedding(model, vocab, w, coverage=1.0)
        sims = [cosine_similarity(w, model.W[:, j]) for j in range(len(vocab.labels))]
        assert len(desc.related) == sum(1 for s in sims if s > 0)

    def test_zero_coverage_keeps_single_top_label(self):
        model, vocab, w = self.random_case(52)
        desc = describe_embedding(model, vocab, w, coverage=0.0)
        assert len(desc.related) == 1
        assert desc.related[0][1] == pytest.approx(100.0)

    def test_attribute_scores_and_tie_order(self):
        W = np.eye(2)
        U = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, -1.0]])
        model = make_model(W, U)
        vocab = label_vocab(("x", "y"), ("size", "speed", "mass"))
        desc = describe_embedding(model, vocab, [1.0, 1.0], top_attrs=3)
        assert desc.attributes == (("speed", 3.0), ("size", 1.0), ("mass", 1.0))

    def test_top_attrs_zero_and_missing_attributes(self):
        model, vocab, w = self.random_case(53)
        assert describe_embedding(model, vocab, w, top_attrs=0).attributes == ()
        bare = make_model(np.eye(3))
        assert describe_embedding(bare, label_vocab(("a", "b", "c")), [1.0, 0.0, 0.0]).attributes == ()

    def test_validation(self):
        model, vocab, w = self.random_case(54)
        with pytest.raises(ValueError, match="length"):
            describe_embedding(model, vocab, [1.0])
        with pytest.raises(ValueError, match="finite"):
            describe_embedding(model, vocab, [np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="coverage"):
            describe_embedding(model, vocab, w, coverage=1.5)
        with pytest.raises(ValueError, match="top_attrs"):
            describe_embedding(model, vocab, w, top_attrs=-1)


class TestCorrelationTsv:
    def test_golden_small_matrix(self):
        text = correlation_to_tsv(["a", "b"], np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert text == "label\ta\tb\na\t1\t0.5\nb\t0.5\t1\n"

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            correlation_to_tsv(["a"], np.eye(2))

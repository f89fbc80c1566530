from dataclasses import replace

import numpy as np
import pytest

from phcle.datamodel import AttributeContext, HyperParams, VocabularyMaps, _draw_factors, save_model
from phcle.descriptive import descriptive_objective, fista_solve_U, grad_W_descriptive
from phcle.errors import DivergenceError
from phcle.ingest import negative_bound_values
from phcle.relational import emf_objective, grad_C, grad_W_relational
from phcle import trainer
from phcle.trainer import HistoryRecord, TrainingHistory, train, train_generalized
from reference import DescriptiveBlock as OldDescriptiveBlock


def small_instance(seed=0, labels=6, contexts=5, attrs=4):
    rng = np.random.default_rng(seed)
    D = rng.integers(0, 4, size=(contexts, labels)).astype(float)
    A = rng.standard_normal((labels, attrs))
    I = (rng.uniform(size=A.shape) > 0.3).astype(float)
    vocab = VocabularyMaps(
        labels=tuple(f"l{i}" for i in range(labels)),
        context_lists=(tuple(f"c{i}" for i in range(contexts)),),
        attribute_lists=(tuple(f"a{i}" for i in range(attrs)),),
    )
    return D, A, I, vocab


def small_hyper(**kw):
    base = dict(
        lambda1=1.0,
        lambda2=0.01,
        lambda3=0.01,
        negative_samples=3,
        step_size=1e-3,
        outer_iters=3,
        inner_steps_c=2,
        inner_steps_w=2,
        inner_max_iter=5,
        tolerance=1e-6,
        seed=7,
        dim=3,
    )
    base.update(kw)
    return HyperParams(**base)


def numeric_history(history):
    # every reproducible field; wall-clock seconds is excluded on purpose
    return [
        (
            r.iteration,
            r.objective,
            r.emf_term,
            r.descriptive_term,
            r.l1_term,
            r.l2_term_w,
            r.l2_term_u,
            r.fista_iterations,
        )
        for r in history.records
    ]


class TestTrain:
    def test_history_layout(self):
        D, A, I, vocab = small_instance()
        hyper = small_hyper(outer_iters=4)
        model, history = train(D, A, I, hyper, vocab)
        assert [r.iteration for r in history.records] == [0, 1, 2, 3, 4]
        first = history.records[0]
        assert first.fista_iterations == 0 and first.seconds == 0.0
        assert all(r.seconds >= 0.0 for r in history.records)
        assert model.W.shape == (3, 6)
        assert model.C.shape == (3, 5)
        assert model.U.shape == (3, 4)

    def test_final_record_matches_full_objective(self):
        D, A, I, vocab = small_instance(3)
        hyper = small_hyper()
        model, history = train(D, A, I, hyper, vocab)
        Q = negative_bound_values(D, hyper.negative_samples)
        expected = (
            emf_objective(D, Q, model.C, model.W)
            + descriptive_objective(A, I, model.W, model.U, hyper.lambda1)
            + hyper.lambda2 * np.sum(np.abs(model.U))
            + 0.5 * hyper.lambda3 * (np.sum(model.W**2) + np.sum(model.U**2))
        )
        assert history.records[-1].objective == pytest.approx(expected, rel=1e-12)

    def test_record_terms_sum_to_objective(self):
        D, A, I, vocab = small_instance(4)
        _, history = train(D, A, I, small_hyper(), vocab)
        for r in history.records:
            parts = r.emf_term + r.descriptive_term + r.l1_term + r.l2_term_w + r.l2_term_u
            assert r.objective == pytest.approx(parts, rel=1e-14)

    def test_objective_decreases_on_benign_instance(self):
        D, A, I, vocab = small_instance(5)
        _, history = train(D, A, I, small_hyper(outer_iters=5), vocab)
        objectives = history.objectives()
        assert objectives[-1] < objectives[0]

    def test_same_seed_is_bitwise_identical(self):
        D, A, I, vocab = small_instance(6)
        hyper = small_hyper(seed=11)
        model_a, hist_a = train(D, A, I, hyper, vocab)
        model_b, hist_b = train(D, A, I, hyper, vocab)
        assert np.array_equal(model_a.W, model_b.W)
        assert np.array_equal(model_a.C, model_b.C)
        assert np.array_equal(model_a.U, model_b.U)
        assert numeric_history(hist_a) == numeric_history(hist_b)

    def test_different_seed_differs(self):
        D, A, I, vocab = small_instance(6)
        model_a, _ = train(D, A, I, small_hyper(seed=11), vocab)
        model_b, _ = train(D, A, I, small_hyper(seed=12), vocab)
        assert not np.array_equal(model_a.W, model_b.W)

    def test_masked_cells_cannot_influence_any_bit(self):
        D, A, I, vocab = small_instance(7)
        A_dirty = A.copy()
        A_dirty[I == 0] = 9999.0
        A_dirty.flat[np.flatnonzero(I.flat == 0)[:2]] = np.nan
        hyper = small_hyper()
        model_a, hist_a = train(D, A, I, hyper, vocab)
        model_b, hist_b = train(D, A_dirty, I, hyper, vocab)
        assert np.array_equal(model_a.W, model_b.W)
        assert np.array_equal(model_a.C, model_b.C)
        assert np.array_equal(model_a.U, model_b.U)
        assert numeric_history(hist_a) == numeric_history(hist_b)

    def test_huge_step_raises_divergence(self):
        D, A, I, vocab = small_instance(8)
        with pytest.raises(DivergenceError) as err:
            train(D, A, I, small_hyper(step_size=1e6), vocab)
        assert err.value.iteration >= 1
        assert "step_size" in str(err.value)

    def test_shape_validation_against_vocabulary(self):
        D, A, I, vocab = small_instance()
        with pytest.raises(ValueError, match="cooccurrence"):
            train(D[:, :-1], A, I, small_hyper(), vocab)
        with pytest.raises(ValueError, match="attribute"):
            train(D, A[:-1], I[:-1], small_hyper(), vocab)

    def test_history_tsv_shape(self):
        D, A, I, vocab = small_instance()
        _, history = train(D, A, I, small_hyper(outer_iters=2), vocab)
        text = history.to_tsv()
        lines = text.splitlines()
        assert lines[0].startswith("iteration\tobjective\temf_term")
        assert len(lines) == 1 + 3
        assert text.endswith("\n")
        cells = lines[1].split("\t")
        assert float(cells[1]) == history.records[0].objective

    def test_history_tsv_bytes(self):
        history = TrainingHistory(
            (
                HistoryRecord(0, 0.1 + 0.2, -0.0, 5e-324, 1e300, 0.0, 2.5, 0, 0.0),
                HistoryRecord(7, -1e300, 1.0, -5e-324, 0.1 + 0.2, -0.0, 1e-7, 123, 12.5),
            )
        )
        assert history.to_tsv() == (
            "iteration\tobjective\temf_term\tdescriptive_term\tl1_term"
            "\tl2_term_w\tl2_term_u\tfista_iterations\tseconds\n"
            "0\t0.30000000000000004\t-0\t5e-324\t1e+300\t0\t2.5\t0\t0\n"
            "7\t-1e+300\t1\t-5e-324\t0.30000000000000004\t-0\t1e-07\t123\t12.5\n"
        )


class TestTrainGeneralized:
    def test_singleton_reduces_bitwise_to_train(self):
        D, A, I, vocab = small_instance(9)
        # lambda1 scales the descriptive weight on both paths alike.
        hyper_g = small_hyper(lambda1=2.5, alpha=(1.0,), beta=(1.0,))
        gen_model, gen_hist = train_generalized([D], [(A, I)], hyper_g)
        base_model, base_hist = train(D, A, I, small_hyper(lambda1=2.5), vocab)
        assert np.array_equal(gen_model.W, base_model.W)
        assert np.array_equal(gen_model.Cs[0], base_model.C)
        assert np.array_equal(gen_model.Us[0], base_model.U)
        assert numeric_history(gen_hist) == numeric_history(base_hist)

    def test_accepts_attribute_context_objects(self):
        D, A, I, vocab = small_instance(9)
        hyper = small_hyper(alpha=(1.0,), beta=(1.0,))
        via_pair, _ = train_generalized([D], [(A, I)], hyper)
        via_ctx, _ = train_generalized([D], [AttributeContext(assoc=A, mask=I)], hyper)
        assert np.array_equal(via_pair.W, via_ctx.W)

    def test_bool_mask_context_writes_the_float_mask_model(self, tmp_path):
        # AttributeContext keeps its mask as bool; a tuple's float64 mask
        # is wrapped in one, and the engine reads either as it is.
        D, A, I, vocab = small_instance(11, labels=30, contexts=8, attrs=5)
        A2 = np.random.default_rng(12).standard_normal((30, 3))
        I2 = np.ones_like(A2)
        I2[4], I2[9, 1], I2[20:23, 0] = 0.0, 0.0, 0.0
        A2[I2 == 0] = np.nan  # placeholders the mask hides
        A2[9, 1] = -0.0
        A[I == 0] = -0.0
        vocab = VocabularyMaps(vocab.labels, vocab.context_lists, (vocab.attributes, ("p", "q", "r")))
        hyper = small_hyper(beta=(0.6, 0.4), inner_max_iter=20)
        contexts = [AttributeContext(assoc=A, mask=I.astype(bool)), AttributeContext(assoc=A2, mask=I2)]
        assert all(ctx.mask.dtype == bool for ctx in contexts)
        runs = {}
        for name, tables in (("bool", contexts), ("float", [(A, I), (A2, I2)])):
            model, history = train_generalized([D], tables, hyper)
            save_model(tmp_path / name, model, vocab, hyper)
            runs[name] = (tmp_path / name).read_bytes(), numeric_history(history)
        assert runs["bool"] == runs["float"]

    @pytest.mark.parametrize("fit", ["train", "train_generalized"])
    @pytest.mark.parametrize(
        "case, message",
        [("mask cell 0.5", "mask entries must be 0 or 1"), ("NaN observed", "assoc contains non-finite observed entries")],
    )
    def test_bad_table_raises_the_context_message(self, fit, case, message):
        D, A, I, vocab = small_instance(10)
        cell = np.unravel_index(int(np.argmax(I)), I.shape)
        if case == "mask cell 0.5":
            I[cell] = 0.5
        else:
            A[cell] = np.nan
        with pytest.raises(ValueError) as err:
            if fit == "train":
                train(D, A, I, small_hyper(), vocab)
            else:
                train_generalized([D], [(A, I)], small_hyper())
        assert str(err.value) == message

    @pytest.mark.parametrize("fit", ["train", "train_generalized"])
    @pytest.mark.parametrize("placeholder", [np.nan, np.inf, -np.inf, 1e308, -0.0])
    def test_placeholders_give_the_model_of_positive_zeros(self, fit, placeholder, tmp_path):
        D, A, I, vocab = small_instance(15, labels=20, contexts=6, attrs=5)
        runs = []
        for value in (0.0, placeholder):
            table = np.where(I != 0, A, value)
            if fit == "train":
                model, history = train(D, table, I, small_hyper(), vocab)
            else:
                model, history = train_generalized([D], [(table, I)], small_hyper())
            save_model(tmp_path / "model.bin", model, vocab, small_hyper())
            runs.append(((tmp_path / "model.bin").read_bytes(), numeric_history(history)))
        assert runs[0] == runs[1]

    def test_split_weights_over_duplicated_context(self):
        # Two copies of one relational context at alpha 0.5 each walk the
        # exact same trajectory as the single copy: the per-block C updates
        # are unweighted and 0.5 g + 0.5 g == g in floating point.
        D, A, I, vocab = small_instance(10)
        hyper_two = small_hyper(alpha=(0.5, 0.5), beta=(1.0,), init_scheme="ones")
        hyper_one = small_hyper(alpha=(1.0,), beta=(1.0,), init_scheme="ones")
        two, hist_two = train_generalized([D, D], [(A, I)], hyper_two)
        one, hist_one = train_generalized([D], [(A, I)], hyper_one)
        assert np.array_equal(two.W, one.W)
        assert np.array_equal(two.Cs[0], two.Cs[1])
        assert np.array_equal(two.Cs[0], one.Cs[0])
        assert numeric_history(hist_two) == numeric_history(hist_one)

    def test_column_split_descriptive_matches_merged(self):
        # Splitting attribute columns into two contexts at beta 0.5 each is
        # the same subproblem as training the merged block at weight 0.5,
        # because the solver is separable per column. The inner solver keeps
        # its best iterate judged on the whole block, so the routes only
        # coincide once the subproblems converge; parameter agreement is
        # then limited by the sqrt-machine-epsilon gap bound, objectives
        # agree to second order.
        D, A, I, vocab = small_instance(11, attrs=6)
        common = dict(
            init_scheme="ones", lambda3=0.2, inner_max_iter=600, tolerance=1e-30, outer_iters=3
        )
        hyper_g = small_hyper(alpha=(1.0,), beta=(0.5, 0.5), **common)
        hyper_m = small_hyper(lambda1=0.5, **common)
        gen, hist_g = train_generalized(
            [D], [(A[:, :2], I[:, :2]), (A[:, 2:], I[:, 2:])], hyper_g
        )
        merged, hist_m = train(D, A, I, hyper_m, vocab)
        np.testing.assert_allclose(gen.W, merged.W, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            np.hstack(gen.Us), merged.U, rtol=1e-5, atol=1e-8
        )
        np.testing.assert_allclose(
            hist_g.objectives(), hist_m.objectives(), rtol=1e-10
        )

    def test_weight_length_mismatches_rejected(self):
        D, A, I, _ = small_instance()
        with pytest.raises(ValueError, match="alpha"):
            train_generalized([D, D], [(A, I)], small_hyper(alpha=(1.0,), beta=(1.0,)))
        with pytest.raises(ValueError, match="beta"):
            train_generalized([D], [(A, I), (A, I)], small_hyper(alpha=(1.0,), beta=(1.0,)))

    def test_divergence_names_the_failing_block(self):
        # Counts near 1e150 make only the second context's first C step
        # overflow; the first context's step stays finite.
        D, A, I, _ = small_instance(12)
        hyper = small_hyper(step_size=1e160, alpha=(0.5, 0.5), beta=(1.0,))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_generalized([D, D * 1e150], [(A, I)], hyper)
        assert err.value.iteration == 1
        assert str(err.value) == "factor C[1] became non-finite at outer iteration 1; try a smaller step_size"

    def test_solver_divergence_names_the_attribute_factor(self):
        # Observed attributes near 1e150 push W so far in the first outer
        # iteration that the curvature of the U solve overflows.
        D, A, I, _ = small_instance(12)
        hyper = small_hyper(step_size=1e3, alpha=(1.0,), beta=(1.0,))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_generalized([D], [(A * 1e150, I)], hyper)
        assert err.value.iteration == 1
        assert str(err.value) == (
            "factor U[0] became non-finite at inner iteration 1 of outer iteration 1; try a smaller step_size"
        )

    def test_empty_context_lists_rejected(self):
        D, A, I, _ = small_instance()
        with pytest.raises(ValueError, match="relational"):
            train_generalized([], [(A, I)], small_hyper())
        with pytest.raises(ValueError, match="descriptive"):
            train_generalized([D], [], small_hyper())

    def test_lambda1_scales_every_descriptive_weight(self):
        # History row 0 is the starting point, so its descriptive term is
        # the sum over the tables at the drawn factors, each weighted
        # lambda1 * beta[j].
        D, A, I, _ = small_instance(14, attrs=6)
        tables = [(A[:, :2], I[:, :2]), (A[:, 2:], I[:, 2:])]
        hyper = small_hyper(lambda1=0.5, beta=(0.25, 0.75))
        _, history = train_generalized([D], tables, hyper)
        W0, _, U0s = _draw_factors(hyper.init_scheme, hyper.seed, hyper.dim, D.shape[1], [D.shape[0]], [2, 4])
        expected = sum(
            descriptive_objective(A_j, I_j, W0, U0_j, 0.5 * b) for (A_j, I_j), U0_j, b in zip(tables, U0s, hyper.beta)
        )
        assert history.records[0].descriptive_term == expected
        _, unscaled = train_generalized([D], tables, replace(hyper, lambda1=1.0))
        assert unscaled.records[0].descriptive_term != expected

    @pytest.mark.parametrize("kind,contexts", [("alpha", "relational"), ("beta", "descriptive")])
    def test_one_table_train_rejects_two_weights(self, kind, contexts):
        D, A, I, vocab = small_instance()
        with pytest.raises(ValueError) as err:
            train(D, A, I, small_hyper(**{kind: (0.5, 0.5)}), vocab)
        assert str(err.value) == f"{kind} has 2 weights for 1 {contexts} contexts"

    @pytest.mark.parametrize(
        "case,message",
        [
            ("count matrix with other labels", "relational context 1 has shape (5, 5), expected 6 label columns"),
            ("count matrix without contexts", "training needs at least one label and one context"),
            ("table with other labels", "descriptive context 1 has shape (5, 4), expected 6 label rows"),
        ],
    )
    def test_contexts_that_disagree_are_rejected(self, case, message):
        # train_generalized has no vocabulary to check the shapes against.
        D, A, I, _ = small_instance()
        Ds, tables, weights = {
            "count matrix with other labels": ([D, D[:, :-1]], [(A, I)], dict(alpha=(0.5, 0.5))),
            "count matrix without contexts": ([D[:0]], [(A, I)], {}),
            "table with other labels": ([D], [(A, I), (A[:-1], I[:-1])], dict(beta=(0.5, 0.5))),
        }[case]
        with pytest.raises(ValueError) as err:
            train_generalized(Ds, tables, small_hyper(**weights))
        assert str(err.value) == message


def reference_run(Ds, tables, hyper):
    """The engine's outer iterations written out with the per-context
    functions: a model's factors and the numeric history rows."""
    betas = [hyper.lambda1 * b for b in hyper.beta]
    Qs = [negative_bound_values(D, hyper.negative_samples) for D in Ds]
    W, Cs, Us = _draw_factors(
        hyper.init_scheme, hyper.seed, hyper.dim, Ds[0].shape[1],
        [D.shape[0] for D in Ds], [A.shape[1] for A, _ in tables],
    )

    def row(it, fista):
        emf = sum(a * emf_objective(D, Q, C, W) for D, Q, C, a in zip(Ds, Qs, Cs, hyper.alpha))
        desc = sum(descriptive_objective(A, I, W, U, b) for (A, I), U, b in zip(tables, Us, betas))
        l1 = hyper.lambda2 * sum(float(np.sum(np.abs(U))) for U in Us)
        l2_w = 0.5 * hyper.lambda3 * float(np.sum(W * W))
        l2_u = 0.5 * hyper.lambda3 * sum(float(np.sum(U * U)) for U in Us)
        return (it, emf + desc + l1 + l2_w + l2_u, emf, desc, l1, l2_w, l2_u, fista)

    rows = [row(0, 0)]
    for it in range(1, hyper.outer_iters + 1):
        for r, (D, Q) in enumerate(zip(Ds, Qs)):
            for _ in range(hyper.inner_steps_c):
                Cs[r] = Cs[r] - hyper.step_size * grad_C(D, Q, Cs[r], W)
        for _ in range(hyper.inner_steps_w):
            grad = hyper.alpha[0] * grad_W_relational(Ds[0], Qs[0], Cs[0], W)
            for r in range(1, len(Ds)):
                grad = grad + hyper.alpha[r] * grad_W_relational(Ds[r], Qs[r], Cs[r], W)
            for (A, I), U, b in zip(tables, Us, betas):
                grad = grad + grad_W_descriptive(A, I, W, U, b)
            grad = grad + hyper.lambda3 * W
            W = W - hyper.step_size * grad
        fista = 0
        for j, (A, I) in enumerate(tables):
            Us[j], used, _ = fista_solve_U(A, I, W, Us[j], replace(hyper, lambda1=betas[j]))
            fista += used
        rows.append(row(it, fista))
    return W, Cs, Us, rows


class TestEngineOracle:
    @staticmethod
    def check_bitwise(**weights):
        # Three tables of different widths, the widest in the middle, so the
        # shared residual buffer is viewed at three shapes; with this many
        # labels np.sum of a strided column slice would round differently
        # from the contiguous view. Their unobserved cells hold +0.0, -0.0
        # and NaN, which the contexts built from them store as +0.0.
        rng = np.random.default_rng(13)
        labels = 1000
        Ds = [rng.integers(0, 4, size=(n, labels)).astype(float) for n in (12, 9)]
        tables = []
        for width, placeholder in ((5, 0.0), (17, -0.0), (9, np.nan)):
            A = rng.standard_normal((labels, width))
            I = (rng.uniform(size=A.shape) > 0.4).astype(float)
            A[I == 0] = placeholder
            tables.append((A, I))
        hyper = small_hyper(outer_iters=2, inner_max_iter=4, alpha=(0.3, 0.7), beta=(0.2, 0.5, 0.3), **weights)
        model, history = train_generalized(Ds, tables, hyper)
        W, Cs, Us, rows = reference_run(Ds, tables, hyper)
        assert model.W.tobytes() == W.tobytes()
        assert [C.tobytes() for C in model.Cs] == [C.tobytes() for C in Cs]
        assert [U.tobytes() for U in model.Us] == [U.tobytes() for U in Us]
        assert numeric_history(history) == rows

    def test_blocks_match_the_per_context_functions_bitwise(self):
        self.check_bitwise()

    def test_blocks_match_the_per_context_functions_bitwise_at_lambda1_half(self):
        self.check_bitwise(lambda1=0.5)


def assert_close_runs(got, want):
    """Two runs agree to rounding: factors within 1e-10 of their largest
    entry, the same FISTA iterations, objective terms within 1e-12."""
    (model, history), (old_model, old_history) = got, want
    for factor, old in zip((model.W, *model.Cs, *model.Us), (old_model.W, *old_model.Cs, *old_model.Us)):
        assert np.max(np.abs(factor - old), initial=0.0) <= 1e-10 * np.max(np.abs(old), initial=0.0)
    for row, old in zip(numeric_history(history), numeric_history(old_history), strict=True):
        assert row[0] == old[0] and row[-1] == old[-1]
        assert np.allclose(row[1:-1], old[1:-1], rtol=1e-12, atol=0.0)


class TestPartialTables:
    """A table that observes few labels or none, against the old block,
    which solved over every label."""

    @pytest.mark.parametrize("observed_rows", [0, 1], ids=["header-only", "one-row"])
    def test_train_generalized_matches_the_old_block(self, observed_rows, monkeypatch):
        D, A, I, _ = small_instance(21, labels=30, contexts=8, attrs=5)
        # What the reader builds for a table listing no label, or one label
        # with one cell missing.
        A2, I2 = np.zeros((30, 3)), np.zeros((30, 3))
        if observed_rows:
            A2[17], I2[17] = (2.5, 0.0, -1.0), (1.0, 0.0, 1.0)
        hyper = small_hyper(beta=(0.6, 0.4), inner_max_iter=20, init_scheme="uniform_random(0.5)")
        got = train_generalized([D], [(A, I), (A2, I2)], hyper)
        monkeypatch.setattr(
            trainer, "DescriptiveBlock", lambda ctx, *a, **k: OldDescriptiveBlock(ctx.assoc, ctx.mask, *a, **k)
        )
        want = train_generalized([D], [(A, I), (A2, I2)], hyper)
        assert_close_runs(got, want)
        assert got[1].records[-1].fista_iterations > 0

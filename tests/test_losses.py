"""Tests for the client-side loss functions and their gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.errors import DomainError, ShapeError
from fedsim.losses import (CenterBank, LossWeights, center_loss_grad,
                           cross_entropy_batch, fv_cos_batch, total_loss,
                           update_centers)
import oracles
from oracles import cross_entropy, finite_difference_grad, fv_cos_grad, fv_cos_loss


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(np.zeros(4), [1, 0, 0, 0]) == pytest.approx(math.log(4))

    def test_hand_softmax_arithmetic(self):
        # logits (ln 2, 0), true class 0: -log(2/3) = log(3/2)
        val = cross_entropy(np.array([math.log(2.0), 0.0]), [1, 0])
        assert val == pytest.approx(math.log(1.5), abs=1e-12)

    def test_saturated_softmax_no_overflow(self):
        val = cross_entropy(np.array([1000.0, 0.0]), [1, 0])
        assert 0.0 <= val < 1e-12

    def test_rejects_non_onehot(self):
        with pytest.raises(DomainError):
            cross_entropy(np.zeros(3), [1, 1, 0])
        with pytest.raises(DomainError):
            cross_entropy(np.zeros(3), [0, 0, 0])

    def test_rejects_single_class(self):
        with pytest.raises(DomainError):
            cross_entropy(np.zeros(1), [1])

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.standard_normal(5)
            y = np.zeros(5)
            y[rng.integers(5)] = 1
            assert cross_entropy(logits, y) >= 0.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, _ = cross_entropy_batch(logits, labels)
        singles = []
        for i in range(6):
            y = np.zeros(4)
            y[labels[i]] = 1
            singles.append(cross_entropy(logits[i], y))
        assert loss == pytest.approx(np.mean(singles), rel=1e-12)

    def test_batch_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        _, dlogits = cross_entropy_batch(logits, labels)
        step = 1e-5
        for i in range(4):
            for j in range(3):
                hi, lo = logits.copy(), logits.copy()
                hi[i, j] += step
                lo[i, j] -= step
                fd = (cross_entropy_batch(hi, labels)[0]
                      - cross_entropy_batch(lo, labels)[0]) / (2 * step)
                assert dlogits[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestFvCosLoss:
    def test_collinear_is_zero(self):
        assert fv_cos_loss(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0

    def test_orthogonal_is_one(self):
        assert fv_cos_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_antiparallel_is_two(self):
        assert fv_cos_loss(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    def test_zero_norm_raises(self):
        with pytest.raises(DomainError):
            fv_cos_loss(np.zeros(3), np.ones(3))

    @given(st.floats(0.001, 1000.0), st.floats(0.001, 1000.0),
           st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        f_p = rng.standard_normal(8)
        f_g = rng.standard_normal(8)
        base = fv_cos_loss(f_p, f_g)
        scaled = fv_cos_loss(a * f_p, b * f_g)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = fv_cos_loss(rng.standard_normal(5), rng.standard_normal(5))
            assert 0.0 <= v <= 2.0

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            f_p = rng.standard_normal(6)
            f_g = rng.standard_normal(6)
            _, dp, dg = fv_cos_grad(f_p, f_g)
            fd_p = finite_difference_grad(lambda v: fv_cos_loss(v, f_g), f_p)
            fd_g = finite_difference_grad(lambda v: fv_cos_loss(f_p, v), f_g)
            np.testing.assert_allclose(dp, fd_p, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(dg, fd_g, rtol=1e-4, atol=1e-7)


def random_rows(rng, b, dim):
    """(b, dim) random directions with norms in [0.1, 10]: a row near zero would
    scale the gradients' rounding error by its inverse norm."""
    x = rng.standard_normal((b, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * 10.0 ** rng.uniform(-1, 1, (b, 1))


class TestFvCosBatchMatchesOracle:
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 31), st.data())
    @settings(max_examples=200, deadline=None)
    def test_loss_and_gradients(self, b, dim, seed, data):
        kinds = data.draw(st.lists(st.sampled_from(["free", "collinear", "antiparallel"]),
                                   min_size=b, max_size=b))
        rng = np.random.default_rng(seed)
        f_p = random_rows(rng, b, dim)
        f_g = random_rows(rng, b, dim)
        for i, kind in enumerate(kinds):
            if kind != "free":
                sign = 1.0 if kind == "collinear" else -1.0
                f_g[i] = sign * 10.0 ** rng.uniform(-1, 1) * f_p[i]

        loss, d_p, d_g = fv_cos_batch(f_p, f_g)
        oracle = [fv_cos_grad(f_p[i], f_g[i]) for i in range(b)]
        assert loss == pytest.approx(np.mean([o[0] for o in oracle]), rel=1e-12)
        for i, (_, o_p, o_g) in enumerate(oracle):
            np.testing.assert_allclose(b * d_p[i], o_p, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(b * d_g[i], o_g, rtol=1e-10, atol=1e-12)


class TestCenterLoss:
    def test_zero_when_embeddings_equal_centers(self):
        bank = CenterBank({0: np.array([1.0, 2.0]), 1: np.array([-1.0, 0.0])}, lr=0.5)
        emb = np.array([[1.0, 2.0], [-1.0, 0.0]])
        assert center_loss_grad(emb, [0, 1], bank)[0] == 0.0

    def test_half_squared_norm(self):
        bank = CenterBank({0: np.zeros(2)}, lr=0.5)
        assert center_loss_grad(np.array([[1.0, 0.0]]), [0], bank)[0] == 0.5

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((3, 4))
        bank = CenterBank({k: rng.standard_normal(4) for k in range(3)}, lr=0.5)
        labels = [2, 0, 1]
        expected = 0.5 * sum(
            float(np.sum((emb[i] - bank.centers[labels[i]]) ** 2))
            for i in range(3))
        assert center_loss_grad(emb, labels, bank)[0] == pytest.approx(expected, rel=1e-12)

    def test_unknown_label_raises(self):
        bank = CenterBank({0: np.zeros(2)}, lr=0.5)
        with pytest.raises(DomainError):
            center_loss_grad(np.zeros((1, 2)), [7], bank)[0]

    def test_gradient_is_difference(self):
        rng = np.random.default_rng(6)
        emb = rng.standard_normal((4, 3))
        bank = CenterBank({k: rng.standard_normal(3) for k in range(2)}, lr=0.5)
        labels = [0, 1, 0, 1]
        _, grad = center_loss_grad(emb, labels, bank)
        for i in range(4):
            np.testing.assert_allclose(grad[i], emb[i] - bank.centers[labels[i]])


class TestUpdateCenters:
    def test_zero_lr_leaves_bank_unchanged(self):
        bank = CenterBank({0: np.array([1.0, 1.0])}, lr=0.0)
        update_centers(bank, np.array([[5.0, 5.0]]), [0])
        np.testing.assert_array_equal(bank.centers[0], [1.0, 1.0])

    def test_full_step_reaches_sample(self):
        bank = CenterBank({0: np.array([1.0, 1.0])}, lr=1.0)
        update_centers(bank, np.array([[5.0, -3.0]]), [0])
        np.testing.assert_array_equal(bank.centers[0], [5.0, -3.0])

    def test_half_step_hand_arithmetic(self):
        bank = CenterBank({0: np.array([0.0, 0.0])}, lr=0.5)
        update_centers(bank, np.array([[2.0, 2.0]]), [0])
        np.testing.assert_array_equal(bank.centers[0], [1.0, 1.0])

    def test_untouched_center_unchanged(self):
        bank = CenterBank({0: np.zeros(2), 1: np.array([7.0, 7.0])}, lr=0.5)
        update_centers(bank, np.array([[2.0, 2.0]]), [0])
        np.testing.assert_array_equal(bank.centers[1], [7.0, 7.0])

    def test_moves_toward_batch_mean(self):
        bank = CenterBank({0: np.zeros(1)}, lr=0.25)
        update_centers(bank, np.array([[4.0], [8.0]]), [0, 0])
        np.testing.assert_allclose(bank.centers[0], [1.5])  # 0 + 0.25*(6-0)


class TestTotalLoss:
    def test_unit_weights(self):
        assert total_loss(0.1, 0.2, 0.3, LossWeights(1, 1, 1)) == pytest.approx(0.6)

    def test_masking(self):
        assert total_loss(5.0, 0.77, 9.0, LossWeights(0, 1, 0)) == 0.77

    def test_hand_arithmetic(self):
        val = total_loss(2.0, math.log(4.0), 0.5, LossWeights(0.5, 1.0, 0.01))
        assert val == pytest.approx(1.0 + math.log(4.0) + 0.005, rel=1e-12)

    @given(st.floats(0.001, 5), st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_each_weight(self, a, b, c):
        terms = (0.7, 1.3, 0.2)
        w1 = LossWeights(a, b, c + 1.0)
        w2 = LossWeights(a, b, c)
        diff = total_loss(*terms, w1) - total_loss(*terms, w2)
        assert diff == pytest.approx(terms[2], rel=1e-9, abs=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            LossWeights(-0.1, 1.0, 0.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            LossWeights(0.0, 0.0, 0.0)

    def test_negative_term_rejected(self):
        with pytest.raises(DomainError):
            total_loss(-1.0, 0.0, 0.0, LossWeights(0.5, 1.0, 0.01))


# -- per-label oracles for the array center bank ------------------------------

def oracle_center_loss_grad(embeddings, labels, centers):
    """One row at a time against a {class: center} dict."""
    diffs = np.empty_like(embeddings)
    for i, lab in enumerate(labels):
        diffs[i] = embeddings[i] - centers[lab]
    return 0.5 * float((diffs * diffs).sum()), diffs


def oracle_update_centers(centers, lr, embeddings, labels):
    """One class at a time: move each touched center toward its batch mean."""
    labels = list(labels)
    for lab in set(labels):
        rows = [i for i, l in enumerate(labels) if l == lab]
        batch_mean = embeddings[rows].mean(axis=0)
        c = centers[lab]
        centers[lab] = c + lr * (batch_mean - c)


class TestCenterBankMatchesPerLabelOracle:
    # dim >= 2: a (m, 1) block's mean(axis=0) sums pairwise once m >= 8,
    # while every wider block, and the bank, sums its rows in order
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 24),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 31), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_exact(self, k, dim, b, lr, seed, data):
        # repeated classes and classes absent from the batch both occur
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        emb = scale * rng.standard_normal((b, dim))
        start = {c: scale * rng.standard_normal(dim) for c in range(k)}
        bank = CenterBank(dict(start), lr=lr)

        loss, diffs = center_loss_grad(emb, labels, bank)
        o_loss, o_diffs = oracle_center_loss_grad(emb, labels, start)
        assert loss == o_loss
        assert np.array_equal(diffs, o_diffs)

        update_centers(bank, emb, labels)
        expected = dict(start)
        oracle_update_centers(expected, lr, emb, labels)
        assert np.array_equal(bank.centers, np.array([expected[c] for c in range(k)]))


class TestCenterBankConstruction:
    def test_mapping_and_array_forms_agree(self):
        rows = np.arange(6.0).reshape(3, 2)
        by_map = CenterBank({k: rows[k] for k in (2, 0, 1)}, lr=0.5)
        by_array = CenterBank(rows, lr=0.5)
        assert np.array_equal(by_map.centers, by_array.centers)
        assert np.array_equal(by_map.centers[2], [4.0, 5.0])

    def test_bank_owns_its_centers(self):
        rows = np.zeros((2, 2))
        bank = CenterBank(rows, lr=1.0)
        update_centers(bank, np.ones((1, 2)), [0])
        assert np.array_equal(rows, np.zeros((2, 2)))

    def test_invalid_banks_rejected(self):
        with pytest.raises(DomainError):
            CenterBank({0: np.zeros(2), 2: np.zeros(2)}, lr=0.5)   # class 1 missing
        with pytest.raises(DomainError):
            CenterBank({0: np.array([np.nan, 0.0])}, lr=0.5)
        with pytest.raises(ShapeError):
            CenterBank({0: np.zeros(2), 1: np.zeros(3)}, lr=0.5)

    def test_out_of_range_labels_rejected(self):
        bank = CenterBank(np.zeros((2, 2)), lr=0.5)
        for bad in ([2], [-1]):
            with pytest.raises(DomainError):
                center_loss_grad(np.zeros((1, 2)), bad, bank)
            with pytest.raises(DomainError):
                update_centers(bank, np.zeros((1, 2)), bad)
        assert np.array_equal(bank.centers, np.zeros((2, 2)))


# -- the kernels against their first-written references, byte for byte --------

SEEDS = st.integers(0, 2 ** 32 - 1)
# no group axis, or G stacked batches
LEADS = st.sampled_from([(), (1,), (2,), (3,)])


def signed_zeros(rng, x, share):
    """x with about `share` of its entries replaced by +0.0 or -0.0."""
    zeros = np.copysign(0.0, rng.standard_normal(x.shape))
    return np.where(rng.random(x.shape) < share, zeros, x)


def outcome(kernel, *args):
    """The bytes and types of each array a kernel returns, or its error."""
    try:
        return [(type(a), a.tobytes()) for a in kernel(*args)]
    except DomainError as exc:
        return str(exc)


class TestKernelsMatchReferenceBytes:
    @given(LEADS, st.integers(1, 8), st.integers(1, 6),
           st.sampled_from([1e-3, 1.0, 40.0, 1e3, 1e300, 1e308]), SEEDS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_cross_entropy(self, lead, b, k, scale, seed, data):
        rng = np.random.default_rng(seed)
        # repeated labels: a batch draws from its first m classes, often one
        labels = rng.integers(0, data.draw(st.integers(1, k)), (*lead, b))
        with np.errstate(over="ignore", invalid="ignore"):   # inf logits at 1e308
            logits = scale * rng.standard_normal((*lead, b, k))
            got = outcome(cross_entropy_batch, logits, labels)
            expected = outcome(oracles.cross_entropy_batch, logits, labels)
        assert got == expected

    @given(LEADS, st.integers(1, 8), st.sampled_from([1, 2, 3, 6]), SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_fv_cos(self, lead, b, dim, seed):
        rng = np.random.default_rng(seed)
        f_p, f_g = (signed_zeros(rng, rng.standard_normal((*lead, b, dim))
                                 * 10.0 ** rng.uniform(-3, 3, (*lead, b, 1)), 0.1)
                    for _ in range(2))
        got = outcome(fv_cos_batch, f_p, f_g)
        assert got == outcome(oracles.fv_cos_batch, f_p, f_g)

    # the example's label 4 times dim 70 would wrap in uint8 arithmetic
    @given(LEADS, st.integers(1, 5), st.sampled_from([1, 2, 3, 70]), st.integers(1, 24),
           st.floats(0.0, 1.0), st.sampled_from([np.int64, np.int32, np.uint8]), SEEDS)
    @example((), 5, 70, 24, 0.5, np.uint8, 0)
    @settings(max_examples=150, deadline=None)
    def test_update_centers(self, lead, k, dim, b, lr, label_type, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        emb = signed_zeros(rng, scale * rng.standard_normal((*lead, b, dim)), 0.3)
        # repeats, and absent classes
        labels = rng.integers(0, k, (*lead, b)).astype(label_type)
        start = signed_zeros(rng, scale * rng.standard_normal((*lead, k, dim)), 0.3)
        bank, reference = CenterBank(start, lr), CenterBank(start, lr)
        update_centers(bank, emb, labels)
        oracles.update_centers(reference, emb, labels)
        assert bank.centers.tobytes() == reference.centers.tobytes()

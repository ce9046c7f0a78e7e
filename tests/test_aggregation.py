"""Tests for correlation-weighted personalized aggregation and the
weighted-average baseline."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (AggregationConfig, build_correlation_matrix,
                                correlation_degree, correlation_rows,
                                correlation_weights, fedavg_aggregate, mix,
                                personalized_aggregate, probe_embeddings)
from fedsim.errors import DomainError, ShapeError
from fedsim.nn import GROUP_ROWS, MLP, channel, forward_batch

import oracles


def corr_from(entries):
    entries = np.asarray(entries, dtype=np.float64)
    np.fill_diagonal(entries, np.nan)
    return entries


def stacked(models):
    """One MLP holding the models' parameter vectors as an (N, L) stack."""
    return MLP(models[0].sizes, models[0].out_act, np.stack([m.params for m in models]))


class TestCorrelationDegree:
    def test_identical_sequences_sum_to_t(self):
        emb = np.random.default_rng(0).standard_normal((5, 3))
        assert correlation_degree(emb, emb) == pytest.approx(5.0, abs=1e-12)

    def test_hand_cosine_sums(self):
        emb_n = np.array([[1.0, 0.0], [0.0, 1.0]])
        emb_u = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert correlation_degree(emb_n, emb_u) == pytest.approx(1.0, abs=1e-12)

    def test_negated_sequences(self):
        emb = np.random.default_rng(1).standard_normal((3, 4))
        assert correlation_degree(emb, -emb) == pytest.approx(-3.0, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((7, 5))
        assert correlation_degree(a, b) == correlation_degree(b, a)

    def test_bounded_by_t(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            assert -6.0 <= correlation_degree(a, b) <= 6.0

    def test_zero_norm_raises(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        with pytest.raises(DomainError):
            correlation_degree(a, b)


class TestCorrelationRows:
    """Each unordered pair is computed once and mirrored; every entry must equal
    the all-ordered-pairs oracle bit for bit, so R is exactly symmetric."""

    @staticmethod
    def assert_matches_oracle(embs):
        got = correlation_rows(embs)
        assert np.array_equal(got, oracles.correlation_rows(embs))
        assert np.array_equal(got, got.T)

    # dim and T straddle numpy's 8-wide pairwise-summation block
    @given(st.integers(1, 20), st.integers(1, 40), st.integers(1, 20),
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_bit_exact(self, n, t, dim, seed, data):
        exponents = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
        scales = 10.0 ** np.array(exponents)
        rng = np.random.default_rng(seed)
        self.assert_matches_oracle(rng.standard_normal((n, t, dim))
                                   * scales[:, None, None])

    def test_many_clients_shape_bit_exact(self):
        embs = np.random.default_rng(13).standard_normal((64, 128, 16))
        self.assert_matches_oracle(embs)

    @pytest.mark.parametrize("client", [0, 2])
    def test_zero_norm_embedding_raises(self, client):
        embs = np.random.default_rng(14).standard_normal((3, 4, 5))
        embs[client, 1] = 0.0
        with pytest.raises(DomainError, match="zero-norm"):
            correlation_rows(embs)


class TestBuildCorrelationMatrix:
    def test_identical_models_give_t(self):
        m = channel(4, 6, 3, seed=0)
        probes = np.random.default_rng(0).standard_normal((5, 4))
        corr = build_correlation_matrix(stacked([m, m.clone()]), probes)
        assert corr[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert corr[1, 0] == pytest.approx(5.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        models = [channel(4, 6, 3, seed=s) for s in range(3)]
        probes = rng.standard_normal((8, 4))
        corr = build_correlation_matrix(stacked(models), probes)
        # independent per-pair recomputation
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert np.isnan(corr[i, j])
                    continue
                ei = forward_batch(models[i], probes)[0]
                ej = forward_batch(models[j], probes)[0]
                total = 0.0
                for t in range(8):
                    total += float(ei[t] @ ej[t]
                                   / (np.linalg.norm(ei[t]) * np.linalg.norm(ej[t])))
                expected = max(total, 1e-6)
                assert corr[i, j] == pytest.approx(expected, abs=1e-9)

    def test_negative_raw_correlation_clamped(self):
        m = channel(4, 6, 3, seed=0)
        neg = m.clone()
        neg.params = -neg.params
        probes = np.random.default_rng(5).standard_normal((4, 4))
        corr = build_correlation_matrix(stacked([m, neg]), probes, clamp_epsilon=1e-6)
        # anti-correlated models are pinned to the clamp floor
        assert corr[0, 1] == 1e-6

    def test_symmetric_after_clamp(self):
        models = [channel(4, 6, 3, seed=s) for s in range(4)]
        probes = np.random.default_rng(6).standard_normal((6, 4))
        corr = build_correlation_matrix(stacked(models), probes)
        mask = ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(corr[mask],
                                      corr.T[mask])

    def test_single_model_rejected(self):
        with pytest.raises(DomainError):
            build_correlation_matrix(stacked([channel(4, 6, 3, seed=0)]),
                                     np.ones((2, 4)))

    def test_unstacked_model_rejected(self):
        with pytest.raises(DomainError):
            build_correlation_matrix(channel(4, 6, 3, seed=0), np.ones((2, 4)))


class TestProbeEmbeddings:
    """The server embeds the probes through all uploads at once, GROUP_ROWS models
    per stacked forward; every row must equal that model's lone forward bit for bit."""

    @pytest.mark.parametrize("n", [2, 15, 16, 17, 64])
    def test_blocks_match_lone_forwards(self, n):
        assert GROUP_ROWS == 16   # n straddles the block edges
        # the fed channel and probe set of the `many_clients_agg` workload
        models = [channel(32, 32, 16, seed=s) for s in range(n)]
        probes = np.random.default_rng(n).standard_normal((128, 32))
        got = probe_embeddings(stacked(models), probes)
        expected = np.stack([forward_batch(m, probes)[0] for m in models])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestMixMatchesAxpyBytes:
    """`mix` is one einsum over the (N, L) stack; each entry must round as in the
    axpy loop it replaced (`oracles.mix`), for correlation weights and for the
    uniform FedAvg matrix and row, one column (L = 1) included."""

    @given(st.integers(1, 70), st.one_of(st.just(1), st.integers(1, 2000)),
           st.sampled_from(["correlation", "uniform", "fedavg_row"]),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    @example(70, 1, "correlation", 0.5, 0)      # u would be einsum's inner loop
    @example(64, 1584, "correlation", 0.5, 1)   # `many_clients_agg`
    @settings(max_examples=100, deadline=None)
    def test_bytes(self, n, length, weights, gamma, seed):
        rng = np.random.default_rng(seed)
        params = rng.standard_normal((n, length)) * np.exp(rng.uniform(-6, 6, (n, length)))
        params[rng.random(params.shape) < 0.05] *= 0.0   # signed zeros
        if weights == "correlation" and n > 1:
            w = correlation_weights(corr_from(np.exp(rng.uniform(-6, 6, (n, n)))))
        elif weights == "correlation":
            w = np.zeros((1, 1))
        else:
            w = np.full((1 if weights == "fedavg_row" else n, n), 1.0 / n)
        got = mix(params, w, gamma)
        assert got.shape == (len(w), length)
        assert got.tobytes() == oracles.mix(params, w, gamma).tobytes()


class TestPersonalizedAggregate:
    def test_gamma_zero_returns_own_model_bit_exact(self):
        rng = np.random.default_rng(7)
        params = [rng.standard_normal(10) for _ in range(3)]
        corr = corr_from(rng.uniform(0.1, 2.0, (3, 3)))
        out = personalized_aggregate(params, corr, AggregationConfig(0.0), 1)
        assert np.array_equal(out, params[1])

    def test_two_clients_gamma_one_returns_other(self):
        params = [np.array([1.0, 2.0]), np.array([5.0, -3.0])]
        corr = corr_from([[0, 0.7], [0.7, 0]])
        out = personalized_aggregate(params, corr, AggregationConfig(1.0), 0)
        np.testing.assert_allclose(out, params[1], atol=1e-12)

    def test_three_client_hand_arithmetic(self):
        # weights (3/4, 1/4) over others, gamma 0.5, scalar params (0, 4, 8)
        params = [np.array([0.0]), np.array([4.0]), np.array([8.0])]
        corr = corr_from([[0, 3.0, 1.0], [3.0, 0, 1.0], [1.0, 1.0, 0]])
        out = personalized_aggregate(params, corr, AggregationConfig(0.5), 0)
        assert out[0] == pytest.approx(2.5, abs=1e-12)

    def test_identical_inputs_fixed_point(self):
        p = np.random.default_rng(8).standard_normal(6)
        params = [p.copy() for _ in range(4)]
        corr = corr_from(np.random.default_rng(9).uniform(0.1, 3.0, (4, 4)))
        for gamma in (0.0, 0.3, 1.0):
            out = personalized_aggregate(params, corr,
                                         AggregationConfig(max(gamma, 1e-9)), 2)
            np.testing.assert_allclose(out, p, atol=1e-12)

    @given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_convex_hull_property(self, seed, gamma):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        params = [rng.standard_normal(5) for _ in range(n)]
        corr = corr_from(rng.uniform(1e-6, 2.0, (n, n)))
        out = personalized_aggregate(params, corr, AggregationConfig(gamma), 0)
        stack = np.stack(params)
        assert np.all(out >= stack.min(axis=0) - 1e-9)
        assert np.all(out <= stack.max(axis=0) + 1e-9)

    def test_permutation_equivariance_over_others(self):
        rng = np.random.default_rng(10)
        params = [rng.standard_normal(4) for _ in range(4)]
        entries = rng.uniform(0.1, 2.0, (4, 4))
        entries = (entries + entries.T) / 2
        corr = corr_from(entries.copy())
        out = personalized_aggregate(params, corr, AggregationConfig(0.7), 0)
        # swap clients 2 and 3 everywhere; client 0's result must not move
        perm = [0, 1, 3, 2]
        permuted = corr_from(entries[np.ix_(perm, perm)])
        out_p = personalized_aggregate([params[i] for i in perm], permuted,
                                       AggregationConfig(0.7), 0)
        np.testing.assert_allclose(out, out_p, atol=1e-12)

    def test_uniform_r_gamma_one_equals_fedavg_over_others(self):
        rng = np.random.default_rng(11)
        params = [rng.standard_normal(6) for _ in range(4)]
        corr = corr_from(np.full((4, 4), 0.8))
        out = personalized_aggregate(params, corr, AggregationConfig(1.0), 1)
        others = [params[u] for u in (0, 2, 3)]
        expected = fedavg_aggregate(others, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_mismatch_raises(self):
        params = [np.zeros(3), np.zeros(4)]
        corr = corr_from([[0, 1.0], [1.0, 0]])
        with pytest.raises(ShapeError):
            personalized_aggregate(params, corr, AggregationConfig(0.5), 0)


class TestSimplexInvariant:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_effective_weights_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        r = rng.uniform(1e-6, 5.0, n - 1)
        gamma = float(rng.uniform(0.0, 1.0))
        total = gamma * float((r / r.sum()).sum()) + (1.0 - gamma)
        assert abs(total - 1.0) < 1e-12


class TestFedavgAggregate:
    def test_identical_models(self):
        p = np.array([1.0, 2.0, 3.0])
        out = fedavg_aggregate([p, p.copy()], [0.5, 0.5])
        np.testing.assert_allclose(out, p, atol=1e-12)

    def test_scalar_midpoint(self):
        out = fedavg_aggregate([np.array([0.0]), np.array([2.0])], [0.5, 0.5])
        assert out[0] == 1.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(12)
        params = [rng.standard_normal(7) for _ in range(4)]
        w = rng.uniform(0.1, 1.0, 4)
        w /= w.sum()
        out = fedavg_aggregate(params, w)
        expected = np.zeros(7)
        for i in range(4):
            for j in range(7):
                expected[j] += w[i] * params[i][j]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(DomainError):
            fedavg_aggregate([np.zeros(2), np.zeros(2)], [0.6, 0.6])

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            AggregationConfig(1.5)

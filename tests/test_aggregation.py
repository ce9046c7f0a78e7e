"""Tests for correlation-weighted personalized aggregation and the
weighted-average baseline."""

import contextlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.aggregation
from fedsim.aggregation import (SPLIT_ROWS, AggregationConfig, _stack_params,
                                build_correlation_matrix, correlation_degree,
                                correlation_rows, correlation_weights,
                                fedavg_aggregate, mix, personalized_aggregate,
                                probe_embeddings)
from fedsim.client import build_client, stacked_embeddings, stacked_parts
from fedsim.errors import ConfigError, DomainError, ShapeError
from fedsim.nn import GROUP_ROWS, MLP, forward_batch
from fedsim.synth import LabeledDataset

import oracles
from oracles import channel


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


CPU_COUNTS = (1, 2, 3, 5)


@contextlib.contextmanager
def usable_cpus(k):
    """Make `correlation_rows` and `mix` see k usable CPUs, as if the process were pinned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        yield


@contextlib.contextmanager
def submitted(module):
    """The argument tuples `module` submits to the executors of its helper threads, in a
    list that grows while the block runs: `_share_rows` submits (rows, k, workers, c)."""
    calls = []

    class Counted(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            calls.append(args)
            return super().submit(fn, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "ThreadPoolExecutor", Counted)
        yield calls


class RaisesInHelpers(np.ndarray):
    """Embeddings whose ufuncs fail in any thread but the main one."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("row computed in a helper thread")
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class ShareFailed(Exception):
    pass


class RaisesByShare(np.ndarray):
    """Embeddings whose ufuncs fail at once in a helper thread, and after a wait in the
    main one, where share 0 runs."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise ShareFailed("share 1")
        time.sleep(0.05)
        raise ShareFailed("share 0")


class RecordsUfuncs(np.ndarray):
    """Embeddings whose ufuncs record the thread that runs them, numpy's errstate
    there and the shapes of their inputs."""
    calls = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append((threading.current_thread().name, np.geterr(),
                           [np.shape(x) for x in inputs]))
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestCorrelationRows:
    """Each unordered pair is computed once and mirrored; every entry must equal
    the all-ordered-pairs oracle bit for bit, so R is exactly symmetric, at every
    number of usable CPUs and on either side of the split."""

    @staticmethod
    def assert_matches_oracle(embs):
        want = oracles.correlation_rows(embs)
        for k in CPU_COUNTS:
            with usable_cpus(k):
                got = correlation_rows(embs)
            assert np.array_equal(got, want), k
            assert np.array_equal(got, got.T)

    # dim and T straddle numpy's 8-wide pairwise-summation block; N the split
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 20),
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

    def test_more_threads_than_cores_under_fast_switching(self):
        # a row lost or written twice would leave np.empty garbage or another
        # row's numbers; a short switch interval interleaves the threads finely
        embs = np.random.default_rng(20).standard_normal((5 * SPLIT_ROWS // 2, 16, 8))
        want = oracles.correlation_rows(embs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with usable_cpus(5):
                for _ in range(20):
                    assert np.array_equal(correlation_rows(embs), want)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("client", [0, 2])
    def test_zero_norm_embedding_raises(self, client):
        embs = np.random.default_rng(14).standard_normal((3, 4, 5))
        embs[client, 1] = 0.0
        with pytest.raises(DomainError, match="zero-norm") as info:
            correlation_rows(embs)
        assert info.value.row == client

    @pytest.mark.parametrize("bad", [1e300, 1e200, 1e-200, 1e-160, np.inf, np.nan])
    def test_norm_out_of_range_raises_without_a_warning(self, bad):
        # squares past the float range overflow the norm (the tier-1 filter would turn
        # its warning into an error) or zero it; squares in the subnormals give a
        # finite nonzero norm whose cosines are off by up to 1e-2
        embs = np.random.default_rng(15).standard_normal((SPLIT_ROWS, 4, 5))
        embs[7, 2] *= bad
        with usable_cpus(2), pytest.raises(DomainError, match="out-of-range") as info:
            correlation_rows(embs)
        assert info.value.row == 7

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_norms_just_inside_the_range_match_the_oracle(self, scale):
        embs = np.random.default_rng(22).standard_normal((SPLIT_ROWS, 4, 5))
        embs[[3, 11]] *= scale
        self.assert_matches_oracle(embs)

    @pytest.mark.parametrize("n, cpus, threads", [
        (27, 64, 1), (28, 64, 2), (41, 64, 2), (42, 64, 3), (64, 64, 4), (64, 3, 3),
        (64, 1, 1)])
    def test_each_thread_takes_at_least_half_the_split(self, n, cpus, threads):
        # one start pays for itself from SPLIT_ROWS / 2 rows a thread (measured at 2 CPUs),
        # so many CPUs, or an affinity mask wider than a CPU quota, start no more threads
        embs = np.random.default_rng(23).standard_normal((n, 4, 3))
        with usable_cpus(cpus), submitted(fedsim.aggregation) as helpers:
            got = correlation_rows(embs)
        assert np.array_equal(got, oracles.correlation_rows(embs))
        assert [k for _, k, _, _ in helpers] == list(range(1, threads))   # the caller: 0

    def test_below_the_split_no_thread_starts(self):
        embs = np.random.default_rng(16).standard_normal((SPLIT_ROWS - 1, 8, 4))
        with usable_cpus(5), submitted(fedsim.aggregation) as helpers:
            assert np.array_equal(correlation_rows(embs), oracles.correlation_rows(embs))
        assert helpers == []

    def test_helpers_run_under_the_callers_errstate(self):
        embs = np.random.default_rng(17).standard_normal((3 * SPLIT_ROWS // 2, 8, 4))
        RecordsUfuncs.calls = []
        with usable_cpus(3), submitted(fedsim.aggregation) as helpers, \
                np.errstate(over="raise", under="warn", divide="print"):
            got = correlation_rows(embs.view(RecordsUfuncs))
            want = np.geterr()
        assert np.array_equal(got, oracles.correlation_rows(embs))
        assert len(helpers) == 2   # an idle helper may take the next share: 2 or 3 threads
        assert len({name for name, _, _ in RecordsUfuncs.calls}) > 1
        assert all(state == want for _, state, _ in RecordsUfuncs.calls)

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_threads_multiply_no_more_than_one_product_at_once(self, cpus):
        # each of k threads multiplies at most ceil(N / k) clients' embeddings at a time
        n = 5 * SPLIT_ROWS // 2 + 3   # enough rows for 5 threads
        embs = np.random.default_rng(19).standard_normal((n, 8, 4))
        RecordsUfuncs.calls = []
        with usable_cpus(cpus):
            correlation_rows(embs.view(RecordsUfuncs))
        assert max(shapes[1][0] for _, _, shapes in RecordsUfuncs.calls) == -(-n // cpus)

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_a_helpers_error_reaches_the_caller(self, cpus):
        embs = np.random.default_rng(18).standard_normal((5 * SPLIT_ROWS // 2, 8, 4))
        before = threading.active_count()
        with usable_cpus(cpus), pytest.raises(MemoryError, match="helper thread"):
            correlation_rows(embs.view(RaisesInHelpers))
        assert threading.active_count() == before

    def test_a_refused_start_joins_the_helpers_already_started(self, monkeypatch):
        started = []

        def slow(fn, *args):
            time.sleep(0.05)   # still at work when the caller sees the refusal
            return fn(*args)

        class SlowThenRefused(ThreadPoolExecutor):
            def submit(self, fn, /, *args):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(super().submit(slow, fn, *args))
                return started[-1]

        monkeypatch.setattr(fedsim.aggregation, "ThreadPoolExecutor", SlowThenRefused)
        embs = np.random.default_rng(24).standard_normal((3 * SPLIT_ROWS // 2, 8, 4))
        before = threading.active_count()
        with usable_cpus(3), pytest.raises(RuntimeError, match="can't start new thread"):
            correlation_rows(embs)
        assert len(started) == 1 and started[0].done()
        assert threading.active_count() == before

    def test_errors_come_back_in_share_order(self):
        # share 1 fails first, while share 0 is still at work; the caller gets share 0's
        embs = np.random.default_rng(26).standard_normal((64, 8, 4))
        with usable_cpus(2), submitted(fedsim.aggregation) as helpers, \
                pytest.raises(ShareFailed, match="share 0"):
            correlation_rows(embs.view(RaisesByShare))
        assert [k for _, k, _, _ in helpers] == [1]

    def test_no_helper_outlives_its_caller(self):
        embs = np.random.default_rng(27).standard_normal((64, 8, 4))
        before = threading.active_count()
        with usable_cpus(2), submitted(fedsim.aggregation) as helpers:
            assert np.array_equal(correlation_rows(embs), oracles.correlation_rows(embs))
            assert threading.active_count() == before
            with pytest.raises(MemoryError, match="helper thread"):
                correlation_rows(embs.view(RaisesInHelpers))
            assert threading.active_count() == before
        assert [k for _, k, _, _ in helpers] == [1, 1]


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


class TestStackedEmbeddings:
    """A run embeds the test splits of the clients whose models return together
    through stacked copies of their fused parts, GROUP_ROWS clients per forward;
    every row must equal that client's lone `extract_embeddings` bit for bit, as
    its parts were when the copies were listed."""

    @given(st.one_of(st.integers(1, 20), st.just(64)), st.sampled_from([1, 4, 24, 640]),
           st.integers(0, 2 ** 32 - 1))
    @example(15, 4, 0)   # the GROUP_ROWS block edge
    @example(16, 4, 0)
    @example(17, 24, 0)
    @example(64, 4, 0)   # `many_clients_agg`
    @settings(max_examples=25, deadline=None)
    def test_rows_match_lone_forwards(self, g, b, seed):
        assert GROUP_ROWS == 16
        rng = np.random.default_rng(seed)
        train = LabeledDataset(rng.standard_normal((4, 32)), np.array([0, 0, 1, 1]), "train")
        clients = [build_client(c, train, input_dim=32, seed=seed) for c in range(g)]
        for client in clients:   # the fed channel starts shared: draw every row apart
            for part in (client.local_channel, client.fed_channel, client.fusion):
                part.params[...] = rng.uniform(-0.5, 0.5, part.params.shape)
        inputs = 2.0 * rng.standard_normal((g, b, 32))
        blocks = list(stacked_parts(clients))
        expected = np.stack([c.extract_embeddings(x) for c, x in zip(clients, inputs)])
        for client in clients:   # the copies are the parts as they were when listed
            for part in (client.local_channel, client.fed_channel, client.fusion):
                part.params *= 2.0
        got = stacked_embeddings(blocks, inputs)
        assert len(blocks) == -(-g // GROUP_ROWS)
        assert got.shape == expected.shape == (g, b, clients[0].fusion.out_dim)
        assert got.tobytes() == expected.tobytes()
        assert stacked_embeddings(stacked_parts(clients), inputs).tobytes() == np.stack(
            [c.extract_embeddings(x) for c, x in zip(clients, inputs)]).tobytes()


class TestMixMatchesAxpyBytes:
    """`mix` is one einsum per block of rows of the (N, L) stack; each entry must round
    as in the axpy loop it replaced (`oracles.mix`), for correlation weights and for
    the uniform FedAvg matrix and row, one column (L = 1) included, at every number
    of usable CPUs."""

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
        want = oracles.mix(params, w, gamma).tobytes()
        for k in CPU_COUNTS:   # from SPLIT_ROWS rows on, blocks of rows go to helper threads
            with usable_cpus(k):
                got = mix(params, w, gamma)
            assert got.shape == (len(w), length)
            assert got.tobytes() == want, k

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_a_helpers_error_reaches_the_caller(self, cpus):
        params = np.random.default_rng(25).standard_normal((5 * SPLIT_ROWS // 2, 6))
        w = np.full((len(params),) * 2, 1.0 / len(params))
        before = threading.active_count()
        with usable_cpus(cpus), pytest.raises(MemoryError, match="helper thread"):
            mix(params.view(RaisesInHelpers), w, 0.5)
        assert threading.active_count() == before
        with usable_cpus(1):   # the caller alone: no helper to fail
            assert mix(params.view(RaisesInHelpers), w, 0.5).shape == params.shape


class TestPersonalizedAggregate:
    def test_gamma_zero_returns_own_model_bit_exact(self):
        rng = np.random.default_rng(7)
        params = [rng.standard_normal(10) for _ in range(3)]
        corr = corr_from(rng.uniform(0.1, 2.0, (3, 3)))
        out = personalized_aggregate(params, corr, AggregationConfig(0.0))[1]
        assert np.array_equal(out, params[1])

    def test_two_clients_gamma_one_returns_other(self):
        params = [np.array([1.0, 2.0]), np.array([5.0, -3.0])]
        corr = corr_from([[0, 0.7], [0.7, 0]])
        out = personalized_aggregate(params, corr, AggregationConfig(1.0))[0]
        np.testing.assert_allclose(out, params[1], atol=1e-12)

    def test_three_client_hand_arithmetic(self):
        # weights (3/4, 1/4) over others, gamma 0.5, scalar params (0, 4, 8)
        params = [np.array([0.0]), np.array([4.0]), np.array([8.0])]
        corr = corr_from([[0, 3.0, 1.0], [3.0, 0, 1.0], [1.0, 1.0, 0]])
        out = personalized_aggregate(params, corr, AggregationConfig(0.5))[0]
        assert out[0] == pytest.approx(2.5, abs=1e-12)

    def test_identical_inputs_fixed_point(self):
        p = np.random.default_rng(8).standard_normal(6)
        params = [p.copy() for _ in range(4)]
        corr = corr_from(np.random.default_rng(9).uniform(0.1, 3.0, (4, 4)))
        for gamma in (0.0, 0.3, 1.0):
            out = personalized_aggregate(params, corr,
                                         AggregationConfig(max(gamma, 1e-9)))[2]
            np.testing.assert_allclose(out, p, atol=1e-12)

    @given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_convex_hull_property(self, seed, gamma):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        params = [rng.standard_normal(5) for _ in range(n)]
        corr = corr_from(rng.uniform(1e-6, 2.0, (n, n)))
        out = personalized_aggregate(params, corr, AggregationConfig(gamma))[0]
        stack = np.stack(params)
        assert np.all(out >= stack.min(axis=0) - 1e-9)
        assert np.all(out <= stack.max(axis=0) + 1e-9)

    def test_permutation_equivariance_over_others(self):
        rng = np.random.default_rng(10)
        params = [rng.standard_normal(4) for _ in range(4)]
        entries = rng.uniform(0.1, 2.0, (4, 4))
        entries = (entries + entries.T) / 2
        corr = corr_from(entries.copy())
        out = personalized_aggregate(params, corr, AggregationConfig(0.7))[0]
        # swap clients 2 and 3 everywhere; client 0's result must not move
        perm = [0, 1, 3, 2]
        permuted = corr_from(entries[np.ix_(perm, perm)])
        out_p = personalized_aggregate([params[i] for i in perm], permuted,
                                       AggregationConfig(0.7))[0]
        np.testing.assert_allclose(out, out_p, atol=1e-12)

    def test_uniform_r_gamma_one_equals_fedavg_over_others(self):
        rng = np.random.default_rng(11)
        params = [rng.standard_normal(6) for _ in range(4)]
        corr = corr_from(np.full((4, 4), 0.8))
        out = personalized_aggregate(params, corr, AggregationConfig(1.0))[1]
        others = [params[u] for u in (0, 2, 3)]
        expected = fedavg_aggregate(others, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_float64_stack_is_not_copied(self):
        # the server passes its (N, L) upload stack; a copy would raise peak memory
        stack = np.arange(6.0).reshape(3, 2)
        assert _stack_params(stack) is stack
        assert np.array_equal(_stack_params(list(stack)), stack)

    def test_length_mismatch_raises(self):
        params = [np.zeros(3), np.zeros(4)]
        corr = corr_from([[0, 1.0], [1.0, 0]])
        with pytest.raises(ShapeError):
            personalized_aggregate(params, corr, AggregationConfig(0.5))


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

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [1.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_weights_rejected(self, weights):
        # NaN passes `weights < 0` and a NaN sum passes the sum test
        with pytest.raises(DomainError, match="finite"):
            fedavg_aggregate(np.ones((2, 3)), weights)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            AggregationConfig(1.5)

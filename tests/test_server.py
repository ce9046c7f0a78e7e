"""Tests for the server runtime: upload barrier, aggregation dispatches,
probe-set loading."""

import numpy as np
import pytest

from fedsim.aggregation import AggregationConfig
from fedsim.client import UploadMessage
from fedsim.errors import ConfigError, DivergenceError, ProtocolError, \
    ShapeError, StaleMessageError
from fedsim.nn import MLP, channel, forward_batch
from fedsim.server import (DispatchMessage, ServerState, Strategy,
                           handle_upload, load_probe_set, run_aggregation)


def make_server(n=3, gamma=0.5, strategy=Strategy.PERSONALIZED, seed=0):
    probes = np.random.default_rng(seed).standard_normal((6, 4))
    return ServerState(client_ids=range(n), probes=probes,
                       fed_arch=channel(4, 5, 3, seed=0),
                       agg_cfg=AggregationConfig(gamma),
                       strategy=strategy)


def upload(server, client_id, seed=None, params=None):
    if params is None:
        params = channel(4, 5, 3, seed=seed).params
    msg = UploadMessage(client_id, server.round, params)
    handle_upload(server, msg)
    return msg


class TestHandleUpload:
    def test_first_upload_stored(self):
        s = make_server()
        upload(s, 0, seed=1)
        assert len(s.received) == 1 and not s.ready

    def test_duplicate_rejected(self):
        s = make_server()
        upload(s, 0, seed=1)
        with pytest.raises(ProtocolError):
            upload(s, 0, seed=2)

    def test_barrier_ready_after_all_uploads(self):
        s = make_server(n=3)
        for c in range(3):
            upload(s, c, seed=c)
        assert s.ready

    def test_stale_round_rejected(self):
        s = make_server()
        s.round = 2
        with pytest.raises(StaleMessageError):
            handle_upload(s, UploadMessage(0, 1, channel(4, 5, 3, seed=0).params))

    def test_future_round_rejected(self):
        s = make_server()
        with pytest.raises(ProtocolError):
            handle_upload(s, UploadMessage(0, 3, channel(4, 5, 3, seed=0).params))

    def test_unknown_client_rejected(self):
        s = make_server(n=2)
        with pytest.raises(ProtocolError):
            upload(s, 5, seed=0)

    @pytest.mark.parametrize("client_ids", [(0, 0)])
    def test_client_ids_one_distinct_id_per_client(self, client_ids):
        with pytest.raises(ConfigError):
            ServerState(probes=np.zeros((1, 4)),
                        fed_arch=channel(4, 5, 3, seed=0), client_ids=client_ids)

    def test_wrong_shape_rejected(self):
        s = make_server()
        with pytest.raises(ShapeError):
            handle_upload(s, UploadMessage(0, 0, np.zeros(7)))

    def test_non_finite_upload_rejected_before_it_poisons_others(self):
        s = make_server(n=4)
        for c in (0, 1, 3):
            upload(s, c, seed=c)
        bad = channel(4, 5, 3, seed=2).params
        bad[3] = np.nan
        with pytest.raises(DivergenceError) as info:
            upload(s, 2, params=bad)
        assert (info.value.client_id, info.value.round_index,
                info.value.phase) == (2, 0, "upload")
        assert 2 not in s.received


class TestRunAggregation:
    def test_requires_all_uploads(self):
        s = make_server(n=2)
        upload(s, 0, seed=1)
        with pytest.raises(ProtocolError):
            run_aggregation(s)

    def test_identical_uploads_return_same_params(self):
        s = make_server(n=3, gamma=0.7)
        p = channel(4, 5, 3, seed=9).params
        for c in range(3):
            upload(s, c, params=p.copy())
        for d in run_aggregation(s):
            np.testing.assert_allclose(d.params, p, atol=1e-12)

    def test_gamma_zero_returns_own_uploads_bit_exact(self):
        s = make_server(n=3, gamma=0.0)
        msgs = [upload(s, c, seed=10 + c) for c in range(3)]
        for d, m in zip(run_aggregation(s), msgs):
            assert np.array_equal(d.params, m.params)

    def test_matches_straight_line_reimplementation(self):
        # independent single-pass recomputation of the personalized rule
        for n in (2, 3, 4, 6):
            s = make_server(n=n, gamma=0.5, seed=n)
            msgs = [upload(s, c, seed=50 * n + c) for c in range(n)]
            probes = s.probes.copy()
            dispatches = run_aggregation(s)

            embs = []
            for m in msgs:
                model = MLP((4, 5, 3), "linear", m.params.copy())
                embs.append(forward_batch(model, probes)[0])
            for c in range(n):
                r = {}
                for u in range(n):
                    if u == c:
                        continue
                    cos = 0.0
                    for t in range(probes.shape[0]):
                        cos += float(embs[c][t] @ embs[u][t]
                                     / (np.linalg.norm(embs[c][t])
                                        * np.linalg.norm(embs[u][t])))
                    r[u] = max(cos, 1e-6)
                r_sum = sum(r.values())
                mix = sum((r[u] / r_sum) * msgs[u].params for u in r)
                expected = 0.5 * mix + 0.5 * msgs[c].params
                np.testing.assert_allclose(dispatches[c].params, expected,
                                           atol=1e-12)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_bit_exact_against_per_client_loops_at_n9(self, strategy):
        # n >= 8 (and T >= 8 probes) is where numpy's pairwise summation
        # starts blocking, so a reordered sum would show up here first.
        n, gamma = 9, 0.3
        s = make_server(n=n, gamma=gamma, strategy=strategy, seed=n)
        s.probes = np.random.default_rng(n).standard_normal((12, 4))
        params = [upload(s, c, seed=90 + c).params for c in range(n)]
        dispatches = run_aggregation(s)

        if strategy is Strategy.FEDAVG:
            avg = np.zeros(params[0].size)
            for p in params:
                avg += np.full(n, 1.0 / n)[0] * p
            expected = [avg] * n
        else:
            embs = [forward_batch(MLP((4, 5, 3), "linear", p), s.probes)[0]
                    for p in params]
            corr = np.full((n, n), np.nan)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = embs[i], embs[j]
                    cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1)
                                                 * np.linalg.norm(b, axis=1))
                    corr[i, j] = corr[j, i] = max(float(cos.sum()), 1e-6)
            expected = []
            for c in range(n):
                others = [u for u in range(n) if u != c]
                r = corr[c, others]
                r_sum = float(r.sum())
                acc = np.zeros(params[0].size)
                for u, r_u in zip(others, r):
                    acc += (r_u / r_sum) * params[u]
                expected.append(gamma * acc + (1.0 - gamma) * params[c])
        for d, want in zip(dispatches, expected):
            assert np.array_equal(d.params, want)

    def test_round_advances_and_buffer_clears(self):
        s = make_server(n=2)
        for c in range(2):
            upload(s, c, seed=c)
        run_aggregation(s)
        assert s.round == 1 and s.received == {}

    def test_fedavg_strategy_same_params_for_all(self):
        s = make_server(n=3, strategy=Strategy.FEDAVG)
        msgs = [upload(s, c, seed=20 + c) for c in range(3)]
        dispatches = run_aggregation(s)
        expected = np.mean([m.params for m in msgs], axis=0)
        for d in dispatches:
            np.testing.assert_allclose(d.params, expected, atol=1e-12)

    def test_personalization_gives_distinct_dispatches(self):
        s = make_server(n=3, gamma=0.5)
        for c in range(3):
            upload(s, c, seed=30 + c)
        dispatches = run_aggregation(s)
        assert not np.allclose(dispatches[0].params, dispatches[1].params)

    def test_uploads_not_mutated(self):
        s = make_server(n=2)
        msgs = [upload(s, c, seed=40 + c) for c in range(2)]
        snaps = [m.params.copy() for m in msgs]
        run_aggregation(s)
        for m, snap in zip(msgs, snaps):
            np.testing.assert_array_equal(m.params, snap)


class TestLoadProbeSet:
    def test_single_item(self):
        source = np.arange(20.0).reshape(10, 2)
        probes = load_probe_set(source, 1, seed=0)
        assert probes.shape == (1, 2)

    def test_seed_determinism(self):
        source = np.random.default_rng(0).standard_normal((50, 4))
        a = load_probe_set(source, 8, seed=7)
        b = load_probe_set(source, 8, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_items_come_from_source(self):
        source = np.random.default_rng(1).standard_normal((40, 3))
        probes = load_probe_set(source, 5, seed=3)
        for row in probes:
            assert any(np.array_equal(row, s) for s in source)

    def test_insufficient_items_rejected(self):
        with pytest.raises(ConfigError):
            load_probe_set(np.zeros((3, 2)), 5, seed=0)

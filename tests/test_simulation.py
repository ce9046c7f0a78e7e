"""Tests for the discrete-event protocol schedule: async-step budgets,
tie-breaking, sim-time conservation, and determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.client
from fedsim.aggregation import AggregationConfig
from fedsim.client import Phase, TrainingParams, build_client
from fedsim.errors import ConfigError, ProtocolError
from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.nn import channel
from fedsim.server import ServerState, Strategy
from fedsim.simulation import (EventKind, SimConfig, TimelineLog,
                               TimelineRecord, run_simulation)
from fedsim.synth import LabeledDataset, SynthSpec
from sim_defaults import by_kind, sim_config
from test_golden import artifact_digest


def make_clients(n, seed=0, epochs=1, batch_size=8, n_classes=4, per_class=4):
    clients = []
    for c in range(n):
        rng = np.random.default_rng((seed, c))
        protos = 2.0 * rng.standard_normal((n_classes, 6))
        inputs = (np.repeat(protos, per_class, axis=0)
                  + 0.4 * rng.standard_normal((n_classes * per_class, 6)))
        labels = np.repeat(np.arange(n_classes), per_class)
        clients.append(build_client(
            c, LabeledDataset(inputs, labels, "train"), input_dim=6,
            training=TrainingParams(local_hidden=8, fed_hidden=6, emb_dim=4,
                                    fuse_dim=4, alpha1=0.1, alpha2=1.0, alpha3=0.01,
                                    lr=0.05, epochs=epochs, batch=batch_size,
                                    center_lr=0.5),
            seed=seed))
    return clients


def make_server(n, seed=0, strategy=None):
    if strategy is None:
        # the personalized rule needs at least two models to mix
        strategy = Strategy.PERSONALIZED if n >= 2 else Strategy.FEDAVG
    probes = np.random.default_rng((seed, 99)).standard_normal((5, 6))
    return ServerState(expected_clients=n, probes=probes,
                       fed_arch=channel(6, 6, 4, seed=(seed, 2)),
                       agg_cfg=AggregationConfig(0.5),
                       strategy=strategy)


def returns_of(log):
    return by_kind(log, EventKind.MODEL_RETURNED.name)


class TestAsyncBudget:
    def test_zero_latencies_zero_async_steps(self):
        cfg = sim_config(n_clients=2, rounds=2, upload_latency=0,
                         download_latency=0, server_compute_time=0,
                         async_step_duration=1)
        log, _, _ = run_simulation(cfg, make_clients(2), make_server(2))
        for rec in returns_of(log):
            assert rec.async_steps == 0

    def test_wait_window_five_gives_exactly_five_steps(self):
        # single client, instant barrier: W = 5 + 0 + 0
        cfg = sim_config(n_clients=1, rounds=1, upload_latency=5,
                         download_latency=0, server_compute_time=0,
                         async_step_duration=1)
        log, _, _ = run_simulation(cfg, make_clients(1), make_server(1))
        recs = returns_of(log)
        assert len(recs) == 1 and recs[0].async_steps == 5
        assert recs[0].idle == 0

    def test_floor_division_of_wait_window(self):
        # W = 7, step 2 -> floor(7/2) = 3 steps, idle 1
        cfg = sim_config(n_clients=1, rounds=1, upload_latency=3,
                         download_latency=2, server_compute_time=2,
                         async_step_duration=2)
        log, _, _ = run_simulation(cfg, make_clients(1), make_server(1))
        rec = returns_of(log)[0]
        assert rec.async_steps == 3 and rec.idle == 1

    def test_straggler_stretches_other_clients_budget(self):
        # client 1 trains twice as long per step; client 0 waits on the barrier
        cfg = SimConfig(n_clients=2, rounds=1, local_step_duration=(1, 3),
                        upload_latency=2, download_latency=2,
                        server_compute_time=1, async_step_duration=1)
        log, _, _ = run_simulation(cfg, make_clients(2), make_server(2))
        by_subject = {r.subject: r for r in returns_of(log)}
        assert by_subject[0].async_steps > by_subject[1].async_steps


    def test_stale_chain_stops_when_its_round_ends(self):
        # a 2-tick local round ends before the previous round's chain is due
        # again (t=10), so that chain must not step beside the new one
        cfg = sim_config(n_clients=1, rounds=3, upload_latency=5,
                         download_latency=0, server_compute_time=0,
                         async_step_duration=4)
        log, _, _ = run_simulation(cfg, make_clients(1), make_server(1))
        assert [(r.async_steps, r.idle) for r in returns_of(log)] == [(1, 1)] * 3
        assert len(by_kind(log, EventKind.ASYNC_STEP_DUE.name)) == 3


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 3))
    ticks = lambda hi: st.lists(st.integers(0, hi), min_size=n, max_size=n)
    return SimConfig(n_clients=n, rounds=draw(st.integers(1, 3)),
                     local_step_duration=draw(ticks(3)),
                     upload_latency=draw(ticks(12)),
                     download_latency=draw(ticks(12)),
                     server_compute_time=draw(st.integers(0, 6)),
                     async_step_duration=draw(st.none() | st.integers(1, 4)))


class TestScheduleProperties:
    @settings(max_examples=80, deadline=None)
    @given(cfg=schedules())
    def test_schedule_invariants(self, cfg):
        def run():
            server = make_server(cfg.n_clients)
            log, _, _ = run_simulation(cfg, make_clients(cfg.n_clients), server)
            return log, server

        log, server = run()
        d = cfg.async_step_duration
        done = {(r.subject, r.round): r.t
                for r in by_kind(log, EventKind.LOCAL_ROUND_DONE.name)}
        steps = by_kind(log, EventKind.ASYNC_STEP_DUE.name)
        for r in returns_of(log):
            wait = r.t - done[(r.subject, r.round)]
            if d is None:
                assert (r.async_steps, r.idle) == (0, wait)
            else:
                assert wait == r.async_steps * d + r.idle and 0 <= r.idle < d
            assert r.async_steps == sum(s.subject == r.subject and s.round == r.round
                                        for s in steps)
        for c in range(cfg.n_clients):
            assert [r.round for r in returns_of(log) if r.subject == c] \
                == list(range(cfg.rounds))
        ts = [r.t for r in log.records]
        assert ts == sorted(ts)
        assert server.round == cfg.rounds
        again, _ = run()
        assert [r.as_json() for r in again.records] == [r.as_json() for r in log.records]

    @settings(max_examples=40, deadline=None)
    @given(cfg=schedules())
    def test_solo_schedule_invariants(self, cfg):
        # without a server each upload returns on the tick its round ends
        def run():
            log, _, _ = run_simulation(cfg, make_clients(cfg.n_clients), server=None)
            return log

        log = run()
        for c in range(cfg.n_clients):
            assert [r.round for r in returns_of(log) if r.subject == c] \
                == list(range(cfg.rounds))
        assert all((r.async_steps, r.idle) == (0, 0) for r in returns_of(log))
        assert not by_kind(log, EventKind.ASYNC_STEP_DUE.name)
        ts = [r.t for r in log.records]
        assert ts == sorted(ts)
        assert [r.as_json() for r in run().records] == [r.as_json() for r in log.records]


@st.composite
def small_experiments(draw):
    """A drawn schedule over 2-5 small clients; clients of one training-set
    size group together, and unequal step durations split a group's steps."""
    n = draw(st.integers(2, 5))
    per_client = lambda lo, hi: draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return ExperimentConfig(
        mode=draw(st.sampled_from(["full", "fedavg", "solo"])),
        rounds=draw(st.integers(1, 2)),
        synth=SynthSpec(n_clients=n, classes_per_client=10,
                        samples_per_class=per_client(2, 3)),
        local_step_duration=per_client(0, 2), upload_latency=per_client(0, 4),
        download_latency=per_client(0, 4),
        async_step_duration=draw(st.integers(1, 3)))


class TestGroupedRunEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(cfg=small_experiments())
    def test_grouped_run_equals_every_client_alone(self, cfg, tmp_path_factory):
        grouped = artifact_digest(run_experiment(cfg), tmp_path_factory.mktemp("g"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim.client, "GROUP_ROWS", 1)
            alone = artifact_digest(run_experiment(cfg), tmp_path_factory.mktemp("a"))
        assert grouped == alone


class TestConservation:
    def test_sim_time_conservation_every_round(self):
        cfg = SimConfig(n_clients=3, rounds=4, local_step_duration=(1, 2, 1),
                        upload_latency=(3, 5, 2), download_latency=(4, 1, 6),
                        server_compute_time=3, async_step_duration=2)
        clients = make_clients(3)
        log, clients, _ = run_simulation(cfg, clients, make_server(3))
        # reconstruct each client's rounds from the log
        for c in range(3):
            dur = cfg.local_step_duration[c] * clients[c].local_epochs \
                * clients[c].n_batches()
            starts = [0]
            done = [r for r in log.records
                    if r.subject == c and r.kind == EventKind.LOCAL_ROUND_DONE.name]
            rets = [r for r in log.records
                    if r.subject == c and r.kind == EventKind.MODEL_RETURNED.name]
            assert len(done) == len(rets) == 4
            for d, r in zip(done, rets):
                assert d.t == starts[-1] + dur
                wait = r.t - d.t
                assert wait == r.async_steps * 2 + r.idle
                starts.append(r.t)

    def test_timestamps_nondecreasing(self):
        cfg = sim_config(n_clients=2, rounds=3, async_step_duration=1)
        log, _, _ = run_simulation(cfg, make_clients(2), make_server(2))
        ts = [r.t for r in log.records]
        assert ts == sorted(ts)

    def test_experiment_end_at_last_event(self):
        cfg = sim_config(n_clients=2, rounds=2, async_step_duration=2)
        log, _, _ = run_simulation(cfg, make_clients(2), make_server(2))
        assert log.records[-1].kind == EventKind.EXPERIMENT_END.name
        assert log.records[-1].t == log.records[-2].t


class TestDeterminism:
    def test_identical_runs_bit_identical_logs(self):
        def one():
            cfg = sim_config(n_clients=2, rounds=3, async_step_duration=1)
            log, _, _ = run_simulation(cfg, make_clients(2, seed=5),
                                       make_server(2, seed=5))
            return "\n".join(r.as_json() for r in log.records)
        assert one() == one()

    def test_final_params_reproducible(self):
        def one():
            cfg = sim_config(n_clients=2, rounds=2, async_step_duration=1)
            _, clients, _ = run_simulation(cfg, make_clients(2, seed=6),
                                           make_server(2, seed=6))
            return np.concatenate([c.fed_channel.params for c in clients])
        np.testing.assert_array_equal(one(), one())


class TestSynchronousReference:
    def test_zero_async_steps_and_full_idle(self):
        cfg = sim_config(n_clients=2, rounds=2, upload_latency=4,
                         download_latency=3, server_compute_time=2,
                         async_step_duration=1)
        log, _, _ = run_simulation(replace(cfg, async_step_duration=None),
                                   make_clients(2), make_server(2))
        for rec in returns_of(log):
            assert rec.async_steps == 0
            assert rec.idle == rec.t - max(
                r.t for r in log.records
                if r.subject == rec.subject
                and r.kind == EventKind.LOCAL_ROUND_DONE.name and r.t <= rec.t)
        assert not by_kind(log, EventKind.ASYNC_STEP_DUE.name)

    def test_equals_run_with_huge_async_step(self):
        # a step longer than any wait window never fires
        def final(builder):
            clients = make_clients(2, seed=7)
            _, clients, _ = builder(clients)
            return np.concatenate([c.fed_channel.params for c in clients])

        cfg_sync = sim_config(n_clients=2, rounds=2, async_step_duration=1)
        a = final(lambda cl: run_simulation(replace(cfg_sync, async_step_duration=None),
                                           cl, make_server(2, 7)))
        cfg_huge = sim_config(n_clients=2, rounds=2, async_step_duration=10 ** 9)
        b = final(lambda cl: run_simulation(cfg_huge, cl, make_server(2, 7)))
        np.testing.assert_array_equal(a, b)


class TestSoloMode:
    def test_no_server_events(self):
        cfg = sim_config(n_clients=2, rounds=2, async_step_duration=1)
        log, _, _ = run_simulation(cfg, make_clients(2), server=None)
        assert not by_kind(log, EventKind.UPLOAD_ARRIVED.name)
        assert not by_kind(log, EventKind.AGGREGATION_DONE.name)
        assert not by_kind(log, EventKind.ASYNC_STEP_DUE.name)

    def test_solo_rounds_complete(self):
        cfg = sim_config(n_clients=1, rounds=3, async_step_duration=1)
        log, clients, _ = run_simulation(cfg, make_clients(1), server=None)
        assert len(returns_of(log)) == 3
        assert clients[0].fed_round == 3


class TestRoundCount:
    @pytest.mark.parametrize("solo", [True, False])
    def test_client_entering_after_round_zero_runs_cfg_rounds(self, solo):
        clients = make_clients(2)
        for client in clients:  # one federated round done before this run
            client.adopt_global(client.local_train_round().params)
        server = None if solo else make_server(2)
        if server is not None:
            server.round = 1
        log, clients, _ = run_simulation(sim_config(n_clients=2, rounds=2), clients,
                                         server)
        for c in range(2):
            assert [r.round for r in returns_of(log) if r.subject == c] == [1, 2]
        assert [client.fed_round for client in clients] == [3, 3]


class TestValidation:
    def test_bad_rounds_rejected(self):
        with pytest.raises(ConfigError):
            sim_config(n_clients=1, rounds=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            sim_config(n_clients=1, rounds=1, upload_latency=-1)

    def test_zero_async_step_rejected(self):
        with pytest.raises(ConfigError):
            sim_config(n_clients=1, rounds=1, async_step_duration=0)

    @pytest.mark.parametrize("field, value", [
        ("local_step_duration", 1.5), ("upload_latency", (10, 2.5)),
        ("download_latency", float("nan")), ("server_compute_time", 2.5),
        ("async_step_duration", 2.7)])
    def test_fractional_ticks_rejected(self, field, value):
        # int() would run 1.5 as 1 tick; the CLI refuses these values too
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(synth=SynthSpec(n_clients=2), **{field: value})

    def test_whole_float_ticks_stored_as_ints(self):
        cfg = sim_config(n_clients=2, rounds=1, local_step_duration=2.0,
                         server_compute_time=5.0, async_step_duration=3.0)
        assert cfg.local_step_duration == (2, 2)
        assert type(cfg.server_compute_time) is int and cfg.server_compute_time == 5
        assert type(cfg.async_step_duration) is int

    def test_client_count_mismatch_rejected(self):
        cfg = sim_config(n_clients=3, rounds=1)
        with pytest.raises(ConfigError):
            run_simulation(cfg, make_clients(2), make_server(3))

    @pytest.mark.parametrize("server_ids, own_ids", [((0, 5), (0, 1)), ((0, 1), (0, 0))])
    def test_server_client_ids_must_match_the_clients(self, server_ids, own_ids):
        # same count, other or repeated ids: refused before any client trains
        clients = make_clients(2)
        for c, client_id in zip(clients, own_ids):
            c.client_id = client_id
        before = [c.local_channel.params.copy() for c in clients]
        server = replace(make_server(2), client_ids=server_ids)
        with pytest.raises(ConfigError, match="client ids"):
            run_simulation(sim_config(n_clients=2, rounds=1), clients, server)
        for c, params in zip(clients, before):
            assert (c.phase, c.fed_round) == (Phase.LOCAL_TRAINING, 0)
            assert np.array_equal(c.local_channel.params, params)

    def test_rebinding_a_stacked_member_is_refused(self):
        # the hook detaches client 0 from its group's row after round 0
        def rebind(client, round_index, t):
            if client.client_id == 0 and round_index == 0:
                client.head1.params = client.head1.params.copy()

        with pytest.raises(ProtocolError, match="client 0 rebound"):
            run_simulation(sim_config(n_clients=2, rounds=3), make_clients(2),
                           make_server(2), rebind)

    def test_timeline_rejects_time_travel(self):
        log = TimelineLog()
        log.append(TimelineRecord(5, "X", 0, 0))
        with pytest.raises(ConfigError):
            log.append(TimelineRecord(4, "X", 0, 0))

"""Tests for the discrete-event protocol schedule: async-step budgets,
tie-breaking, sim-time conservation, and determinism."""

import itertools
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.client
import fedsim.experiment
from fedsim.aggregation import AggregationConfig
from fedsim.client import Phase, TrainingParams, build_client, fused_embeddings
from fedsim.errors import ConfigError, DivergenceError, ProtocolError
from fedsim.experiment import ExperimentConfig, Toggles, run_experiment
from fedsim.metrics import IMPOSTOR_PAIR_CAP
from fedsim.nn import MLP
from fedsim.server import ServerState, Strategy
from fedsim.simulation import EventKind, SimConfig, run_simulation
from fedsim.synth import LabeledDataset, SynthSpec, generate
from oracles import channel
from sim_defaults import by_kind, sim_config
from test_aggregation import submitted, usable_cpus
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
    return ServerState(client_ids=range(n), probes=probes,
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


# the ROADMAP Baseline's out-of-lockstep schedule (test_out_of_lockstep_golden.py)
OUT_OF_LOCKSTEP = ExperimentConfig(local_step_duration=(1, 2, 1, 3),
                                   upload_latency=(25, 20, 30, 25))


def one_client_per_forward(blocks, inputs):
    """Each row of the `stacked_parts` copies through a forward of its own."""
    lone = [[MLP(p.sizes, p.out_act, row) for p, row in zip(parts, rows)]
            for parts in blocks for rows in zip(*(p.params for p in parts))]
    return np.stack([fused_embeddings(*parts, x) for parts, x in zip(lone, inputs)])


class TestRoundHook:
    """The hook gets each run of consecutive MODEL_RETURNED events once, after
    the run's adoptions; run_experiment evaluates the run in stacked forwards."""

    @settings(max_examples=30, deadline=None)
    @given(cfg=small_experiments())
    @example(cfg=OUT_OF_LOCKSTEP)
    def test_hook_gets_each_run_of_returns(self, cfg, tmp_path_factory):
        calls = []
        run_simulation = fedsim.experiment.run_simulation

        def spy_simulation(sim_cfg, clients, server, on_round_complete):
            def hook(returns):
                calls.append([(client.client_id, r, t) for client, r, t in returns])
                for client, r, _ in returns:
                    assert (client.fed_round, client.phase) == (r + 1, Phase.LOCAL_TRAINING)
                on_round_complete(returns)
            return run_simulation(sim_cfg, clients, server, hook)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim.experiment, "run_simulation", spy_simulation)
            result = run_experiment(cfg)
        runs = [[]]   # the timeline's runs of consecutive MODEL_RETURNED records
        for rec in result.timeline.records:
            if rec.kind == EventKind.MODEL_RETURNED.name:
                runs[-1].append((cfg.clients[rec.subject], rec.round, rec.t))
            elif runs[-1]:
                runs.append([])
        assert calls == runs[:-1]
        returned = [(c, r) for call in calls for c, r, _ in call]
        assert sorted(returned) == [(c, r) for c in cfg.clients for r in range(cfg.rounds)]
        assert [(m.client_id, m.round) for m in result.metrics] == returned
        with pytest.MonkeyPatch.context() as patch:   # one client per forward and per score
            patch.setattr(fedsim.experiment, "stacked_embeddings", one_client_per_forward)
            patch.setattr(fedsim.experiment, "SCORE_ENTRIES", 0)
            alone = run_experiment(cfg)
        assert artifact_digest(result, tmp_path_factory.mktemp("s")) \
            == artifact_digest(alone, tmp_path_factory.mktemp("a"))


def scored_blocks(patch):
    """The (client ids, n) of each `score_pairs` call a run makes: a spy on the kernel
    sees its (G, n, dim) embeddings, and one on `evaluate_client` the block's clients."""
    blocks, kernel = [], []
    evaluate_client, score_pairs = fedsim.experiment.evaluate_client, fedsim.experiment.score_pairs

    def spy_evaluate(returns, emb, test, positions):
        calls = len(kernel)
        out = evaluate_client(returns, emb, test, positions)
        assert kernel[calls:] == [(len(returns), len(test.labels))]   # one call a block
        blocks.append(([client.client_id for client, _, _ in returns], len(test.labels)))
        return out

    def spy_kernel(embeddings, labels, *, positions):
        kernel.append(np.shape(embeddings)[:2])
        return score_pairs(embeddings, labels, positions=positions)

    patch.setattr(fedsim.experiment, "evaluate_client", spy_evaluate)
    patch.setattr(fedsim.experiment, "score_pairs", spy_kernel)
    return blocks


class TestScoringBlocks:
    """run_experiment scores each run of returns in blocks: clients that share their
    test labels, so their pair positions, with at most SCORE_ENTRIES similarities
    (n² each) in a block of two or more; metrics.csv keeps the plan order."""

    def test_a_client_past_the_impostor_cap_is_scored_alone(self):
        # n * (n - 1) / 2 pairs first pass the cap at n = 317; two such clients never fit
        n = next(n for n in itertools.count(2) if n * (n - 1) // 2 > IMPOSTOR_PAIR_CAP)
        assert 2 * n * n > fedsim.experiment.SCORE_ENTRIES

    def test_open_set_cli_clients_score_one_per_call(self):
        # the open_set_cli workload's test splits: 16 identities x 40 samples = 640
        cfg = ExperimentConfig(mode="fedavg", rounds=2, training=TrainingParams(epochs=1),
                               synth=SynthSpec(n_clients=2, samples_per_class=40,
                                               open_set_split=0.2))
        with pytest.MonkeyPatch.context() as patch:
            blocks = scored_blocks(patch)
            run_experiment(cfg)
        assert blocks == [([0], 640), ([1], 640)] * 2

    def test_many_clients_agg_scores_one_call_per_round(self):
        # the many_clients_agg workload: 64 clients of 2 identities x 2 test samples
        cfg = ExperimentConfig(rounds=2, training=TrainingParams(epochs=1), probe_size=128,
                               synth=SynthSpec(n_clients=64, classes_per_client=10,
                                               samples_per_class=2),
                               toggles=Toggles(async_enabled=False))
        with pytest.MonkeyPatch.context() as patch:
            blocks = scored_blocks(patch)
            run_experiment(cfg)
        assert blocks == [(list(range(64)), 4)] * 2

    def test_mixed_sizes_write_metrics_in_plan_order(self, tmp_path_factory):
        # test splits of 4, 6 and 8 samples in each run of returns; blocks of two 4s
        cfg = ExperimentConfig(mode="fedavg", rounds=2, synth=SynthSpec(
            n_clients=7, classes_per_client=10, samples_per_class=(2, 3, 2, 2, 4, 3, 2)))
        runs = {}
        for entries in (2 * 4 * 4, 0):   # the second scores every client alone
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fedsim.experiment, "SCORE_ENTRIES", entries)
                blocks = scored_blocks(patch)
                result = run_experiment(cfg)
            returned = [(cfg.clients[r.subject], r.round) for r in result.timeline.records
                        if r.kind == EventKind.MODEL_RETURNED.name]
            assert [(m.client_id, m.round) for m in result.metrics] == returned
            runs[entries] = blocks, artifact_digest(result, tmp_path_factory.mktemp("m"))
        assert runs[32][0] == [([0, 2], 4), ([3, 6], 4), ([1], 6), ([5], 6), ([4], 8)] * 2
        assert runs[0][0] == [([c], n) for c, n in
                              [(0, 4), (2, 4), (3, 4), (6, 4), (1, 6), (5, 6), (4, 8)]] * 2
        assert runs[32][1] == runs[0][1]


# the open_set_cli workload's shape at 2 clients and 2 rounds: 640 test samples a client
OPEN_SET = ExperimentConfig(mode="fedavg", rounds=2, training=TrainingParams(epochs=1),
                            synth=SynthSpec(n_clients=2, samples_per_class=40,
                                            open_set_split=0.2))
# the many_clients_agg workload's shape at 2 rounds: 64 clients of 4 test samples
MANY_CLIENTS = ExperimentConfig(rounds=2, training=TrainingParams(epochs=1), probe_size=128,
                                synth=SynthSpec(n_clients=64, classes_per_client=10,
                                                samples_per_class=2),
                                toggles=Toggles(async_enabled=False))


class ScoringFailed(Exception):
    pass


def failing_score_pairs(embeddings, labels, *, positions):
    raise ScoringFailed("round 0")


class TestHelperScorer:
    """A round in which a client scores alone past SCORE_ENTRIES is scored in a helper
    thread while the next round trains, if a second CPU is usable; every other round
    scores inline. Errors keep plan order, and the helper runs under the caller's
    np.errstate."""

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("cfg", [ExperimentConfig(), MANY_CLIENTS],
                             ids=["default", "many_clients"])
    def test_small_splits_score_inline(self, cfg, cpus):
        assert max(len(t.labels) for _, t in generate(cfg.synth)[0]) ** 2 \
            <= fedsim.experiment.SCORE_ENTRIES
        with usable_cpus(cpus), submitted(fedsim.experiment) as helpers:
            run_experiment(cfg)
        assert helpers == []

    def test_no_helper_outlives_the_run(self):
        before = threading.active_count()
        with usable_cpus(2), submitted(fedsim.experiment) as helpers, \
                pytest.MonkeyPatch.context() as patch:
            run_experiment(OPEN_SET)
            assert threading.active_count() == before and len(helpers) == 2
            patch.setattr(fedsim.experiment, "score_pairs", failing_score_pairs)
            with pytest.raises(ScoringFailed, match="round 0"):
                run_experiment(OPEN_SET)
            assert threading.active_count() == before and len(helpers) == 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_scoring_error_wins_over_a_later_divergence(self, cpus):
        # round 0's scoring fails; the hook spy then sets every lr to 1e200, so round 1's
        # local training diverges while a helper may still hold round 0's error
        score_threads = []
        run_simulation = fedsim.experiment.run_simulation

        def failing_score_pairs(embeddings, labels, *, positions):
            score_threads.append(threading.current_thread() is threading.main_thread())
            raise ScoringFailed("round 0")

        def spy_simulation(sim_cfg, clients, server, on_round_complete):
            def hook(returns):
                on_round_complete(returns)
                for client in clients:
                    client.lr = 1e200
            return run_simulation(sim_cfg, clients, server, hook)

        with usable_cpus(cpus), pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim.experiment, "score_pairs", failing_score_pairs)
            patch.setattr(fedsim.experiment, "run_simulation", spy_simulation)
            with pytest.raises(ScoringFailed, match="round 0") as info:
                run_experiment(OPEN_SET)
        assert score_threads == [cpus == 1]
        if cpus > 1:   # the walk went on and diverged; the helper's error, earlier, wins
            assert isinstance(info.value.__context__, DivergenceError)
            assert (info.value.__context__.round_index, info.value.__context__.phase) \
                == (1, "local")

    def test_helpers_keep_plan_order_under_fast_switching(self, tmp_path_factory):
        # a helper that overlapped the next one, or the walk's reads of what it writes,
        # would reorder or lose metrics rows; a short switch interval interleaves finely
        cfg = replace(OPEN_SET, rounds=4, download_latency=(25, 30))   # out of lockstep

        def outputs(result):
            return artifact_digest(result, tmp_path_factory.mktemp("a")), {
                c: (s.genuine.tobytes(), s.impostor.tobytes())
                for c, s in result.final_scores.items()}

        with usable_cpus(1):
            inline = outputs(run_experiment(cfg))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with usable_cpus(2):
                result = run_experiment(cfg)
        finally:
            sys.setswitchinterval(interval)
        returned = [(cfg.clients[r.subject], r.round) for r in result.timeline.records
                    if r.kind == EventKind.MODEL_RETURNED.name]
        assert [(m.client_id, m.round) for m in result.metrics] == returned
        assert outputs(result) == inline and len(inline[1]) == 2

    def test_the_callers_errstate_reaches_the_helper(self):
        seen = []
        score_pairs = fedsim.experiment.score_pairs

        def spy_score_pairs(embeddings, labels, *, positions):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return score_pairs(embeddings, labels, positions=positions)

        with usable_cpus(2), pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim.experiment, "score_pairs", spy_score_pairs)
            with np.errstate(over="raise", under="warn", divide="print"):
                want = np.geterr()
                run_experiment(OPEN_SET)
        assert want["over"] == "raise"
        assert seen == [(False, want)] * 4   # 2 clients scored alone, 2 rounds

    @pytest.mark.parametrize("cfg, cpus, lent", [(MANY_CLIENTS, 2, True), (OPEN_SET, 1, True),
                                                 (OPEN_SET, 2, False)],
                             ids=["many_clients", "open_set-inline", "open_set-helper"])
    def test_inline_rounds_read_whole_groups_in_place(self, cfg, cpus, lent):
        # an inline round's blocks of whole groups are the groups' own stacks; a helper's
        # round reads copies, as training goes on meanwhile. Either way the embeddings are
        # those of copies made at the hook, bit for bit
        groups, blocks_seen = set(), []
        run_simulation = fedsim.experiment.run_simulation
        stacked_embeddings = fedsim.experiment.stacked_embeddings

        def spy_simulation(sim_cfg, clients, server, on_round_complete):
            groups.update(c.group for c in clients)
            return run_simulation(sim_cfg, clients, server, on_round_complete)

        def spy_embeddings(blocks, inputs):
            blocks = list(blocks)
            stacks = [group.models[part].params for group in groups
                      for part in ("local_channel", "fed_channel", "fusion")]
            for parts in blocks:
                assert all(any(np.shares_memory(m.params, s) for s in stacks) == lent
                           for m in parts)
            copies = [[MLP(m.sizes, m.out_act, m.params.copy()) for m in parts]
                      for parts in blocks]
            got = stacked_embeddings(blocks, inputs)
            assert got.tobytes() == stacked_embeddings(copies, inputs).tobytes()
            blocks_seen.append(len(blocks))
            return got

        with usable_cpus(cpus), pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim.experiment, "run_simulation", spy_simulation)
            patch.setattr(fedsim.experiment, "stacked_embeddings", spy_embeddings)
            run_experiment(cfg)
        assert blocks_seen == [len(groups)] * cfg.rounds


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

    @pytest.mark.parametrize("rounds", [2.5, float("nan"), float("inf")])
    def test_fractional_rounds_rejected(self, rounds):
        # a count, checked as the durations are: 2.5 would run 3 rounds
        with pytest.raises(ConfigError, match="rounds must be a whole number >= 1"):
            ExperimentConfig(synth=SynthSpec(n_clients=2), rounds=rounds)

    def test_whole_float_rounds_run_as_the_int(self, tmp_path):
        assert type(sim_config(n_clients=1, rounds=2.0).rounds) is int
        assert type(ExperimentConfig(rounds=2.0).rounds) is int
        digests = [artifact_digest(run_experiment(ExperimentConfig(rounds=rounds)), tmp_path)
                   for rounds in (2.0, 2)]
        assert digests[0] == digests[1]

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
        def rebind(returns):
            for client, round_index, _ in returns:
                if client.client_id == 0 and round_index == 0:
                    client.head1.params = client.head1.params.copy()

        with pytest.raises(ProtocolError, match="client 0 rebound"):
            run_simulation(sim_config(n_clients=2, rounds=3), make_clients(2),
                           make_server(2), rebind)

    def test_changing_a_group_setting_is_refused(self):
        # the scheduler times a round by client.local_epochs; the group would
        # still train the epochs it read at construction
        def more_epochs(returns):
            for client, round_index, _ in returns:
                if round_index == 0:
                    client.local_epochs += 1

        with pytest.raises(ProtocolError, match="changed a setting of its group"):
            run_simulation(sim_config(n_clients=2, rounds=3), make_clients(2),
                           None, more_epochs)

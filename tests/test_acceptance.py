"""End-to-end acceptance gate: twelve numbered criteria spanning exact
invariants, oracle equivalence, and directional trend checks.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all).
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

import fedsim.simulation as simulation_module
from fedsim.aggregation import (AggregationConfig, build_correlation_matrix,
                                personalized_aggregate)
from fedsim.client import (ClientGroup, TrainingParams, async_loss_and_grads,
                           build_client, local_loss_and_grads)
from fedsim.convergence import make_problem, run_fedavg_convergence, verify_simplex
from fedsim.experiment import ExperimentConfig, Toggles, run_experiment
from fedsim.losses import CenterBank, LossWeights, center_loss_grad, cross_entropy_batch
from fedsim.metrics import (ScoreSet, eer, operating_points, tar_at_far,
                            write_metrics_csv)
from fedsim.nn import MLP, channel, forward_batch, fusion_head, linear_head
from fedsim.server import ServerState, Strategy, handle_upload
from fedsim.simulation import EventKind, SimConfig, run_simulation
from fedsim.synth import LabeledDataset
from oracles import (finite_difference_grad, finite_difference_grad_stacked,
                     fv_cos_grad, fv_cos_loss)
from sim_defaults import by_kind, sim_config


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num:02d}: {name}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {name}{suffix}"


def rel_err(analytic, fd):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    fd = np.asarray(fd, dtype=np.float64).ravel()
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)


# ---------------------------------------------------------------- criteria 1-3


def test_criterion_01_simplex_invariant():
    start = time.perf_counter()
    violations, worst = verify_simplex(10_000, seed=0)
    elapsed = time.perf_counter() - start
    report(1, "aggregation weights sum to one on 10k samples",
           violations == 0 and worst < 1e-12 and elapsed < 1.0,
           f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_aggregation_degenerate_cases():
    rng = np.random.default_rng(0)
    params = [rng.standard_normal(12) for _ in range(3)]
    entries = rng.uniform(0.5, 3.0, (3, 3))
    np.fill_diagonal(entries, np.nan)
    # gamma = 0: the client's own model, bit-exact
    own = personalized_aggregate(params, entries, AggregationConfig(0.0))[1]
    ok = np.array_equal(own, params[1])
    # identical uploads: the shared model back, any gamma
    shared = [params[0].copy() for _ in range(3)]
    for gamma in (0.3, 0.7, 1.0):
        out = personalized_aggregate(shared, entries, AggregationConfig(gamma))[2]
        ok = ok and np.allclose(out, params[0], atol=1e-12)
    # hand-computed scalar case: R = (3, 1), gamma = 0.5, params (0, 4, 8)
    hand_entries = np.array([[np.nan, 3.0, 1.0],
                             [3.0, np.nan, 1.0],
                             [1.0, 1.0, np.nan]])
    out = personalized_aggregate(
        [np.array([0.0]), np.array([4.0]), np.array([8.0])],
        hand_entries, AggregationConfig(0.5))[0]
    ok = ok and out[0] == 2.5
    report(2, "mixing rule degenerate and hand-computed cases", ok)


def test_criterion_03_aggregation_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 6):
        rng = np.random.default_rng(n)
        probes = rng.standard_normal((6, 4))
        models = [channel(4, 5, 3, seed=100 * n + c) for c in range(n)]
        params = [m.params for m in models]
        uploads = MLP(models[0].sizes, models[0].out_act, np.stack(params))
        corr = build_correlation_matrix(uploads, probes)
        embs = [forward_batch(m, probes)[0] for m in models]
        for c in range(n):
            # straight-line re-derivation of the per-client dispatch
            r = {}
            for u in range(n):
                if u == c:
                    continue
                total = 0.0
                for t in range(probes.shape[0]):
                    total += float(embs[c][t] @ embs[u][t]
                                   / (np.linalg.norm(embs[c][t])
                                      * np.linalg.norm(embs[u][t])))
                r[u] = max(total, 1e-6)
            mix = sum((r[u] / sum(r.values())) * params[u] for u in r)
            expected = 0.5 * mix + 0.5 * params[c]
            got = personalized_aggregate(params, corr, AggregationConfig(0.5))[c]
            worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.perf_counter() - start
    report(3, "dispatches equal straight-line re-implementation",
           worst < 1e-12 and elapsed < 5.0,
           f"worst abs deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criteria 4-6


def as_group(model, rows):
    """`model` as a group: its vector repeated `rows` times, or the (G, L)
    stack `rows` in its place."""
    stack = np.tile(model.params, (rows, 1)) if isinstance(rows, int) else rows
    return MLP(model.sizes, model.out_act, stack)


def tiled(a, rows):
    return np.broadcast_to(a, (rows, *np.shape(a)))


def test_criterion_04_loss_gradients_match_finite_differences():
    # each case's perturbed parameter vectors go through the kernels' group
    # axis as one stack, every other input repeated along it
    start = time.perf_counter()
    worst = {"ce_wait": 0.0, "ce_fused": 0.0, "center": 0.0, "align": 0.0,
             "total": 0.0}
    for seed in range(100):
        rng = np.random.default_rng(seed)

        # wait-window classification loss through the private channel + head
        lc = channel(4, 5, 3, seed=(seed, 0))
        h1 = linear_head(3, 3, seed=(seed, 1))
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 3, size=4)
        _, grads = async_loss_and_grads(lc, h1, x, y)
        wait_parts = {"local": lc, "head1": h1}
        for name, model in wait_parts.items():
            def loss_of(stack, name=name):
                g = len(stack)
                m = {k: as_group(v, stack if k == name else g)
                     for k, v in wait_parts.items()}
                return async_loss_and_grads(m["local"], m["head1"], tiled(x, g),
                                            tiled(y, g))[0]
            worst["ce_wait"] = max(worst["ce_wait"], rel_err(
                grads[name], finite_difference_grad_stacked(loss_of, model.params)))

        # fused classification loss with respect to the logits
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        _, dlogits = cross_entropy_batch(logits, labels)
        fd = finite_difference_grad_stacked(
            lambda p: cross_entropy_batch(p.reshape(-1, 5, 4), tiled(labels, len(p)))[0],
            logits.ravel())
        worst["ce_fused"] = max(worst["ce_fused"], rel_err(dlogits, fd))

        # compactness loss with respect to the embeddings
        emb = rng.standard_normal((6, 3))
        lab = rng.integers(0, 2, size=6)
        bank = CenterBank({0: rng.standard_normal(3), 1: rng.standard_normal(3)}, lr=0.5)
        fd = finite_difference_grad_stacked(
            lambda p: center_loss_grad(p.reshape(-1, 6, 3), tiled(lab, len(p)),
                                       CenterBank(tiled(bank.centers, len(p)), 0.5))[0],
            emb.ravel())
        worst["center"] = max(worst["center"], rel_err(
            center_loss_grad(emb, lab, bank)[1], fd))

        # cosine alignment loss with respect to both feature vectors
        fp, fg = rng.standard_normal(4), rng.standard_normal(4)
        _, gp, gg = fv_cos_grad(fp, fg)
        fd_p = finite_difference_grad(lambda p: fv_cos_loss(p, fg), fp)
        fd_g = finite_difference_grad(lambda p: fv_cos_loss(fp, p), fg)
        worst["align"] = max(worst["align"], rel_err(gp, fd_p), rel_err(gg, fd_g))

        # combined objective through all four trained parts
        fc = channel(4, 4, 3, seed=(seed, 2))
        fu = fusion_head(6, 3, seed=(seed, 3))
        h2 = linear_head(3, 3, seed=(seed, 4))
        bank2 = CenterBank({k: rng.standard_normal(3) for k in range(3)}, lr=0.5)
        xb = rng.standard_normal((4, 4))
        yb = rng.integers(0, 3, size=4)
        w = LossWeights(0.3, 1.0, 0.2)
        _, grads, _ = local_loss_and_grads(lc, fc, fu, h2, bank2, xb, yb, w)
        parts = {"local": lc, "fed": fc, "fusion": fu, "head2": h2}
        for name, model in parts.items():
            def loss_of(stack, name=name):
                g = len(stack)
                m = {k: as_group(v, stack if k == name else g) for k, v in parts.items()}
                return local_loss_and_grads(
                    m["local"], m["fed"], m["fusion"], m["head2"],
                    CenterBank(tiled(bank2.centers, g), 0.5), tiled(xb, g), tiled(yb, g),
                    w)[0]
            worst["total"] = max(worst["total"], rel_err(
                grads[name], finite_difference_grad_stacked(loss_of, model.params)))
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report(4, "analytic gradients match finite differences (100 cases each)",
           not bad and elapsed < 30.0,
           f"worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_05_alignment_loss_algebra():
    ok = (fv_cos_loss([2.0, 0.0], [5.0, 0.0]) == 0.0
          and fv_cos_loss([1.0, 0.0], [0.0, 1.0]) == 1.0
          and fv_cos_loss([1.0, 0.0], [-3.0, 0.0]) == 2.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        s, t = rng.uniform(0.01, 100.0, 2)
        worst = max(worst, abs(fv_cos_loss(s * a, t * b) - fv_cos_loss(a, b)))
    report(5, "cosine loss exact values and scale invariance",
           ok and worst < 1e-12, f"worst scale deviation {worst:.2e}")


def test_criterion_06_metric_oracle():
    def brute_rates(scores, t):
        return np.mean(scores.impostor >= t), np.mean(scores.genuine < t)

    def brute_eer(scores):
        thresholds = sorted(set(scores.genuine.tolist()
                                + scores.impostor.tolist()))
        points = [brute_rates(scores, t) for t in thresholds] + [(0.0, 1.0)]
        prev = None
        for k, (far, frr) in enumerate(points):
            if far - frr <= 0:
                if k == 0:
                    return 0.5 * (far + frr)
                d0, d1 = prev[0] - prev[1], far - frr
                alpha = 0.0 if d0 == d1 else d0 / (d0 - d1)
                return ((1 - alpha) * 0.5 * sum(prev) + alpha * 0.5 * (far + frr))
            prev = (far, frr)

    def brute_tar(scores, target):
        for t in sorted(set(scores.genuine.tolist() + scores.impostor.tolist())):
            far, frr = brute_rates(scores, t)
            if far <= target:
                return 1.0 - frr
        return 0.0

    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scores = ScoreSet(rng.normal(0.5, 0.25, 400), rng.normal(0.0, 0.25, 600))
        points = operating_points(scores)
        worst = max(worst, abs(eer(points) - brute_eer(scores)),
                    abs(tar_at_far(points, 0.01) - brute_tar(scores, 0.01)))
    elapsed = time.perf_counter() - start
    report(6, "EER and TAR@FAR match exhaustive threshold sweeps",
           worst < 1e-9 and elapsed < 10.0,
           f"worst deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criteria 7-8


def _sim_clients(n, seed=0, epochs=1):
    clients = []
    for c in range(n):
        rng = np.random.default_rng((seed, c))
        protos = 2.0 * rng.standard_normal((4, 6))
        inputs = np.repeat(protos, 4, axis=0) + 0.4 * rng.standard_normal((16, 6))
        labels = np.repeat(np.arange(4), 4)
        clients.append(build_client(
            c, LabeledDataset(inputs, labels, "train"), input_dim=6,
            training=TrainingParams(local_hidden=8, fed_hidden=6, emb_dim=4,
                                    fuse_dim=4, alpha1=0.1, alpha2=1.0, alpha3=0.01,
                                    lr=0.05, epochs=epochs, batch=8, center_lr=0.5),
            seed=seed))
    return clients


def _sim_server(n, seed=0):
    probes = np.random.default_rng((seed, 99)).standard_normal((5, 6))
    strategy = Strategy.PERSONALIZED if n >= 2 else Strategy.FEDAVG
    return ServerState(client_ids=range(n), probes=probes,
                       fed_arch=channel(6, 6, 4, seed=(seed, 2)),
                       agg_cfg=AggregationConfig(0.5), strategy=strategy)


def test_criterion_07_async_schedule_exactness():
    # wait window of 5 ticks with unit steps: exactly 5 logged steps
    cfg = sim_config(n_clients=1, rounds=1, upload_latency=5, download_latency=0,
                     server_compute_time=0, async_step_duration=1)
    log, _, _ = run_simulation(cfg, _sim_clients(1), _sim_server(1))
    five = [r.async_steps for r in by_kind(log, "MODEL_RETURNED")] == [5]

    # all latencies zero: exactly 0 steps
    cfg = sim_config(n_clients=2, rounds=2, upload_latency=0, download_latency=0,
                     server_compute_time=0, async_step_duration=1)
    log, _, _ = run_simulation(cfg, _sim_clients(2), _sim_server(2))
    zero = all(r.async_steps == 0 for r in by_kind(log, "MODEL_RETURNED"))

    # conservation on every round of a heterogeneous 3-client run
    cfg = SimConfig(n_clients=3, rounds=4, local_step_duration=(1, 2, 1),
                    upload_latency=(3, 5, 2), download_latency=(4, 1, 6),
                    server_compute_time=3, async_step_duration=2)
    log, _, _ = run_simulation(cfg, _sim_clients(3), _sim_server(3))
    conserved = True
    done_at = {}
    for r in log.records:
        if r.kind == "LOCAL_ROUND_DONE":
            done_at[r.subject] = r.t
        elif r.kind == "MODEL_RETURNED":
            wait = r.t - done_at[r.subject]
            conserved = conserved and wait == r.async_steps * 2 + r.idle
    report(7, "wait-window step counts and sim-time conservation",
           five and zero and conserved)


def test_criterion_08_freeze_and_upload_isolation(monkeypatch):
    clients = _sim_clients(3, seed=1)
    server = _sim_server(3, seed=1)
    uploaded = {}
    checks = {"frozen": True, "uploads": 0}
    # the scheduler trains clients through these group steps
    async_steps, local_rounds = ClientGroup.async_steps, ClientGroup.local_rounds

    def guarded_steps(group, rows):
        # every member, stepped or not: a stacked step must write no other row
        frozen = {(g, n): hashlib.sha256(getattr(member, n).params.tobytes())
                  .hexdigest()
                  for g, member in enumerate(group.members)
                  for n in ("fed_channel", "fusion", "head2")}
        out = async_steps(group, rows)
        for (g, n), digest in frozen.items():
            now = hashlib.sha256(
                getattr(group.members[g], n).params.tobytes()).hexdigest()
            checks["frozen"] = checks["frozen"] and now == digest
        return out

    def recording_rounds(group, rows):
        out = local_rounds(group, rows)
        for msg in out.values():
            uploaded[(msg.client_id, msg.fed_round)] = msg.params.copy()
        return out

    monkeypatch.setattr(ClientGroup, "async_steps", guarded_steps)
    monkeypatch.setattr(ClientGroup, "local_rounds", recording_rounds)

    def checking_upload(server_, msg):
        expect = uploaded[(msg.client_id, msg.fed_round)]
        assert np.array_equal(msg.params, expect)
        checks["uploads"] += 1
        return handle_upload(server_, msg)

    monkeypatch.setattr(simulation_module, "handle_upload", checking_upload)
    cfg = sim_config(n_clients=3, rounds=10, upload_latency=6,
                     download_latency=4, server_compute_time=2,
                     async_step_duration=1)
    log, _, _ = run_simulation(cfg, clients, server)
    steps = len(by_kind(log, "ASYNC_STEP_DUE"))
    report(8, "frozen parts unchanged by wait-window steps; uploads bit-exact",
           checks["frozen"] and checks["uploads"] == 30 and steps > 0,
           f"{steps} async steps, {checks['uploads']} uploads verified")


# --------------------------------------------------------------- criteria 9-12


def test_criterion_09_convergence_trend():
    start = time.perf_counter()
    problem = make_problem(4, 4, seed=7, heterogeneity=1.0)
    trace = run_fedavg_convergence(problem, rounds=200, local_steps=2,
                                   lr_scale=0.5, lr_offset=4.0, noise=0.5,
                                   seed=11, replicates=30)
    noisy_ok = trace.mean_gap[200] <= 0.5 * trace.mean_gap[50]

    p2 = make_problem(3, 4, seed=4, heterogeneity=1.5)
    trace2 = run_fedavg_convergence(p2, rounds=20, local_steps=1, lr_scale=0.5,
                                    lr_offset=2.0, noise=0.0, seed=0)
    w = np.zeros(4)
    worst = abs(trace2.mean_gap[0] - (p2.value(w) - p2.f_star))
    for t in range(20):
        w = w - (0.5 / (t + 2.0)) * p2.grad(w)
        worst = max(worst, abs(trace2.mean_gap[t + 1] - (p2.value(w) - p2.f_star)))
    elapsed = time.perf_counter() - start
    report(9, "noisy decaying-step gap shrinks; noise-free run matches "
              "centralized descent",
           noisy_ok and worst < 1e-10 and elapsed < 60.0,
           f"gap ratio {trace.mean_gap[200] / trace.mean_gap[50]:.3f}, "
           f"centralized deviation {worst:.1e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def trend_runs():
    """Per-client final EERs for all 8 toggle combinations plus the
    train-alone baseline, over 5 seeds of the default task."""
    start = time.perf_counter()
    table, solo = {}, {}
    for seed in range(5):
        for combo in itertools.product((False, True), repeat=3):
            cfg = ExperimentConfig(mode="full", seed=seed,
                                   toggles=Toggles(*combo))
            table[(seed, combo)] = {r.client_id: r.eer for r in
                                    run_experiment(cfg).final_metrics()}
        cfg = ExperimentConfig(mode="solo", seed=seed)
        solo[seed] = {r.client_id: r.eer for r in
                      run_experiment(cfg).final_metrics()}
    return table, solo, time.perf_counter() - start


def test_criterion_10_federation_beats_training_alone(trend_runs):
    table, solo, elapsed = trend_runs
    full = (True, True, True)
    fed_mean = {c: np.mean([table[(s, full)][c] for s in range(5)])
                for c in range(4)}
    solo_mean = {c: np.mean([solo[s][c] for s in range(5)]) for c in range(4)}
    wins = sum(fed_mean[c] <= solo_mean[c] for c in range(4))
    report(10, "full configuration <= train-alone on >= 3 of 4 clients "
               "(5-seed mean)",
           wins >= 3 and elapsed < 600.0,
           f"{wins}/4 clients, fed {[round(float(fed_mean[c]), 4) for c in range(4)]} "
           f"vs solo {[round(float(solo_mean[c]), 4) for c in range(4)]}, "
           f"{elapsed:.0f}s shared runtime")


def test_criterion_11_ablation_trend(trend_runs):
    table, _, _ = trend_runs

    def mean_eer(seed, combo):
        return float(np.mean(list(table[(seed, combo)].values())))

    base = (False, False, False)
    deltas = {}
    for axis in range(3):
        combo = tuple(i == axis for i in range(3))
        deltas[axis] = np.mean([mean_eer(s, combo) - mean_eer(s, base)
                                for s in range(5)])
    deltas_ok = all(d <= 0.005 for d in deltas.values())

    full = (True, True, True)
    wins = 0
    for s in range(5):
        best = min(mean_eer(s, c)
                   for c in itertools.product((False, True), repeat=3))
        wins += mean_eer(s, full) <= best + 1e-12
    report(11, "single toggles never hurt by > 0.5pp; full config "
               "lowest/tied-lowest in >= 3 of 5 seeds",
           deltas_ok and wins >= 3,
           f"deltas {[round(float(deltas[a]), 4) for a in range(3)]}, "
           f"wins {wins}/5")


def test_criterion_12_byte_identical_reruns(tmp_path):
    def artifacts(tag):
        cfg = ExperimentConfig(seed=3, rounds=3)
        result = run_experiment(cfg)
        metrics = tmp_path / f"metrics-{tag}.csv"
        timeline = tmp_path / f"timeline-{tag}.log"
        write_metrics_csv(metrics, result.metrics)
        result.timeline.export(timeline)
        return metrics.read_bytes(), timeline.read_bytes()

    a, b = artifacts("a"), artifacts("b")
    report(12, "identical config and seed give byte-identical artifacts",
           a[0] == b[0] and a[1] == b[1])

"""End-to-end experiment wiring: datasets, clients, server, event-driven
schedule, and per-round verification metrics."""

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import AggregationConfig
from .client import TrainingParams, build_client
from .errors import ConfigError
from .metrics import (MetricsRecord, ScoreSet, eer, operating_points, pair_positions,
                      score_pairs, tar_at_far)
from .server import ServerState, Strategy, load_probe_set
from .simulation import SimConfig, run_simulation
from .synth import PROBE_POOL_SIZE, SynthSpec, generate

MODE_PRESETS = {
    # mode -> (async_enabled, use_total_loss, personalized_agg)
    "solo": (False, True, False),
    "fedavg": (False, False, False),
    "full": (True, True, True),
}


@dataclass(frozen=True)
class Toggles:
    """Ablation switches; None means take the mode preset."""

    async_enabled: object = None
    use_total_loss: object = None
    personalized_agg: object = None

    def resolve(self, mode: str):
        preset = MODE_PRESETS[mode]
        return tuple(p if o is None else bool(o)
                     for o, p in zip((self.async_enabled, self.use_total_loss,
                                      self.personalized_agg), preset))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "full"
    seed: int = 0
    rounds: int = 10
    synth: SynthSpec = field(default_factory=SynthSpec)
    training: TrainingParams = field(default_factory=TrainingParams)
    agg: AggregationConfig = field(default_factory=AggregationConfig)
    probe_size: int = 32
    local_step_duration: int = 1
    upload_latency: int = 25
    download_latency: int = 25
    server_compute_time: int = 10
    async_step_duration: int = 1
    toggles: Toggles = field(default_factory=Toggles)
    client_subset: tuple = None   # indices into the synth clients

    def __post_init__(self):
        if self.mode not in MODE_PRESETS:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.client_subset is not None:
            subset = tuple(sorted(set(int(c) for c in self.client_subset)))
            if not subset or any(c < 0 or c >= self.synth.n_clients for c in subset):
                raise ConfigError("client_subset must index the synthetic clients")
            object.__setattr__(self, "client_subset", subset)
        self.schedule()  # SimConfig checks the rounds and every duration
        if not 1 <= self.probe_size <= PROBE_POOL_SIZE:
            raise ConfigError(f"probe_size must be in [1, {PROBE_POOL_SIZE}]")
        for c in self.clients:
            if self.synth.class_split(c)[1] < 2:
                raise ConfigError(f"client {c} needs 2 test identities for impostor pairs")

    @property
    def clients(self) -> tuple:
        """Indices of the synthetic clients the run trains."""
        return self.client_subset or tuple(range(self.synth.n_clients))

    def schedule(self) -> SimConfig:
        """The run's schedule, with async training as configured."""
        return SimConfig(
            n_clients=len(self.clients), rounds=self.rounds,
            local_step_duration=self.local_step_duration,
            upload_latency=self.upload_latency, download_latency=self.download_latency,
            server_compute_time=self.server_compute_time,
            async_step_duration=self.async_step_duration)


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: list            # MetricsRecord, in event order
    timeline: object         # TimelineLog
    final_points: dict       # client id -> operating_points of its last evaluation

    def final_metrics(self):
        last = {}
        for rec in self.metrics:
            last[rec.client_id] = rec
        return [last[c] for c in sorted(last)]


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    async_on, total_loss_on, personalized_on = cfg.toggles.resolve(cfg.mode)
    data, probe_source = generate(cfg.synth)
    tr = cfg.training
    if not total_loss_on:
        tr = replace(tr, alpha1=0.0, alpha3=0.0)

    clients = []
    test_of = {}   # client id -> test split
    for c in cfg.clients:
        train, test_of[c] = data[c]
        clients.append(build_client(c, train, input_dim=cfg.synth.input_dim,
                                    training=tr, seed=cfg.seed))

    n = len(clients)
    if cfg.mode == "solo" or n == 1:
        server = None
    else:
        probes = load_probe_set(probe_source, cfg.probe_size, (cfg.seed, 555))
        strategy = Strategy.PERSONALIZED if personalized_on else Strategy.FEDAVG
        server = ServerState(client_ids=cfg.clients, probes=probes,
                             fed_arch=clients[0].fed_channel.clone(),
                             agg_cfg=cfg.agg, strategy=strategy)

    sim_cfg = cfg.schedule()
    if not async_on:
        sim_cfg = replace(sim_cfg, async_step_duration=None)

    metrics = []
    final_points = {}
    positions = {}   # client id -> pair_positions of its test split

    def on_round_complete(client, round_index, t):
        c = client.client_id
        if c not in positions:   # at the first evaluation: setup stays short
            positions[c] = pair_positions(test_of[c].labels, seed=cfg.seed * 1000 + c)
        # every client ends at round cfg.rounds - 1, the one round swept
        record, final_points[c] = evaluate_client(client, test_of[c], round_index,
                                                  positions[c], round_index == cfg.rounds - 1)
        metrics.append(record)

    timeline, _, _ = run_simulation(sim_cfg, clients, server, on_round_complete)
    return RunResult(cfg, metrics, timeline, final_points)


def evaluate_client(client, test, round_index, positions, sweep=False):
    """Score the split's `pair_positions` once: EER and TAR from the sorted runs.
    Returns (MetricsRecord, the `operating_points` sweep if `sweep`, else None)."""
    scores = client_score_set(client, test, positions)
    record = MetricsRecord(client.client_id, round_index, eer(scores), tar_at_far(scores, 0.01),
                           int(scores.genuine.size), int(scores.impostor.size))
    return record, operating_points(scores) if sweep else None


def client_score_set(client, test, positions) -> ScoreSet:
    emb = client.extract_embeddings(test.inputs)
    return score_pairs(emb, test.labels, positions=positions)


def write_roc_csv(path, points) -> None:
    """Save the (threshold, FAR, FRR) sweep of `operating_points` at `path` as one
    (3, m) float64 `.npy` array, every bit kept: `np.load(path)` reads it back.

    It keeps the name of the CSV writer it replaced, as bench/tracer.py traces
    `experiment.write_roc_csv`; ROADMAP item 1 renames it.
    """
    with open(path, "wb") as fh:   # a handle: np.save appends ".npy" to a bare path
        np.save(fh, np.stack(points))

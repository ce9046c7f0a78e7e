"""End-to-end experiment wiring: datasets, clients, server, event-driven
schedule, and per-round verification metrics."""

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import AggregationConfig, usable_cpus
from .client import TrainingParams, build_clients, stacked_embeddings, stacked_parts
from .errors import ConfigError, whole
from .metrics import MetricsRecord, ScoreSet, eer, pair_positions, score_pairs, tar_at_far
from .server import ServerState, Strategy, load_probe_set
from .simulation import SimConfig, run_simulation
from .synth import PROBE_POOL_SIZE, SynthSpec, generate

# A `score_pairs` call of two or more clients holds at most this many similarities (G * n**2);
# from here on each client scores within 5% of its fastest (n = 4 to 100, measured). It is below
# 2 * 317**2, and 317 is the first n whose pairs can pass IMPOSTOR_PAIR_CAP, so a client whose
# impostors its seed subsamples is scored alone: a block's clients share their labels' positions.
SCORE_ENTRIES = 2 ** 16

# the settings an `ExperimentConfig` hands its `SimConfig`, which checks them
SCHEDULE = ("rounds", "local_step_duration", "upload_latency", "download_latency",
            "server_compute_time", "async_step_duration")

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

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not isinstance(value, bool):
                raise ConfigError(f"{name} must be None, True or False, got {value!r}")

    def resolve(self, mode: str):
        return tuple(p if o is None else o
                     for o, p in zip((self.async_enabled, self.use_total_loss,
                                      self.personalized_agg), MODE_PRESETS[mode]))


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
        object.__setattr__(self, "seed", whole("seed", self.seed))
        if self.client_subset is not None:
            if not np.iterable(self.client_subset):
                raise ConfigError(f"client_subset must be a sequence of client indices, "
                                  f"got {self.client_subset!r}")
            subset = tuple(sorted(set(whole("client_subset", c) for c in self.client_subset)))
            if not subset or subset[-1] >= self.synth.n_clients:
                raise ConfigError("client_subset must index the synthetic clients")
            object.__setattr__(self, "client_subset", subset)
        sim = self.schedule()   # checks the schedule; a scalar setting keeps its one int
        for name in SCHEDULE:
            kept = getattr(sim, name)
            one = isinstance(kept, tuple) and np.ndim(getattr(self, name)) == 0
            object.__setattr__(self, name, kept[0] if one else kept)
        object.__setattr__(self, "probe_size", whole("probe_size", self.probe_size, 1))
        if self.probe_size > PROBE_POOL_SIZE:
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
        return SimConfig(len(self.clients), **{name: getattr(self, name) for name in SCHEDULE})


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: list            # MetricsRecord, in event order
    timeline: object         # TimelineLog
    final_scores: dict       # client id -> ScoreSet of its last evaluation, without runs

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

    test_of = {c: data[c][1] for c in cfg.clients}   # client id -> test split
    clients = build_clients(cfg.clients, [data[c][0] for c in cfg.clients],
                            input_dim=cfg.synth.input_dim, training=tr, seed=cfg.seed)

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

    metrics, final_scores, positions = [], {}, {}   # positions: id -> its test pair_positions
    pending = []   # the helper's future scoring the last round

    def score(returns, alike):
        """Score each run of returns sharing test labels, from its parts' stacks, in blocks."""
        records = {}
        for run, blocks in alike:
            tests = [test_of[cl.client_id] for cl, _, _ in run]
            emb = stacked_embeddings(blocks, np.array([t.inputs for t in tests]))
            size = max(1, SCORE_ENTRIES // len(tests[0].labels) ** 2)
            for lo in range(0, len(run), size):
                if (c := run[lo][0].client_id) not in positions:   # at first: setup stays short
                    positions[c] = pair_positions(tests[lo].labels, seed=cfg.seed * 1000 + c)
                for record, scores in evaluate_client(run[lo:lo + size], emb[lo:lo + size],
                                                      tests[lo], positions[c]):
                    records[record.client_id] = record
                    if record.round == cfg.rounds - 1:   # every client ends at this round
                        del scores.runs   # the trace's sweep sorts again; keep only the scores
                        final_scores[record.client_id] = scores
        metrics.extend(records[cl.client_id] for cl, _, _ in returns)   # in plan order

    def join():   # the last round's helper; its error comes earlier in the plan than ours
        while pending:
            pending.pop().result()

    def on_round_complete(returns):
        """Score a round in which a client scores alone past SCORE_ENTRIES in a helper, if a second
        CPU is usable, while the next round trains, from parts copied here; any other here."""
        alike = {}   # test labels -> the returns sharing them
        for ret in returns:
            alike.setdefault(test_of[ret[0].client_id].labels.tobytes(), []).append(ret)
        helper = max(len(test_of[cl.client_id].labels) for cl, _, _ in returns) ** 2 \
            > SCORE_ENTRIES and usable_cpus() > 1
        alike = [(run, (list if helper else iter)(stacked_parts([c for c, _, _ in run], helper)))
                 for run in alike.values()]   # a helper's copies are made here, now
        join()   # one round in flight at most, so `metrics` grows in plan order
        if not helper:
            return score(returns, alike)
        pending.append(pool.submit(copy_context().run, score, returns, alike))   # np.errstate too

    with ThreadPoolExecutor(1) as pool:   # leaving it joins the helper
        try:
            timeline, _, _ = run_simulation(sim_cfg, clients, server, on_round_complete)
        finally:
            join()
    return RunResult(cfg, metrics, timeline, final_scores)


def evaluate_client(returns, emb, test, positions):
    """A (MetricsRecord, ScoreSet) per `(client, round_index, t)` of `returns`: its row of
    (G, n, dim) `emb` scored at `positions` in one `score_pairs` call, EER and TAR on its runs."""
    scored = score_pairs(emb, test.labels, positions=positions).rows()
    return [(MetricsRecord(client.client_id, round_index, eer(s), tar_at_far(s, 0.01),
                           int(s.genuine.size), int(s.impostor.size)), s)
            for (client, round_index, _), s in zip(returns, scored)]


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

"""The benchmark's three workloads, how one run of each is driven, and the
counts each run must produce, derived from the workload's settings alone.

Every workload is a closed-loop batch job: one process, one thread, each run
starting after the previous one returned. A benchmark seed selects
``seeds_per_run`` experiment seeds; each experiment seed fixes the synthetic
data and every RNG stream of the run, so its artifacts are byte-identical on
every repetition.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

IMPOSTOR_PAIR_CAP = 50_000      # fedsim.metrics.IMPOSTOR_PAIR_CAP at definition time


@dataclass(frozen=True)
class Workload:
    """The settings that differ between workloads; the rest keep fedsim's defaults."""
    name: str
    mode: str                   # library runs set the toggles below; the CLI keeps the preset
    n_clients: int
    classes_per_client: int
    samples_per_class: int
    epochs: int
    async_on: bool
    personalized: bool
    seeds_per_run: int          # experiment seeds per benchmark seed
    via_cli: bool = False
    open_set_split: float = 0.8
    probe_size: int = 32

    def exp_seeds(self, seed):
        k = self.seeds_per_run
        return [seed * k + j for j in range(k)]

    # -- program inputs ---------------------------------------------------

    def experiment_config(self, exp_seed):
        from fedsim.experiment import ExperimentConfig, Toggles, TrainingParams
        from fedsim.synth import SynthSpec
        return ExperimentConfig(
            mode=self.mode, seed=exp_seed,
            synth=SynthSpec(n_clients=self.n_clients,
                            classes_per_client=self.classes_per_client,
                            samples_per_class=self.samples_per_class,
                            open_set_split=self.open_set_split, seed=exp_seed),
            training=TrainingParams(epochs=self.epochs),
            probe_size=self.probe_size,
            toggles=Toggles(async_enabled=self.async_on,
                            personalized_agg=self.personalized))

    def config_text(self, exp_seed):
        """INI config for ``fedsim run``; toggles stay at the mode preset."""
        return "\n".join([
            "[experiment]", f"mode = {self.mode}", f"seed = {exp_seed}",
            "[data]", f"n_clients = {self.n_clients}",
            f"classes_per_client = {self.classes_per_client}",
            f"samples_per_class = {self.samples_per_class}",
            f"open_set_split = {self.open_set_split}",
            "[training]", f"epochs = {self.epochs}",
            "[aggregation]", f"probe_size = {self.probe_size}", ""])

    # -- expected counts --------------------------------------------------

    def expected_counts(self):
        """Counts one run must produce, from the run's settings only.

        All clients share data sizes and latencies, so every upload of a
        round reaches the barrier on the same tick and each wait lasts
        upload + server compute + download ticks. An async step due on the
        tick the model returns still runs (steps rank before returns).
        """
        cfg = self.experiment_config(0)
        n, r = self.n_clients, cfg.rounds
        k_train = math.floor(self.classes_per_client * self.open_set_split)
        k_test = self.classes_per_client - k_train
        batches = -(-k_train * self.samples_per_class // cfg.training.batch)
        wait = cfg.upload_latency + cfg.server_compute_time + cfg.download_latency
        steps = wait // cfg.async_step_duration if self.async_on else 0
        idle = wait - steps * cfg.async_step_duration
        m = k_test * self.samples_per_class
        genuine = k_test * self.samples_per_class * (self.samples_per_class - 1) // 2
        impostor = m * (m - 1) // 2 - genuine
        scored = n * r + (n if self.via_cli else 0)     # the CLI re-scores for ROC files
        hidden, emb = cfg.training.fed_hidden, cfg.training.emb_dim
        fed_params = (cfg.synth.input_dim + 1) * hidden + (hidden + 1) * emb
        return {
            "client.local_train_round.calls": n * r,
            "client.local_loss_and_grads.calls": n * r * self.epochs * batches,
            "client.async_train_step.calls": n * r * steps,
            "client.async_loss_and_grads.calls": n * r * steps,
            "client.adopt_global.calls": n * r,
            "server.handle_upload.calls": n * r,
            "server.run_aggregation.calls": r,
            "aggregation.correlation_degree.calls":
                r * n * (n - 1) // 2 if self.personalized else 0,
            "aggregation.personalized_aggregate.calls": r * n if self.personalized else 0,
            "aggregation.fedavg_aggregate.calls": 0 if self.personalized else r,
            "experiment.evaluate_client.calls": n * r,
            "metrics.score_pairs.calls": scored,
            "metrics.pairs_scored": scored * (genuine + min(impostor, IMPOSTOR_PAIR_CAP)),
            "metrics.impostor_subsampled": scored if impostor > IMPOSTOR_PAIR_CAP else 0,
            "server.bytes_up": n * r * fed_params * 8,
            "server.bytes_down": n * r * fed_params * 8,
            "simulation.events": 3 * n * r + r + n * r * steps + 1,
            "simulation.async_steps": n * r * steps,
            "simulation.idle_ticks": n * r * idle,
            "rounds": n * r,
        }


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper_full",
        mode="full", n_clients=4, classes_per_client=20, samples_per_class=6,
        epochs=3, async_on=True, personalized=True, seeds_per_run=32),
    Workload(
        name="many_clients_agg",
        mode="full", n_clients=64, classes_per_client=10, samples_per_class=2,
        epochs=1, async_on=False, personalized=True, probe_size=128,
        seeds_per_run=16),
    Workload(
        name="open_set_cli",
        mode="fedavg", n_clients=4, classes_per_client=20, samples_per_class=40,
        epochs=1, async_on=False, personalized=False, open_set_split=0.2,
        seeds_per_run=8, via_cli=True),
)}


# -- driving one run --------------------------------------------------------

@contextlib.contextmanager
def stamped(marks):
    """Record when run_experiment starts and when run_simulation starts/ends.

    Wraps whatever is currently bound (possibly a tracer wrapper) and restores
    it on exit.
    """
    import fedsim.cli
    import fedsim.experiment
    run_sim = fedsim.experiment.run_simulation
    run_exp = fedsim.cli.run_experiment

    def sim_stamp(*args, **kwargs):
        marks["sim_start"] = time.perf_counter()
        try:
            return run_sim(*args, **kwargs)
        finally:
            marks["sim_end"] = time.perf_counter()

    def exp_stamp(*args, **kwargs):
        marks["setup_start"] = time.perf_counter()
        return run_exp(*args, **kwargs)

    fedsim.experiment.run_simulation = sim_stamp
    fedsim.cli.run_experiment = exp_stamp
    try:
        yield marks
    finally:
        fedsim.experiment.run_simulation = run_sim
        fedsim.cli.run_experiment = run_exp


def run_once(wl, exp_seed, rep_dir):
    """Run the workload once for one experiment seed; return its timings.

    Library workloads leave their artifacts in memory; ``collect_outputs``
    writes and checks them after the timed region.
    """
    import fedsim.cli
    import fedsim.experiment
    marks = {}
    if wl.via_cli:
        cfg_path = os.path.join(rep_dir, "exp.ini")
        with open(cfg_path, "w") as fh:
            fh.write(wl.config_text(exp_seed))
        out = io.StringIO()
        with stamped(marks), contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = fedsim.cli.main(["run", "--config", cfg_path,
                                    "--out", os.path.join(rep_dir, "out")])
            end = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"fedsim run exited with {code}")
        result = None
    else:
        cfg = wl.experiment_config(exp_seed)
        with stamped(marks):
            start = marks["setup_start"] = time.perf_counter()
            result = fedsim.experiment.run_experiment(cfg)
            end = time.perf_counter()
    return {"wall": end - start,
            "setup": marks["sim_start"] - marks["setup_start"],
            "artifacts": end - marks["sim_end"],
            "result": result}


def collect_outputs(wl, run, rep_dir):
    """Digest and check the deterministic artifacts of one run.

    Returns a dict of outputs; raises AssertionError when a check fails.
    """
    if wl.via_cli:
        out = os.path.join(rep_dir, "out")
        (run_id,) = os.listdir(out)
        run_dir = os.path.join(out, run_id)
        bytes_written = sum(os.path.getsize(os.path.join(d, f))
                            for d, _, files in os.walk(run_dir) for f in files)
    else:
        from fedsim.metrics import write_metrics_csv
        run_dir = rep_dir
        write_metrics_csv(os.path.join(run_dir, "metrics.csv"), run["result"].metrics)
        run["result"].timeline.export(os.path.join(run_dir, "timeline.log"))
        bytes_written = 0
    with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
        metrics_bytes = fh.read()
    with open(os.path.join(run_dir, "timeline.log"), "rb") as fh:
        timeline_bytes = fh.read()
    digest = hashlib.sha256(metrics_bytes + b"\0" + timeline_bytes).hexdigest()

    rows = list(csv.DictReader(io.StringIO(metrics_bytes.decode())))
    final = {}
    for row in rows:
        final[int(row["client_id"])] = row
    eers = [float(r["eer"]) for r in final.values()]
    tars = [float(r["tar_at_far01"]) for r in final.values()]
    records = [json.loads(line) for line in timeline_bytes.decode().splitlines()]
    returned = [r for r in records if r["kind"] == "MODEL_RETURNED"]
    outputs = {
        "digest": digest,
        "final_eer": sum(eers) / len(eers),
        "final_tar01": sum(tars) / len(tars),
        "rounds": len(returned),
        "simulation.events": len(records),
        "simulation.async_steps": sum(r["kind"] == "ASYNC_STEP_DUE" for r in records),
        "simulation.idle_ticks": sum(r["idle"] for r in returned),
        "cli.bytes_written": bytes_written,
    }
    expected = wl.expected_counts()
    for key in ("rounds", "simulation.events", "simulation.async_steps",
                "simulation.idle_ticks"):
        if outputs[key] != expected[key]:
            raise AssertionError(f"{key}: got {outputs[key]}, expected {expected[key]}")
    if len(rows) != expected["rounds"] or len(final) != wl.n_clients:
        raise AssertionError(f"metrics.csv has {len(rows)} rows for {len(final)} clients")
    for value in eers + tars:
        if not 0.0 <= value <= 1.0:
            raise AssertionError(f"metric {value!r} outside [0, 1]")
    return outputs

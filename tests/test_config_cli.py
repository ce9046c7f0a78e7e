"""Tests for config parsing, experiment wiring, and the command-line driver
(run / sweep / verify), including artifact layout and exit codes."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import fedsim.convergence
import fedsim.losses
from fedsim.aggregation import AggregationConfig
from fedsim.cli import (EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_FAILURE, EXIT_OK, main)
from fedsim.config import (build_experiment_config, default_values,
                           parse_config_text, run_id)
from fedsim.errors import ConfigError
from fedsim.experiment import ExperimentConfig, Toggles, TrainingParams
from fedsim.synth import SynthSpec

# deliberately tiny problem so every CLI test runs in well under a second
SMALL = """
[experiment]
rounds = 2

[data]
n_clients = 3
classes_per_client = 6
samples_per_class = 3
input_dim = 8
latent_dim = 4
open_set_split = 0.6

[training]
epochs = 1
batch = 8
local_hidden = 8
fed_hidden = 8
emb_dim = 4
fuse_dim = 4

[aggregation]
probe_size = 8

[sim]
upload_latency = 3
download_latency = 0
server_compute_time = 0
"""


# the canonical text of an empty config, which the run id hashes
EMPTY_CANONICAL = """\
aggregation.clamp_epsilon=1e-06
aggregation.gamma=0.5
aggregation.probe_size=32
data.classes_per_client=20
data.client_subset=None
data.input_dim=32
data.latent_dim=8
data.n_clients=4
data.noise_scale=0.8
data.offset_scale=1.0
data.open_set_split=0.8
data.rotation_step=None
data.samples_per_class=6
experiment.mode='full'
experiment.out='runs'
experiment.rounds=10
experiment.seed=0
sim.async_step_duration=1
sim.download_latency=25
sim.local_step_duration=1
sim.server_compute_time=10
sim.upload_latency=25
toggles.async=None
toggles.personalized=None
toggles.total_loss=None
training.alpha1=0.05
training.alpha2=1.0
training.alpha3=0.02
training.batch=16
training.center_lr=0.1
training.emb_dim=16
training.epochs=3
training.fed_hidden=32
training.fuse_dim=16
training.local_hidden=64
training.lr=0.05"""

# the dataclasses whose fields each INI section sets
SECTION_OWNERS = {
    "experiment": (ExperimentConfig,),
    "data": (SynthSpec, ExperimentConfig),
    "training": (TrainingParams,),
    "aggregation": (AggregationConfig, ExperimentConfig),
    "sim": (ExperimentConfig,),
    "toggles": (Toggles,),
}
TOGGLE_FIELDS = {"async": "async_enabled", "total_loss": "use_total_loss",
                 "personalized": "personalized_agg"}
CLI_ONLY = {("experiment", "out"): "runs", ("data", "rotation_step"): None}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL)
    return str(path)


def read_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def only_run_dir(out):
    dirs = [d for d in os.listdir(out)
            if os.path.isdir(os.path.join(out, d))]
    assert len(dirs) == 1
    return os.path.join(out, dirs[0])


class TestConfigParsing:
    def test_empty_text_yields_documented_defaults(self):
        values, _ = parse_config_text("")
        assert values == default_values()
        assert values[("experiment", "mode")] == "full"
        assert values[("experiment", "rounds")] == 10
        assert values[("data", "n_clients")] == 4
        assert values[("training", "lr")] == 0.05
        assert values[("aggregation", "gamma")] == 0.5
        assert values[("toggles", "async")] is None

    def test_file_values_override_defaults(self):
        values, _ = parse_config_text("[training]\nlr = 0.2\n")
        assert values[("training", "lr")] == 0.2
        assert values[("training", "epochs")] == 3  # untouched default

    def test_cli_overrides_beat_file_values(self):
        values, _ = parse_config_text("[training]\nlr = 0.2\n",
                                      overrides=["training.lr=0.7"])
        assert values[("training", "lr")] == 0.7

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[training]\nlearning_rate = 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[training]\nlr = fast\n")

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("", overrides=["lr=0.1"])
        with pytest.raises(ConfigError):
            parse_config_text("", overrides=["training.lr"])

    def test_tristate_toggles(self):
        values, _ = parse_config_text(
            "[toggles]\nasync = off\ntotal_loss = auto\npersonalized = on\n")
        assert values[("toggles", "async")] is False
        assert values[("toggles", "total_loss")] is None
        assert values[("toggles", "personalized")] is True

    def test_run_id_format_and_sensitivity(self):
        v1, c1 = parse_config_text("")
        v2, c2 = parse_config_text("[training]\nlr = 0.06\n")
        r1, r2 = run_id(v1, c1), run_id(v2, c2)
        assert r1.startswith("0-full-") and len(r1.split("-")[-1]) == 8
        assert r1 != r2
        assert run_id(*parse_config_text("")) == r1  # stable

    def test_build_wiring(self):
        values, _ = parse_config_text(
            "[data]\nrotation_step = 30\nclient_subset = 0,2\n")
        cfg = build_experiment_config(values)
        assert cfg.synth.rotation_deg == (0.0, 30.0, 60.0, 90.0)
        assert cfg.client_subset == (0, 2)
        assert cfg.training.lr == 0.05
        assert cfg.agg.gamma == 0.5

    def test_every_default_is_its_dataclass_field_default(self):
        values = default_values()
        for (section, key), value in values.items():
            if (section, key) in CLI_ONLY:
                assert value == CLI_ONLY[(section, key)]
                continue
            name = TOGGLE_FIELDS.get(key, key) if section == "toggles" else key
            default = next(f.default for cls in SECTION_OWNERS[section]
                           for f in fields(cls) if f.name == name)
            assert value == default and type(value) is type(default), (section, key)
        assert {k for s, k in values if s == "training"} \
            == {f.name for f in fields(TrainingParams)}

    def test_empty_config_keeps_canonical_text_and_run_id(self):
        values, canonical = parse_config_text("")
        assert canonical == EMPTY_CANONICAL
        assert run_id(values, canonical) == "0-full-cc6cf8d3"

    def test_default_rotation_matches_library_default(self):
        values, _ = parse_config_text("[data]\nn_clients = 8\n")
        cfg = build_experiment_config(values)
        assert cfg.synth.rotation_deg == SynthSpec(n_clients=8).rotation_deg

    def test_negative_seed_rejected_without_a_synth_spec(self):
        # ExperimentConfig(seed=-1) keeps the default SynthSpec, so it checks the
        # seed itself before build_client would seed numpy with it
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1)


class TestRunVerb:
    def test_run_produces_artifacts(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", small_config, "--out", out]) == EXIT_OK
        run_dir = only_run_dir(out)
        manifest = read_manifest(run_dir)
        assert manifest["status"] == "ok"
        assert manifest["config"]["experiment"]["rounds"] == 2
        assert len(manifest["final_metrics"]) == 3
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "client_id,round,eer,tar_at_far01,n_genuine,n_impostor"
        assert len(lines) == 1 + 3 * 2  # per client per round
        assert os.path.getsize(os.path.join(run_dir, "timeline.log")) > 0
        traces = os.listdir(os.path.join(run_dir, "traces"))
        assert sorted(traces) == [f"roc_client{c}.csv" for c in range(3)]
        assert "artifacts:" in capsys.readouterr().out

    def test_solo_mode_has_no_server_traffic(self, small_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", small_config, "--out", out,
                     "--mode", "solo"]) == EXIT_OK
        timeline = open(os.path.join(only_run_dir(out), "timeline.log")).read()
        assert "UPLOAD_ARRIVED" not in timeline
        assert "AGGREGATION_DONE" not in timeline
        assert "MODEL_RETURNED" in timeline

    def test_byte_identical_reruns(self, small_config, tmp_path):
        outs = [str(tmp_path / f"out{i}") for i in range(2)]
        for out in outs:
            assert main(["run", "--config", small_config, "--out", out]) == EXIT_OK
        for name in ("metrics.csv", "timeline.log"):
            blobs = [open(os.path.join(only_run_dir(o), name), "rb").read()
                     for o in outs]
            assert blobs[0] == blobs[1]

    def test_disabling_every_toggle_matches_plain_averaging(
            self, small_config, tmp_path):
        # full mode with all three mechanisms switched off degenerates to the
        # uniform-averaging baseline, byte for byte
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", small_config, "--out", out_a,
                     "--set", "toggles.async=off",
                     "--set", "toggles.total_loss=off",
                     "--set", "toggles.personalized=off"]) == EXIT_OK
        assert main(["run", "--config", small_config, "--out", out_b,
                     "--mode", "fedavg"]) == EXIT_OK
        a = open(os.path.join(only_run_dir(out_a), "metrics.csv"), "rb").read()
        b = open(os.path.join(only_run_dir(out_b), "metrics.csv"), "rb").read()
        assert a == b

    def test_client_subset_restricts_metrics(self, small_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", small_config, "--out", out,
                     "--set", "data.client_subset=0,2"]) == EXIT_OK
        with open(os.path.join(only_run_dir(out), "metrics.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"0", "2"}

    def test_config_error_exit_code(self, small_config, tmp_path, capsys):
        assert main(["run", "--config", small_config,
                     "--set", "training.bogus=1"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) \
            == EXIT_CONFIG
        for bad in ("training.batch=0", "training.local_hidden=0", "training.lr=-1",
                    "training.epochs=0", "aggregation.gamma=2", "training.alpha1=-1",
                    "experiment.seed=-1", "data.offset_scale=nan",
                    "data.noise_scale=inf", "sim.upload_latency=-1",
                    "sim.local_step_duration=-1", "sim.server_compute_time=-1",
                    "sim.async_step_duration=0", "aggregation.probe_size=0",
                    "aggregation.probe_size=500", "data.latent_dim=0",
                    "data.latent_dim=64", "aggregation.clamp_epsilon=nan",
                    "aggregation.clamp_epsilon=inf", "data.classes_per_client=3",
                    "data.open_set_split=0.95", "training.alpha1=nan",
                    "training.alpha2=nan", "training.alpha3=inf",
                    "training.center_lr=inf", "training.lr=inf"):
            assert main(["run", "--config", small_config, "--out",
                         str(tmp_path / "out"), "--set", bad]) == EXIT_CONFIG, bad
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any run directory

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
    def test_divergence_exit_code_and_failed_manifest(
            self, small_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--config", small_config, "--out", out,
                     "--set", "training.lr=1e200"])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "divergence" in err
        assert "(client 0, round 0, phase local" in err
        run_dir = only_run_dir(out)
        manifest = read_manifest(run_dir)
        status = manifest["status"]
        assert status.startswith("failed: ")
        assert "(client 0, round 0, phase local" in status
        # stderr and the manifest name the failure in the same words
        assert err.strip() == "divergence: " + status[len("failed: "):]
        assert manifest["files"] == {}
        # no partial artifacts: no metrics row, no timeline, no ROC trace
        assert not os.path.exists(os.path.join(run_dir, "metrics.csv"))
        assert not os.path.exists(os.path.join(run_dir, "timeline.log"))
        assert not os.path.exists(os.path.join(run_dir, "traces"))
        assert os.listdir(run_dir) == ["manifest.json"]

    def test_divergence_prints_one_stderr_line(self, small_config, tmp_path):
        # as a program, numpy's RuntimeWarnings would reach stderr
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "fedsim.cli", "run",
             "--config", small_config, "--out", str(tmp_path / "out"),
             "--set", "training.lr=1e200"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DIVERGENCE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("divergence: "), proc.stderr


class TestSweepVerb:
    def test_grid_sweep_rows_and_manifests(self, small_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", small_config, "--out", out,
                     "--grid", "toggles.async=on|off",
                     "--grid", "toggles.personalized=on|off"]) == EXIT_OK
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == ("toggles.async,toggles.personalized,"
                            "run_id,client_id,eer,tar_at_far01,status")
        assert all(line.endswith(",ok") for line in lines[1:])
        assert len(lines) == 1 + 4 * 3  # 4 combos x 3 clients
        run_dirs = [d for d in os.listdir(out)
                    if os.path.isdir(os.path.join(out, d))]
        assert len(run_dirs) == 4
        for d in run_dirs:
            assert read_manifest(os.path.join(out, d))["status"] == "ok"

    def test_diverged_point_gets_a_failed_row_and_the_rest_run(
            self, small_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", small_config, "--out", out,
                     "--grid", "training.lr=0.05|1e200|0.01"]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("divergence: ")
        with open(os.path.join(out, "summary.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[-1] == "ok") for r in rows] == (
            [("0.05", True)] * 3 + [("1e200", False)] + [("0.01", True)] * 3)
        lr, rid, client, eer, tar, status = rows[3]
        assert (client, eer, tar) == ("", "", "")
        # the row, stderr and the run's manifest name the failure in the same words
        assert status == read_manifest(os.path.join(out, rid))["status"]
        assert status == "failed: " + err[0][len("divergence: "):]
        assert "(client 0, round 0, phase local" in status
        run_dirs = {d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d))}
        assert {r[1] for r in rows} == run_dirs and len(run_dirs) == 3

    def test_bad_grid_value_stops_the_sweep_before_any_run(
            self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", small_config, "--out", str(out),
                     "--grid", "training.lr=0.05|-1|0.01"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid point training.lr=-1: "
                                "lr and center_lr must be finite and >= 0\n")
        assert not out.exists()

    def test_client_subset_axis_row_counts(self, small_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", small_config, "--out", out,
                     "--grid", "data.client_subset=0,1|0,1,2"]) == EXIT_OK
        with open(os.path.join(out, "summary.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        assert len(rows) == 2 + 3  # one row per client per subset

    def test_empty_grid_writes_header_only(self, small_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", small_config, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines == ["run_id,client_id,eer,tar_at_far01,status"]

    def test_bad_grid_axis_rejected(self, small_config, tmp_path, capsys):
        assert main(["sweep", "--config", small_config,
                     "--out", str(tmp_path / "out"),
                     "--grid", "toggles"]) == EXIT_CONFIG
        capsys.readouterr()


class TestVerifyVerb:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 checks passed" in out
        assert "FAIL" not in out

    def test_verify_checks_the_alignment_kernel_runs_use(self, monkeypatch, capsys):
        real = fedsim.losses.fv_cos_batch

        def doubled(f_p, f_g):
            loss, d_p, d_g = real(f_p, f_g)
            return 2.0 * loss, d_p, d_g

        monkeypatch.setattr(fedsim.losses, "fv_cos_batch", doubled)
        assert main(["verify"]) == EXIT_FAILURE
        assert "[FAIL] cosine alignment loss algebra" in capsys.readouterr().out

    @pytest.mark.parametrize("breakage, failed", [
        ("drop the self term", ["aggregation weight simplex"]),
        ("scale the rows", ["aggregation weight simplex",
                            "noise-free federated descent"]),
    ])
    def test_verify_checks_the_mixing_rule_runs_use(self, monkeypatch, capsys,
                                                    breakage, failed):
        real = fedsim.convergence.mix
        broken = {
            "drop the self term": lambda p, w, g: g * np.einsum("nu,ul->nl", w, p),
            "scale the rows": lambda p, w, g: 1.01 * real(p, w, g),
        }[breakage]
        monkeypatch.setattr(fedsim.convergence, "mix", broken)
        assert main(["verify"]) == EXIT_FAILURE
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[FAIL]")]
        assert [name for name in failed if any(name in line for line in fails)] == failed

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

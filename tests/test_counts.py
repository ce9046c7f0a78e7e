"""Every count setting goes through `errors.whole`: a whole value of any number type
is kept as its int, and a bool, fraction, NaN, inf or non-number is a `ConfigError`
that names the setting, raised when the setting is built. Every real-valued setting
goes through `errors.real` alike: a finite number in range is kept as a float."""

import re
from argparse import Namespace
from dataclasses import fields

import numpy as np
import pytest

from fedsim.aggregation import AggregationConfig
from fedsim.cli import EXIT_CONFIG, cmd_verify, main
from fedsim.client import TrainingParams
from fedsim.config import build_experiment_config, default_values
from fedsim.convergence import make_problem, run_fedavg_convergence
from fedsim.errors import ConfigError
from fedsim.experiment import ExperimentConfig, Toggles, run_experiment
from fedsim.losses import LossWeights
from fedsim.nn import MLP
from fedsim.server import load_probe_set
from fedsim.simulation import SimConfig
from fedsim.synth import SynthSpec
from sim_defaults import SCHEDULE
from test_golden import artifact_digest

# SimConfig has no defaults: these stand in for them
SIM_BASE = {"n_clients": 2, "rounds": 1, **SCHEDULE}


def int_fields(cls):
    """Names of the fields of `cls` typed or defaulting to int."""
    return [f.name for f in fields(cls) if f.type is int or type(f.default) is int]


@pytest.mark.parametrize("cls, name", [(cls, name) for cls in (
    TrainingParams, SynthSpec, SimConfig, ExperimentConfig) for name in int_fields(cls)])
def test_whole_float_stored_as_int(cls, name):
    base = SIM_BASE if cls is SimConfig else {}
    default = base.get(name, {f.name: f.default for f in fields(cls)}.get(name))
    stored = getattr(cls(**{**base, name: float(default)}), name)
    for value in stored if isinstance(stored, tuple) else (stored,):
        assert type(value) is int and value == default


def test_guard_sees_every_int_setting():
    # the guard above reads the fields it checks off the classes: it must find these
    assert {"epochs", "batch", "local_hidden", "fed_hidden", "emb_dim",
            "fuse_dim"} <= set(int_fields(TrainingParams))
    assert {"n_clients", "classes_per_client", "samples_per_class", "input_dim",
            "latent_dim", "seed"} <= set(int_fields(SynthSpec))
    assert {"n_clients", "rounds", "server_compute_time"} <= set(int_fields(SimConfig))
    assert {"seed", "rounds", "probe_size", "local_step_duration",
            "async_step_duration"} <= set(int_fields(ExperimentConfig))


PROBLEM = make_problem(2, 2, seed=0)


def converge(**counts):
    return run_fedavg_convergence(PROBLEM, **{"rounds": 1, "local_steps": 1, **counts},
                                  lr_scale=0.1, lr_offset=1.0, noise=0.0, seed=0)


# (setting named in the error, a build that takes the count)
COUNTS = [
    ("n_clients", lambda v: SimConfig(**{**SIM_BASE, "n_clients": v})),
    *((name, lambda v, name=name: TrainingParams(**{name: v}))
      for name in ("epochs", "batch", "local_hidden", "fed_hidden", "emb_dim", "fuse_dim")),
    *((name, lambda v, name=name: SynthSpec(**{name: v}))
      for name in ("n_clients", "seed", "input_dim", "latent_dim", "classes_per_client",
                   "samples_per_class")),
    ("classes_per_client", lambda v: SynthSpec(classes_per_client=(20, v, 20, 20))),
    ("samples_per_class", lambda v: SynthSpec(samples_per_class=(6, 6, v, 6))),
    *((name, lambda v, name=name: ExperimentConfig(**{name: v})) for name in ("seed", "probe_size")),
    ("client_subset", lambda v: ExperimentConfig(client_subset=(0, v))),
    ("layer size", lambda v: MLP((4, v, 3))),
    ("t", lambda v: load_probe_set(np.ones((10, 2)), v, seed=0)),
    ("n_clients", lambda v: make_problem(v, 2, seed=0)),
    ("dim", lambda v: make_problem(2, v, seed=0)),
    *((name, lambda v, name=name: converge(**{name: v}))
      for name in ("rounds", "local_steps", "replicates")),
    ("seed", lambda v: cmd_verify(Namespace(seed=v))),
]


@pytest.mark.parametrize("value", [1.5, float("nan"), float("inf"), "3", True, False,
                                   np.True_])
@pytest.mark.parametrize("name, build", COUNTS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(COUNTS)])
def test_non_whole_count_refused(name, build, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a whole number >= \d"):
        build(value)


def test_bool_count_refused_by_the_library_and_the_cli(tmp_path, capsys):
    # int(True) == True: a bool used to run as the count 1
    values = default_values()
    values[("training", "epochs")] = True
    with pytest.raises(ConfigError, match=r"^epochs must be a whole number >= 1, got True"):
        build_experiment_config(values)
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nrounds = 1\n")
    for text in ("True", "true"):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--set", f"training.epochs={text}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid value for training.epochs: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_whole_floats_run_as_their_ints(tmp_path):
    def digest(epochs, samples, probes):
        cfg = ExperimentConfig(rounds=1, probe_size=probes, training=TrainingParams(epochs=epochs),
                               synth=SynthSpec(n_clients=2, samples_per_class=samples))
        return artifact_digest(run_experiment(cfg), tmp_path)
    assert digest(3.0, 6.0, 8.0) == digest(3, 6, 8)


@pytest.mark.parametrize("value", ["off", 1, 0, np.float64(1.0)])
def test_toggle_refuses_a_non_bool(value):
    # bool("off") is True: only None, True or False say what a switch means
    with pytest.raises(ConfigError, match="^async_enabled must be None, True or False"):
        Toggles(async_enabled=value)


def test_toggle_keeps_none_and_bools():
    assert Toggles(False, None, True).resolve("full") == (False, True, True)


@pytest.mark.parametrize("cls, name, value", [
    (SimConfig, "upload_latency", np.array(3)), (ExperimentConfig, "upload_latency", np.array(3)),
    (ExperimentConfig, "local_step_duration", np.array(2.0)),
    (SynthSpec, "samples_per_class", np.array(6)), (SynthSpec, "rotation_deg", np.array(5.0))])
def test_zero_d_array_is_a_scalar(cls, name, value):
    # np.isscalar is False for a 0-d array, whose tuple() raised a TypeError
    base = SIM_BASE if cls is SimConfig else {}
    got, want = (getattr(cls(**{**base, name: v}), name) for v in (value, value.item()))
    assert got == want
    assert type(got) is type(want)   # an ExperimentConfig keeps a scalar setting's one int


@pytest.mark.parametrize("value", [5, np.int64(2), np.array(1)])
def test_scalar_client_subset_refused(value):
    # iterating an int raised a TypeError
    with pytest.raises(ConfigError, match="^client_subset must be a sequence"):
        ExperimentConfig(client_subset=value)


# (setting named in the error, a build that takes the real value): every real-valued
# setting goes through `errors.real`
REALS = [
    *((name, lambda v, name=name: TrainingParams(**{name: v}))
      for name in ("lr", "center_lr", "alpha1", "alpha2", "alpha3")),
    *((name, lambda v, name=name: LossWeights(**{"alpha1": 1.0, "alpha2": 1.0, "alpha3": 1.0,
                                                 name: v}))
      for name in ("alpha1", "alpha2", "alpha3")),
    *((name, lambda v, name=name: AggregationConfig(**{name: v}))
      for name in ("gamma", "clamp_epsilon")),
    *((name, lambda v, name=name: SynthSpec(**{name: v}))
      for name in ("open_set_split", "offset_scale", "noise_scale", "rotation_deg")),
    ("offset_scale", lambda v: SynthSpec(offset_scale=(1.0, v, 1.0, 1.0))),
]


@pytest.mark.parametrize("value", ["a", "0.5", b"1", float("nan"), float("inf"), -np.inf,
                                   True, np.False_, 1j, object()])
@pytest.mark.parametrize("name, build", REALS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(REALS)])
def test_non_number_refused(name, build, value):
    # a string, a bool or a non-finite value used to raise a TypeError or run
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a finite number in "):
        build(value)


@pytest.mark.parametrize("name, build, value", [
    ("lr", lambda v: TrainingParams(lr=v), -0.1),
    ("center_lr", lambda v: TrainingParams(center_lr=v), -1),
    ("alpha2", lambda v: TrainingParams(alpha2=v), -1e-300),
    ("gamma", lambda v: AggregationConfig(gamma=v), 1.5),
    ("gamma", lambda v: AggregationConfig(gamma=v), -0.0001),
    ("clamp_epsilon", lambda v: AggregationConfig(clamp_epsilon=v), 0),
    ("open_set_split", lambda v: SynthSpec(open_set_split=v), 0.0),
    ("open_set_split", lambda v: SynthSpec(open_set_split=v), 1),
])
def test_out_of_range_refused(name, build, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a finite number in "
                                          rf".*, got {re.escape(repr(value))}$"):
        build(value)


def test_the_six_type_errors_name_their_setting():
    # each of these raised a TypeError from a comparison of a str with a number
    for name, build in [("lr", lambda: TrainingParams(lr="a")),
                        ("alpha1", lambda: TrainingParams(alpha1="a")),
                        ("gamma", lambda: AggregationConfig(gamma="a")),
                        ("clamp_epsilon", lambda: AggregationConfig(clamp_epsilon="a")),
                        ("open_set_split", lambda: SynthSpec(open_set_split="a")),
                        ("offset_scale", lambda: SynthSpec(offset_scale="a"))]:
        with pytest.raises(ConfigError, match=rf"^{name} must be a finite number in .*'a'$"):
            build()


def test_real_settings_are_stored_as_floats_and_run_alike(tmp_path):
    values = {"lr": np.float32(0.5), "center_lr": 1, "alpha1": np.int64(0), "gamma": 1,
              "clamp_epsilon": np.float64(1e-6), "open_set_split": 0.75, "offset_scale": 2}
    built = [TrainingParams(lr=values["lr"], center_lr=1, alpha1=np.int64(0)),
             AggregationConfig(gamma=1, clamp_epsilon=values["clamp_epsilon"]),
             SynthSpec(open_set_split=0.75, offset_scale=2)]
    for name, value in values.items():
        (stored,) = [getattr(b, name) for b in built if hasattr(b, name)]
        for v in stored if isinstance(stored, tuple) else (stored,):
            assert type(v) is float and v == value

    def digest(gamma, lr):
        cfg = ExperimentConfig(rounds=1, agg=AggregationConfig(gamma=gamma),
                               training=TrainingParams(lr=lr),
                               synth=SynthSpec(n_clients=2))
        return artifact_digest(run_experiment(cfg), tmp_path)
    assert digest(1, np.float32(0.5)) == digest(1.0, 0.5)

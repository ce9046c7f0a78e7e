"""Experiment configuration files: flat INI-style key/value sections with a
documented default for every key. Unknown sections or keys are hard errors."""

import configparser
import hashlib
import json
import os
import tempfile

from .aggregation import AggregationConfig
from .errors import ConfigError
from .experiment import ExperimentConfig, Toggles, TrainingParams
from .synth import SynthSpec


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_tristate(raw: str):
    if raw.strip().lower() == "auto":
        return None
    return _parse_bool(raw)


def _parse_optional_float(raw: str):
    raw = raw.strip()
    return float(raw) if raw else None


def _parse_subset(raw: str):
    raw = raw.strip()
    if not raw:
        return None
    return tuple(int(v) for v in raw.split(","))


# section -> key -> (parser, default-as-string)
SCHEMA = {
    "experiment": {
        "mode": (str, "full"),
        "seed": (int, "0"),
        "rounds": (int, "10"),
        "out": (str, "runs"),
    },
    "data": {
        "n_clients": (int, "4"),
        "classes_per_client": (int, "20"),
        "samples_per_class": (int, "6"),
        "input_dim": (int, "32"),
        "latent_dim": (int, "8"),
        "rotation_step": (_parse_optional_float, ""),  # unset: SynthSpec's spread
        "offset_scale": (float, "1.0"),
        "noise_scale": (float, "0.8"),
        "open_set_split": (float, "0.8"),
        "client_subset": (_parse_subset, ""),
    },
    "training": {
        "lr": (float, "0.05"),
        "epochs": (int, "3"),
        "batch": (int, "16"),
        "alpha1": (float, "0.05"),
        "alpha2": (float, "1.0"),
        "alpha3": (float, "0.02"),
        "center_lr": (float, "0.1"),
        "local_hidden": (int, "64"),
        "fed_hidden": (int, "32"),
        "emb_dim": (int, "16"),
        "fuse_dim": (int, "16"),
    },
    "aggregation": {
        "gamma": (float, "0.5"),
        "clamp_epsilon": (float, "1e-6"),
        "probe_size": (int, "32"),
    },
    "sim": {
        "local_step_duration": (int, "1"),
        "upload_latency": (int, "25"),
        "download_latency": (int, "25"),
        "server_compute_time": (int, "10"),
        "async_step_duration": (int, "1"),
    },
    "toggles": {
        "async": (_parse_tristate, "auto"),
        "total_loss": (_parse_tristate, "auto"),
        "personalized": (_parse_tristate, "auto"),
    },
}


def default_values():
    values = {}
    for section, keys in SCHEMA.items():
        for key, (parser, default) in keys.items():
            values[(section, key)] = parser(default)
    return values


def parse_config_text(text: str, overrides=None):
    """Parse an INI config plus 'section.key=value' overrides.

    Returns (values dict keyed by (section, key), canonical text used for the
    run-id hash).
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values = default_values()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            values[(section, key)] = _convert(section, key, raw)

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        path, raw = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override key {path!r} is not section.key")
        section, key = path.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        values[(section, key)] = _convert(section, key, raw)

    canonical = "\n".join(f"{s}.{k}={values[(s, k)]!r}" for s, k in sorted(values))
    return values, canonical


def _convert(section, key, raw):
    parser_fn, _ = SCHEMA[section][key]
    try:
        return parser_fn(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({exc})") from exc


def load_config(path, overrides=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)


def build_experiment_config(values) -> ExperimentConfig:
    v = lambda s, k: values[(s, k)]
    n = v("data", "n_clients")
    step = v("data", "rotation_step")
    synth = SynthSpec(
        n_clients=n,
        classes_per_client=v("data", "classes_per_client"),
        samples_per_class=v("data", "samples_per_class"),
        input_dim=v("data", "input_dim"),
        latent_dim=v("data", "latent_dim"),
        rotation_deg=None if step is None else tuple(c * step for c in range(n)),
        offset_scale=v("data", "offset_scale"),
        noise_scale=v("data", "noise_scale"),
        seed=v("experiment", "seed"),
        open_set_split=v("data", "open_set_split"),
    )
    training = TrainingParams(
        lr=v("training", "lr"), epochs=v("training", "epochs"),
        batch=v("training", "batch"), alpha1=v("training", "alpha1"),
        alpha2=v("training", "alpha2"), alpha3=v("training", "alpha3"),
        center_lr=v("training", "center_lr"),
        local_hidden=v("training", "local_hidden"),
        fed_hidden=v("training", "fed_hidden"),
        emb_dim=v("training", "emb_dim"), fuse_dim=v("training", "fuse_dim"),
    )
    return ExperimentConfig(
        mode=v("experiment", "mode"),
        seed=v("experiment", "seed"),
        rounds=v("experiment", "rounds"),
        synth=synth,
        training=training,
        agg=AggregationConfig(v("aggregation", "gamma"),
                              v("aggregation", "clamp_epsilon")),
        probe_size=v("aggregation", "probe_size"),
        local_step_duration=v("sim", "local_step_duration"),
        upload_latency=v("sim", "upload_latency"),
        download_latency=v("sim", "download_latency"),
        server_compute_time=v("sim", "server_compute_time"),
        async_step_duration=v("sim", "async_step_duration"),
        toggles=Toggles(v("toggles", "async"), v("toggles", "total_loss"),
                        v("toggles", "personalized")),
        client_subset=v("data", "client_subset"),
    )


def run_id(values, canonical: str) -> str:
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:8]
    return f"{values[('experiment', 'seed')]}-{values[('experiment', 'mode')]}-{digest}"


def values_as_dict(values):
    out = {}
    for (section, key), val in sorted(values.items()):
        out.setdefault(section, {})[key] = val
    return out


def write_manifest_atomic(path, manifest: dict) -> None:
    """Write the manifest via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

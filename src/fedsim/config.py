"""Experiment configuration files: flat INI-style key/value sections. Every
key's default is read off the dataclass field it sets, so the dataclasses are
the one place a setting and its default are written. Unknown sections or keys
are hard errors."""

import configparser
import hashlib
import json
import os
import tempfile
from dataclasses import fields

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


def _defaults(cls, names=None):
    """{field name: default} for the named fields of a dataclass (all by default)."""
    found = {f.name: f.default for f in fields(cls)}
    return {name: found[name] for name in (names or found)}


# INI toggle key -> Toggles field ("async" is a Python keyword)
_TOGGLE_FIELDS = {"async": "async_enabled", "total_loss": "use_total_loss",
                  "personalized": "personalized_agg"}

# section -> key -> default. Only the CLI's own keys and the toggles are
# written here; every other default is read off its dataclass field.
SCHEMA = {
    "experiment": {**_defaults(ExperimentConfig, ("mode", "seed", "rounds")),
                   "out": "runs"},
    "data": {**_defaults(SynthSpec, ("n_clients", "classes_per_client",
                                     "samples_per_class", "input_dim", "latent_dim",
                                     "offset_scale", "noise_scale", "open_set_split")),
             **_defaults(ExperimentConfig, ("client_subset",)),
             "rotation_step": None},  # unset: SynthSpec's spread
    "training": _defaults(TrainingParams),
    "aggregation": {**_defaults(AggregationConfig),
                    **_defaults(ExperimentConfig, ("probe_size",))},
    "sim": _defaults(ExperimentConfig, ("local_step_duration", "upload_latency",
                                        "download_latency", "server_compute_time",
                                        "async_step_duration")),
    "toggles": {key: _defaults(Toggles)[name] for key, name in _TOGGLE_FIELDS.items()},
}

# A key is parsed by the type of its default, except these.
_PARSERS = {
    ("data", "rotation_step"): _parse_optional_float,
    ("data", "client_subset"): _parse_subset,
    **{("toggles", key): _parse_tristate for key in _TOGGLE_FIELDS},
}


def default_values():
    return {(section, key): default for section, keys in SCHEMA.items()
            for key, default in keys.items()}


def parse_config_text(text: str, overrides=None):
    """Parse an INI config plus 'section.key=value' overrides.

    Returns (values dict keyed by (section, key), canonical text used for the
    run-id hash).
    """
    # as `--set` reads: literal values, exact keys, and [DEFAULT] an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    def entries():   # the file's keys in file order, then the overrides
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            yield from ((section, key, raw) for key, raw in parser.items(section))
        for item in overrides or []:
            path, eq, raw = item.partition("=")
            section, dot, key = path.partition(".")
            if not eq:
                raise ConfigError(f"override {item!r} is not section.key=value")
            if not dot:
                raise ConfigError(f"override key {path!r} is not section.key")
            yield section, key, raw

    values = default_values()
    for section, key, raw in entries():
        if key not in SCHEMA.get(section, ()):
            raise ConfigError(f"unknown config key {section}.{key}")
        parse = _PARSERS.get((section, key)) or type(SCHEMA[section][key])
        try:
            values[(section, key)] = parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({exc})") from exc

    canonical = "\n".join(f"{s}.{k}={values[(s, k)]!r}" for s, k in sorted(values))
    return values, canonical


def read_config(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path, overrides=None):
    return parse_config_text(read_config(path), overrides)


def build_experiment_config(values) -> ExperimentConfig:
    v = values_as_dict(values)
    exp, data, agg = v["experiment"], v["data"], v["aggregation"]
    del exp["out"]  # where the CLI writes, not a setting of the experiment
    step, subset = data.pop("rotation_step"), data.pop("client_subset")
    rotation = None if step is None else tuple(c * step for c in range(data["n_clients"]))
    probe_size = agg.pop("probe_size")
    return ExperimentConfig(
        **exp, **v["sim"], probe_size=probe_size, client_subset=subset,
        synth=SynthSpec(**data, seed=exp["seed"], rotation_deg=rotation),
        training=TrainingParams(**v["training"]), agg=AggregationConfig(**agg),
        toggles=Toggles(**{_TOGGLE_FIELDS[k]: t for k, t in v["toggles"].items()}))


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

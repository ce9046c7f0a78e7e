"""`fedsim run` and the library are one experiment: for drawn INI values
across every section, the CLI writes the `metrics.csv` and `timeline.log`
that `run_experiment(build_experiment_config(...))` gives through the same
writers, under a run id that depends only on the canonical config text."""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.cli import EXIT_OK, main
from fedsim.config import build_experiment_config, parse_config_text, run_id
from fedsim.experiment import run_experiment
from fedsim.metrics import write_metrics_csv

ARTIFACTS = ("metrics.csv", "timeline.log")
TRISTATE = st.sampled_from(["on", "off", "auto"])


def small_floats(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 3))


@st.composite
def ini_values(draw):
    """{section: {key: value}} at sizes that train in milliseconds."""
    n_clients = draw(st.integers(2, 3))
    data = {"n_clients": n_clients, "classes_per_client": draw(st.integers(5, 7)),
            "samples_per_class": draw(st.integers(2, 3)),
            "input_dim": draw(st.integers(4, 6)), "latent_dim": draw(st.integers(2, 4)),
            "offset_scale": draw(small_floats(0.5, 1.5)),
            "noise_scale": draw(small_floats(0.2, 1.0)),
            "open_set_split": draw(st.sampled_from([0.4, 0.5, 0.6]))}
    if draw(st.booleans()):
        data["rotation_step"] = draw(small_floats(0.0, 90.0))
    if draw(st.booleans()):
        data["client_subset"] = ",".join(map(str, draw(st.lists(
            st.integers(0, n_clients - 1), min_size=1, max_size=n_clients, unique=True))))
    return {
        "experiment": {"mode": draw(st.sampled_from(["solo", "fedavg", "full"])),
                       "rounds": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 3))},
        "data": data,
        "training": {"epochs": 1, "batch": draw(st.integers(4, 8)),
                     "lr": draw(small_floats(0.01, 0.1)),
                     "alpha1": draw(small_floats(0.0, 0.1)),
                     "local_hidden": draw(st.integers(4, 8)),
                     "fed_hidden": draw(st.integers(4, 8)),
                     "emb_dim": draw(st.integers(2, 4)), "fuse_dim": draw(st.integers(2, 4))},
        "sim": {"local_step_duration": draw(st.integers(1, 2)),
                "upload_latency": draw(st.integers(0, 5)),
                "download_latency": draw(st.integers(0, 5)),
                "server_compute_time": draw(st.integers(0, 3)),
                "async_step_duration": draw(st.integers(1, 3))},
        "aggregation": {"gamma": draw(small_floats(0.0, 1.0)),
                        "probe_size": draw(st.integers(4, 8))},
        "toggles": {key: draw(TRISTATE) for key in ("async", "total_loss", "personalized")},
    }


def ini_text(sections) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@given(ini_values())
@settings(max_examples=25, deadline=None)
def test_cli_run_writes_the_library_run(tmp_path_factory, sections):
    d = tmp_path_factory.mktemp("cli_library")
    text = ini_text(sections)
    (d / "exp.ini").write_text(text)
    assert main(["run", "--config", str(d / "exp.ini"), "--out", str(d / "runs")]) == EXIT_OK
    (run_dir,) = os.listdir(d / "runs")

    values, canonical = parse_config_text(text)
    result = run_experiment(build_experiment_config(values))
    os.mkdir(d / "lib")
    write_metrics_csv(d / "lib" / "metrics.csv", result.metrics)
    result.timeline.export(d / "lib" / "timeline.log")
    for name in ARTIFACTS:
        assert (d / "runs" / run_dir / name).read_bytes() == (d / "lib" / name).read_bytes()

    # the same values spelled otherwise: sections reversed, as --set overrides
    reversed_text = ini_text(dict(reversed(list(sections.items()))))
    overrides = [f"{s}.{k}={v}" for s, keys in sections.items() for k, v in keys.items()]
    for other in (parse_config_text(reversed_text), parse_config_text("", overrides)):
        assert other[1] == canonical
        assert run_id(*other) == run_dir == run_id(values, canonical)

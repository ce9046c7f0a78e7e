"""Byte-level goldens for the default experiment modes.

"Same behaviour" for a refactor means `metrics.csv` and `timeline.log` stay
byte-identical for the default `full`, `fedavg` and `solo` configs. The
digests below were recorded with numpy 2.4.6 linked against scipy-openblas
0.3.31 on x86-64; another numpy or BLAS build may round differently, so a
mismatch there is a platform difference before it is a regression. An
intended behaviour change re-records them and says why in CHANGES.md.
"""

import hashlib

import pytest

from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.metrics import write_metrics_csv

GOLDEN = {
    "full": "9e7ecec7f65b637cb2f4594c856af96fc92a15046a1257c6ab1a8427151a94db",
    "fedavg": "9966fd26d9a733bf6833fc6090d23f001481cc6faa0323d40c321d44cde8c18b",
    "solo": "1c762997badcae4a7f7e79842ff5fae3e5330a77f2dd05567e47411b4189043f",
}


def artifact_digest(result, tmp_path) -> str:
    metrics_path = tmp_path / "metrics.csv"
    timeline_path = tmp_path / "timeline.log"
    write_metrics_csv(str(metrics_path), result.metrics)
    result.timeline.export(str(timeline_path))
    return hashlib.sha256(metrics_path.read_bytes() + b"\0"
                          + timeline_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_default_config_artifacts_match_golden(mode, tmp_path):
    result = run_experiment(ExperimentConfig(mode=mode))
    assert artifact_digest(result, tmp_path) == GOLDEN[mode]

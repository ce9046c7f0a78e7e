"""Byte-level golden for the ROADMAP Baseline's out-of-lockstep schedule.

Clients train at per-client step durations and upload at per-client
latencies, so members of one group reach their local rounds and their async
steps on different ticks and each is stepped alone: the path where a
member's `DomainError` becomes its `DivergenceError`. The digest was recorded
at 1 and 2 OpenBLAS threads, with the platform caveats of `test_golden.py`.
"""

from fedsim.experiment import ExperimentConfig, run_experiment
from test_golden import artifact_digest

DIGEST = "7bba645f0b3de2a851cf36f0161b9ae2979a5671ea3e900ae867cd517d70a7a2"


def test_out_of_lockstep_schedule_matches_golden(tmp_path):
    result = run_experiment(ExperimentConfig(local_step_duration=(1, 2, 1, 3),
                                             upload_latency=(25, 20, 30, 25)))
    assert len(result.timeline.records) == 3431
    assert artifact_digest(result, tmp_path) == DIGEST

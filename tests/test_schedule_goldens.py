"""Byte-level goldens for schedules where clients do not move in lockstep.

`test_golden.py` pins the default configs, where every client ends its local
round and takes its async steps on the same ticks. These four configs pin the
other cases: clients of different shapes, local rounds interleaved with
zero-latency uploads and solo returns on one tick, and per-client step
durations that split clients of one shape across ticks. The digests were
recorded before client steps were stacked across clients, with the platform
caveats of `test_golden.py`.
"""

import pytest

from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.synth import SynthSpec
from test_golden import artifact_digest

CASES = {
    # client 2 has fewer classes, and no two clients share both latencies
    "ragged_shapes": (
        dict(rounds=3, upload_latency=(0, 3, 3, 7), download_latency=(5, 0, 2, 2),
             synth=SynthSpec(classes_per_client=(20, 20, 15, 20))),
        "a799b1c740cba8850b19e53b39742c3e0da916bdfd9d9b7f3842dfac87266130"),
    # every local round ends on the tick it starts; uploads arrive at once
    "same_tick_interleaving": (
        dict(rounds=3, upload_latency=0, local_step_duration=0,
             server_compute_time=0, download_latency=1),
        "dbc9cc310c918a8e4b4ead4a2ff2b78f2416810e50138d0a7a2800ab318f3c03"),
    # solo returns start the next round on the tick the last one ended
    "solo_zero_duration": (
        dict(mode="solo", rounds=3, local_step_duration=0),
        "8df248cf0009a02d2f11d5929c4b23cc88ff5f41442d07e494f347047a225835"),
    # client 1 trains at half speed, and async steps take three ticks
    "staggered_steps": (
        dict(rounds=3, async_step_duration=3, local_step_duration=(1, 2, 1, 1)),
        "21f8a878fcee39cecb7bf373ccbc18f7443591774771e27f223054a176f81885"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_artifacts_match_golden(name, tmp_path):
    settings, digest = CASES[name]
    result = run_experiment(ExperimentConfig(**settings))
    assert artifact_digest(result, tmp_path) == digest

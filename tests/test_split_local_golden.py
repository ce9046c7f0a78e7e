"""Byte-level golden for a schedule whose local rounds split each group.

Clients 0 and 1 get their model back 5 ticks after the aggregation, clients 2
and 3 after 2 ticks, so from round 1 on each local step of the four-member
group trains two members while the other two wait: the stacked step whose
center update keeps the waiting members' centers. The digest was recorded
while such a step still ran each member alone, with the platform caveats of
`test_golden.py`.
"""

import collections

import pytest

from fedsim.client import ClientGroup
from fedsim.experiment import ExperimentConfig, run_experiment
from test_golden import artifact_digest

DIGEST = "28de11f6822356fadaac818762be3018f5e7ea9cdf5393d07bbb141bc2388890"


def test_two_of_four_local_steps_match_golden(tmp_path):
    sizes = collections.Counter()   # rows per local step -> steps
    step = ClientGroup._step

    def counted(self, rows, phase, *args):
        if phase == "local":
            sizes[len(rows)] += 1
        return step(self, rows, phase, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClientGroup, "_step", counted)
        result = run_experiment(ExperimentConfig(rounds=3, download_latency=(5, 5, 2, 2)))
    # 3 epochs of 6 batches: round 0 of all four, rounds 1 and 2 of each pair
    assert sizes == {4: 18, 2: 2 * 2 * 18}
    assert len(result.timeline.records) == 514
    assert artifact_digest(result, tmp_path) == DIGEST

"""Byte-level goldens for the files `fedsim run` writes.

tests/test_golden.py pins `metrics.csv` and `timeline.log` of library runs;
these pin the CLI's own output as well, including every ROC trace. The
open-set config has 192,000 impostor pairs per client, past
`IMPOSTOR_PAIR_CAP`, so its traces also pin the impostor subsample. The
digests were recorded with numpy 2.4.6 linked against scipy-openblas 0.3.31
on x86-64 (see tests/test_golden.py on platform differences).
"""

import csv
import hashlib
import os

import numpy as np
import pytest

from fedsim.cli import EXIT_OK, main
from fedsim.metrics import eer

OPEN_SET = """
[experiment]
mode = fedavg
rounds = 2

[data]
n_clients = 2
classes_per_client = 20
samples_per_class = 40
open_set_split = 0.2
"""

GOLDEN = {
    "empty": ("", "0-full-cc6cf8d3", {
        "metrics.csv":
            "dc7609a4436f5eb5e4085e9d80eaf86738880e1f07db54a3b0c37778f07e0bfa",
        "timeline.log":
            "782fdfce8848d579099433ce013599b64c482771ec569f320db2a6091b428b9b",
        "traces/roc_client0.csv":
            "88e771239b1a174b9fc157ab558076be277f8fb9d4f4bab2d5f3223c9aac4e40",
        "traces/roc_client1.csv":
            "d9c856a2d715e747255da3f0c5fed979dad30bf479c1b364cbf5aed77620f59d",
        "traces/roc_client2.csv":
            "c143cca8cb31e691a70fa15ce9d7e76ad8c0b99fd3623b1cd0077133209e2f6f",
        "traces/roc_client3.csv":
            "f5260701415b09aebd1c238a03b232248941c95230e67c4c722a1a28d918856c",
    }),
    "open_set": (OPEN_SET, "0-fedavg-980ecf88", {
        "metrics.csv":
            "992851787b7ca3c5cee6638e9a6befaa089a1645f6d2aa18e128026624a60807",
        "timeline.log":
            "325032a49c72652e0c7e6b30dea7b072e78e8d3d81ba4aa8b8ae406492d6b1fc",
        "traces/roc_client0.csv":
            "5e3786f469cd336c97f512ccd8bbb61ae2560f3c515c055eb991bfe1ba0931bf",
        "traces/roc_client1.csv":
            "ebbd4273a036bd2a98a41d998a3bc0dfbd5d508ed3a0d72c275ddfe23dba20c5",
    }),
}


def read_roc(path):
    """(thresholds, far, frr) arrays parsed back from a ROC trace."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "far", "frr"]
    return tuple(np.array([float(v) for v in col]) for col in zip(*rows[1:]))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_artifacts_match_golden(name, tmp_path, capsys):
    text, expected_id, digests = GOLDEN[name]
    config = tmp_path / "exp.ini"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert os.listdir(out) == [expected_id]
    run_dir = out / expected_id
    written = sorted(["metrics.csv", "timeline.log"]
                     + [f"traces/{f}" for f in os.listdir(run_dir / "traces")])
    assert written == sorted(digests)
    got = {rel: hashlib.sha256((run_dir / rel).read_bytes()).hexdigest()
           for rel in written}
    assert got == digests

    # each trace is the sweep of the client's final evaluation
    with open(run_dir / "metrics.csv", newline="") as fh:
        final = {int(row["client_id"]): float(row["eer"])
                 for row in csv.DictReader(fh)}
    for client_id, final_eer in final.items():
        points = read_roc(run_dir / "traces" / f"roc_client{client_id}.csv")
        assert eer(points) == final_eer

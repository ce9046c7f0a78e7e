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
        "traces/roc_client0.npy":
            "e88042e06365e5d1a168b6ea5f57cd7c2ea02fdc24f108a8f903e9887d26692b",
        "traces/roc_client1.npy":
            "e54f23bf2bb7d2f4e08fe71beb2fb7dd41cd57e73fe0bf9875fbce39630a2045",
        "traces/roc_client2.npy":
            "c9d784c640965bcb6ce2326c8648b779ef098d22088af51d18e933654a986df9",
        "traces/roc_client3.npy":
            "9deb53e6b6e20ef78ff899af9e3f087fca2ebbcc0737e2907cdd62ddae271d87",
    }),
    "open_set": (OPEN_SET, "0-fedavg-980ecf88", {
        "metrics.csv":
            "992851787b7ca3c5cee6638e9a6befaa089a1645f6d2aa18e128026624a60807",
        "timeline.log":
            "325032a49c72652e0c7e6b30dea7b072e78e8d3d81ba4aa8b8ae406492d6b1fc",
        "traces/roc_client0.npy":
            "f76ce78c20b8a61a5577a8fcd8734244747e59477e96aece6f19ec06d148cfbd",
        "traces/roc_client1.npy":
            "f7dccb867ad3e20b85cbe2d06f18880bcd1b330f7c7f6f8d8344fa1c99a42349",
    }),
}


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
        points = np.load(run_dir / "traces" / f"roc_client{client_id}.npy")
        assert eer(points) == final_eer

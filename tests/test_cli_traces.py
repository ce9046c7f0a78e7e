"""`fedsim run` and `fedsim sweep` write each ROC trace as one `.npy` array from
the run's own process.

Whatever the usable CPUs, no child process is started, every trace the
manifest lists is written, the bench tracer sees every write, and a write
error exits 1 with one `error:` line.
"""

import hashlib
import json
import os

import pytest

import fedsim.cli
from fedsim.cli import EXIT_FAILURE, EXIT_OK
from test_bench_contract import tracer
from test_cli_artifacts import GOLDEN

TEXT, RUN_ID, DIGESTS = GOLDEN["open_set"]   # two clients: two traces


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TEXT)
    return path


def refuse_fork():
    raise AssertionError("a run started a child process")


@pytest.mark.parametrize("verb", [["run"], ["sweep", "--grid", "experiment.rounds=2"]],
                         ids=["run", "sweep"])
def test_run_starts_no_child_process(verb, config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", refuse_fork)
    out = tmp_path / "out"
    assert fedsim.cli.main(verb + ["--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    (run_dir,) = [out / d for d in os.listdir(out) if d != "summary.csv"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["files"]["traces"] == [
        str(run_dir / "traces" / f"roc_client{c}.npy") for c in (0, 1)]
    assert all(os.path.exists(path) for path in manifest["files"]["traces"])
    got = {rel: hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() for rel in DIGESTS}
    assert got == DIGESTS


def test_tracer_sees_every_trace_write(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    t = tracer.Tracer()
    t.install()
    try:
        code = fedsim.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert code == EXIT_OK
    assert t.summary()["experiment.write_roc_csv"][0] == 2


def file_above_out(out):
    out.parent.write_text("")   # `--out` under a regular file
    os.makedirs(out / RUN_ID)


def dir_at_own_trace(out):
    blocked = out / RUN_ID / "traces" / "roc_client0.npy"
    blocked.mkdir(parents=True)
    open(blocked, "wb")


@pytest.mark.parametrize("block, has_manifest",
                         [(file_above_out, False), (dir_at_own_trace, True)])
def test_write_error_in_this_process_exits_1_with_one_line(
        block, has_manifest, config, tmp_path, capsys):
    out = tmp_path / "above" / "out"
    with pytest.raises(OSError) as refused:
        block(out)
    assert fedsim.cli.main(["run", "--config", str(config), "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    manifest = out / RUN_ID / "manifest.json"
    assert manifest.exists() == has_manifest
    if has_manifest:
        assert json.loads(manifest.read_text())["status"] == f"failed: {refused.value}"

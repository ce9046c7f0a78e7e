"""`fedsim run` writes its ROC traces from this process and one forked child
per further usable CPU; these pin what that must not change.

The bytes are the goldens of tests/test_cli_artifacts.py at any width, a
failure the run's own process cannot repair fails the run, no child outlives
the run, and no child writes to the parent's output.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import fedsim.cli
from fedsim.cli import EXIT_FAILURE, EXIT_OK
from test_cli_artifacts import GOLDEN

TEXT, RUN_ID, DIGESTS = GOLDEN["open_set"]   # two clients: two traces


def run_cli(config, out, cpus, monkeypatch):
    """`fedsim run` with `cpus` usable CPUs; returns (exit code, forks made)."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    parent = os.getpid()
    try:
        code = fedsim.cli.main(["run", "--config", str(config), "--out", str(out)])
    finally:
        if os.getpid() != parent:   # a writer that did not exit: never run pytest twice
            os._exit(70)
    return code, len(forks)


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TEXT)
    return path


@pytest.mark.parametrize("cpus, forks", [(1, 0), (5, 1)])
def test_traces_are_the_goldens_at_any_width(cpus, forks, config, tmp_path, capsys,
                                             monkeypatch):
    # one writer, and more writers than files (capped at one per file)
    out = tmp_path / "out"
    assert run_cli(config, out, cpus, monkeypatch) == (EXIT_OK, forks)
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["client 0", "client 1", "artifacts"]
    got = {rel: hashlib.sha256((out / RUN_ID / rel).read_bytes()).hexdigest()
           for rel in DIGESTS}
    assert got == DIGESTS
    manifest = json.loads((out / RUN_ID / "manifest.json").read_text())
    assert manifest["files"]["traces"] == [
        str(out / RUN_ID / "traces" / f"roc_client{c}.csv") for c in (0, 1)]


def test_failed_child_write_fails_the_run(config, tmp_path, capsys, monkeypatch):
    # with two writers, client 1's trace is the child's
    out = tmp_path / "out"
    blocked = out / RUN_ID / "traces" / "roc_client1.csv"
    blocked.mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as refused:
        open(blocked, "w")
    assert run_cli(config, out, 2, monkeypatch) == (EXIT_FAILURE, 1)
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    manifest = json.loads((out / RUN_ID / "manifest.json").read_text())
    assert manifest["status"] == f"failed: {refused.value}"
    with pytest.raises(ChildProcessError):   # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def file_above_out(out):
    out.parent.write_text("")   # `--out` under a regular file
    os.makedirs(out / RUN_ID)


def dir_at_own_trace(out):
    blocked = out / RUN_ID / "traces" / "roc_client0.csv"   # the parent's share
    blocked.mkdir(parents=True)
    open(blocked, "w")


@pytest.mark.parametrize("block, has_manifest",
                         [(file_above_out, False), (dir_at_own_trace, True)])
def test_write_error_in_this_process_exits_1_with_one_line(
        block, has_manifest, config, tmp_path, capsys, monkeypatch):
    out = tmp_path / "above" / "out"
    with pytest.raises(OSError) as refused:
        block(out)
    assert run_cli(config, out, 1, monkeypatch) == (EXIT_FAILURE, 0)
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    manifest = out / RUN_ID / "manifest.json"
    assert manifest.exists() == has_manifest
    if has_manifest:
        assert json.loads(manifest.read_text())["status"] == f"failed: {refused.value}"


def test_writer_that_dies_before_it_writes_is_repaired(config, tmp_path, monkeypatch):
    test_pid = os.getpid()
    write = fedsim.cli.write_roc_csv

    def dies_in_a_child(path, points):
        if os.getpid() != test_pid:
            os._exit(9)
        write(path, points)

    monkeypatch.setattr(fedsim.cli, "write_roc_csv", dies_in_a_child)
    out = tmp_path / "out"
    assert run_cli(config, out, 2, monkeypatch) == (EXIT_OK, 1)
    got = {rel: hashlib.sha256((out / RUN_ID / rel).read_bytes()).hexdigest()
           for rel in DIGESTS}
    assert got == DIGESTS
    manifest = json.loads((out / RUN_ID / "manifest.json").read_text())
    assert manifest["files"]["traces"] == [
        str(out / RUN_ID / "traces" / f"roc_client{c}.csv") for c in (0, 1)]
    with pytest.raises(ChildProcessError):   # every child was reaped
        os.waitpid(-1, os.WNOHANG)


PENDING_RUN = """
import os, sys
from fedsim.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
print("pending")   # still in the pipe's buffer when the writer forks
sys.exit(main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_run_prints_each_line_once(config, tmp_path):
    # stdout to a pipe is block-buffered: a child that flushed it on exit, or
    # went on past the writer, would print lines twice
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", PENDING_RUN, str(config), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "pending", "client 0", "client 1", "artifacts"]
    assert lines[-1] == f"artifacts: {out / RUN_ID}"

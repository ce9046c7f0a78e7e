"""The fedsim names the benchmark under bench/ reaches into, and its goldens.

bench/tracer.py wraps every (module, function or Class.method) in its TRACED
table, and bench/workloads.py swaps two module bindings to stamp when a run
starts and ends. A refactor that drops or moves one of those names would only
show as a crash of `bench/run.py --trace 1`; these tests make it fail here.
Each workload's golden experiment seed must also reproduce the digest, EER
and TAR that bench/reference.json records, which the benchmark checks too.
Nothing under bench/ is edited here.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import fedsim.cli
import fedsim.experiment
import fedsim.simulation

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")
workloads = load_bench_module("workloads")


def test_every_traced_name_resolves():
    missing = []
    for mod_name, qualname in tracer.TRACED:
        owner = importlib.import_module(f"fedsim.{mod_name}")
        if "." in qualname:
            # the tracer rebinds the class's own attribute, so it must live there
            cls_name, attr = qualname.split(".")
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append(f"{mod_name}.{qualname}")
    assert missing == []


def test_tracer_binds_every_name():
    t = tracer.Tracer()
    t.install()
    try:
        assert set(t.bindings) == {tracer.span_name(m, q) for m, q in tracer.TRACED}
        assert all(count >= 1 for count in t.bindings.values())
    finally:
        t.uninstall()


def test_stamped_bindings_are_the_ones_runs_call():
    assert fedsim.experiment.run_simulation is fedsim.simulation.run_simulation
    assert fedsim.cli.run_experiment is fedsim.experiment.run_experiment


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_golden_seed_matches_reference(name, tmp_path):
    # the benchmark's own golden check, so that a slip shows here first
    golden = json.loads((BENCH_DIR / "reference.json").read_text())["golden"][name]
    wl = workloads.WORKLOADS[name]
    run = workloads.run_once(wl, golden["exp_seed"], str(tmp_path))
    outputs = workloads.collect_outputs(wl, run, str(tmp_path))
    assert {k: outputs[k] for k in ("digest", "final_eer", "final_tar01")} == {
        k: golden[k] for k in ("digest", "final_eer", "final_tar01")}

"""The fedsim names the benchmark under bench/ reaches into.

bench/tracer.py wraps every (module, function or Class.method) in its TRACED
table, and bench/workloads.py swaps two module bindings to stamp when a run
starts and ends. A refactor that drops or moves one of those names would only
show as a crash of `bench/run.py --trace 1`; these tests make it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import fedsim.cli
import fedsim.experiment
import fedsim.simulation

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


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

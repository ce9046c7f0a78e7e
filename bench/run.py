"""fedsim benchmark: end-to-end metrics, a traced per-layer run, and self-tests.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload paper_full --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one table, seed 0
    python3 bench/run.py --selftest      # count cross-check + golden artifacts
    python3 bench/run.py --record        # rewrite goldens in reference.json

With ``--workload`` the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A detail line
with raw (unnormalized) times goes to stderr.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before numpy loads, here and in children

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Host-speed probe: a fixed numpy kernel timed between runs. Times are reported
# in reference-host seconds: raw * reference probe time / probe time measured
# around that run (mean of the probes just before and just after it).
PROBE_SHAPES = ((16, 32), (64, 32))
PROBE_ITERS = 20_000

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "rounds/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("final_eer", "fraction", "lower"),
    ("final_tar01", "fraction", "higher"),
)

# Spans reported with both .calls and .self_s, then spans reported by self_s only.
CALL_SPANS = (
    "nn.forward_batch", "nn.backward_batch", "nn.sgd_step",
    "losses.cross_entropy_batch", "losses.center_loss_grad", "losses.update_centers",
    "client.local_train_round", "client.local_loss_and_grads",
    "client.async_train_step", "client.async_loss_and_grads",
    "client.adopt_global", "client.extract_embeddings",
    "server.handle_upload", "server.run_aggregation",
    "aggregation.build_correlation_matrix", "aggregation.correlation_degree",
    "aggregation.personalized_aggregate", "aggregation.fedavg_aggregate",
    "metrics.score_pairs", "experiment.evaluate_client",
)
SELF_SPANS = (
    "client.build_client", "simulation.run_simulation", "server.load_probe_set",
    "metrics.eer", "metrics.tar_at_far", "synth.generate", "config.load_config",
)
COUNTERS = (
    ("simulation.events", "count", "lower"),
    ("simulation.async_steps", "count", "higher"),
    ("simulation.idle_ticks", "ticks", "lower"),
    ("simulation.async_tick_share", "fraction", "higher"),
    ("server.bytes_up", "B_computed", "lower"),
    ("server.bytes_down", "B_computed", "lower"),
    ("metrics.pairs_scored", "count", "lower"),
    ("metrics.impostor_subsampled", "count", "lower"),
    ("cli.artifacts_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_rounds_per_s", "rounds/s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def per_layer_spec():
    from tracer import LAYERS
    spec = []
    for name in CALL_SPANS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{name}.self_s", "s", "lower") for name in SELF_SPANS]
    spec += list(COUNTERS)
    spec += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    return spec


# -- environment --------------------------------------------------------------

def import_fedsim():
    """Import fedsim from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "fedsim", "__init__.py")):
        sys.exit("bench: src/fedsim not found; run from the root of a fedsim checkout")
    sys.path.insert(0, SRC)
    import fedsim
    if not os.path.abspath(fedsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported fedsim from {fedsim.__file__}, not from {SRC}")


def machine_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


_probe_arrays = None


def probe_seconds():
    global _probe_arrays
    import numpy as np
    if _probe_arrays is None:
        rng = np.random.default_rng(0)
        _probe_arrays = tuple(rng.standard_normal(s) for s in PROBE_SHAPES)
    a, w = _probe_arrays
    start = time.perf_counter()
    for _ in range(PROBE_ITERS):
        np.tanh(a @ w.T)
    return time.perf_counter() - start


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; None without values."""
    if not values:
        return None
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


# -- one benchmark run ----------------------------------------------------------

class Session:
    """Runs of one workload in one invocation, with their failures counted."""

    def __init__(self, wl, work_dir):
        self.wl = wl
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = {}           # experiment seed -> outputs of its first run

    def run(self, exp_seed, tracer=None):
        """One run; returns its timings and outputs, or None if it failed."""
        from workloads import collect_outputs, run_once
        self.attempted += 1
        rep_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            try:
                if tracer is not None:
                    tracer.reset()
                    tracer.install()
                timing = run_once(self.wl, exp_seed, rep_dir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            outputs = collect_outputs(self.wl, timing, rep_dir)
            del timing["result"]            # keep no run state across runs
            self.check_repeat(exp_seed, outputs)
            return {**timing, **outputs}
        except Exception as exc:   # a failed run is counted and reported, not fatal
            self.fail(f"seed {exp_seed}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def check_repeat(self, exp_seed, outputs):
        first = self.outputs.setdefault(exp_seed, outputs)
        if first["digest"] != outputs["digest"]:
            raise AssertionError(f"artifacts differ from the first run of seed {exp_seed}")

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)
        print(f"bench: FAILED run of {self.wl.name}: {message}", file=sys.stderr)


def peak_rss_child(session, exp_seed):
    """Peak RSS (MiB) of a fresh process that runs experiment seed ``exp_seed`` once."""
    session.attempted += 1
    cmd = [sys.executable, os.path.abspath(__file__), "--rss-child",
           "--workload", session.wl.name, "--seed", str(exp_seed)]
    # A fixed glibc mmap threshold (its default initial value) stops the
    # threshold from adapting to earlier frees, so large arrays are always
    # returned on free and the peak reflects live data, not allocation history.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        session.check_repeat(exp_seed, child["outputs"])
        return child["maxrss_kb"] / 1024.0
    except (OSError, ValueError, RuntimeError, AssertionError,
            subprocess.TimeoutExpired) as exc:
        session.fail(f"peak-RSS child: {exc!r}")
        return None


def rss_child_main(wl, exp_seed):
    import_fedsim()
    from workloads import collect_outputs, run_once
    os.makedirs(SCRATCH, exist_ok=True)
    rep_dir = tempfile.mkdtemp(prefix="rss-", dir=SCRATCH)
    try:
        outputs = collect_outputs(wl, run_once(wl, exp_seed, rep_dir), rep_dir)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB on Linux
    print(json.dumps({"maxrss_kb": maxrss, "outputs": outputs}))
    return 0


def measure(wl, seed, seconds, trace):
    """Run one workload for ``seconds``; return (session, metrics, detail)."""
    from tracer import Tracer
    reference = load_reference()
    ref_probe = reference["probe"]["reference_s"]
    golden = reference["golden"][wl.name]
    seeds = wl.exp_seeds(seed)
    os.makedirs(SCRATCH, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH)
    session = Session(wl, work_dir)
    tracer = Tracer() if trace else None
    try:
        # The golden experiment seed runs first, whatever --seed is: in the
        # peak-RSS child, then once here to warm up, untimed.
        rss_mb = None if trace else peak_rss_child(session, golden["exp_seed"])
        start = time.perf_counter()
        session.run(golden["exp_seed"])
        probes = [probe_seconds()]
        reps = []
        i = 0
        # Every experiment seed runs at least once. Trace mode runs each seed
        # twice, traced then untraced, so that the tracing overhead compares
        # runs of the same inputs.
        min_runs = 2 if trace else len(seeds)
        while (i < min_runs or (trace and i % 2)
               or time.perf_counter() - start < seconds):
            traced = trace and i % 2 == 0
            exp_seed = seeds[(i // 2 if trace else i) % len(seeds)]
            rep = session.run(exp_seed, tracer if traced else None)
            if rep is not None and traced:
                rep["spans"] = tracer.summary()
                rep["counters"] = dict(tracer.counters)
            probes.append(probe_seconds())
            if rep is not None:
                rep["traced"] = traced
                rep["factor"] = ref_probe / (0.5 * (probes[-2] + probes[-1]))
                reps.append(rep)
            i += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    rate = [r["rounds"] / (r["wall"] * r["factor"]) for r in untraced]
    rate_raw = [r["rounds"] / r["wall"] for r in untraced]
    setup = [r["setup"] * r["factor"] for r in untraced]
    setup_raw = [r["setup"] for r in untraced]
    detail = {
        "workload": wl.name, "seed": seed, "exp_seeds": seeds,
        "runs_timed": len(untraced), "failed_frac": session.failed / session.attempted,
        "errors": session.errors,
        "rounds_per_s": {"q1_median_q3": quartiles(rate),
                         "raw_q1_median_q3": quartiles(rate_raw), "n": len(rate)},
        "setup_s": {"q1_median_q3": quartiles(setup),
                    "raw_q1_median_q3": quartiles(setup_raw)},
        "probe_s": {"reference": ref_probe, "min": min(probes), "max": max(probes),
                    "median": statistics.median(probes)},
        "golden": check_golden(session, golden),
    }
    if trace:
        metrics = layer_metrics(wl, reps, rate)
        detail["count_mismatches"] = count_mismatches(wl, metrics)
        for line in detail["count_mismatches"]:
            print(f"bench: count cross-check: {line}", file=sys.stderr)
        return session, metrics, detail

    def quality(key):
        if not all(s in session.outputs for s in seeds):
            return None
        return statistics.fmean(session.outputs[s][key] for s in seeds)

    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "rounds_per_s": statistics.median(rate) if rate else None,
        "peak_rss_mb": rss_mb,
        "final_eer": quality("final_eer"),
        "final_tar01": quality("final_tar01"),
    }
    return session, metrics, detail


def layer_metrics(wl, reps, untraced_rate):
    from tracer import LAYERS, layer_totals
    traced = [r for r in reps if r["traced"]]
    if not traced:
        return {name: None for name, _, _ in per_layer_spec()}
    first = traced[0]

    def self_s(name):
        return statistics.median(r["spans"].get(name, (0, 0.0))[1] * r["factor"]
                                 for r in traced)

    out = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = first["spans"].get(name, (0, 0.0))[0]
        out[f"{name}.self_s"] = self_s(name)
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = self_s(name)
    async_ticks = (first["simulation.async_steps"]
                   * wl.experiment_config(0).async_step_duration)
    wait_ticks = async_ticks + first["simulation.idle_ticks"]
    traced_rate = [r["rounds"] / (r["wall"] * r["factor"]) for r in traced]
    overhead = (statistics.median(untraced_rate) - statistics.median(traced_rate)
                if untraced_rate else None)
    out.update({
        "simulation.events": first["simulation.events"],
        "simulation.async_steps": first["simulation.async_steps"],
        "simulation.idle_ticks": first["simulation.idle_ticks"],
        "simulation.async_tick_share": async_ticks / wait_ticks if wait_ticks else 0.0,
        **first["counters"],
        "cli.artifacts_s": statistics.median(r["artifacts"] * r["factor"] for r in traced),
        "cli.bytes_written": first["cli.bytes_written"],
        "trace.overhead_rounds_per_s": overhead,
        "trace.overhead_frac": (overhead / statistics.median(untraced_rate)
                                if untraced_rate else None),
    })
    totals = [layer_totals(r["spans"]) for r in traced]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = statistics.median(
            t[layer] * r["factor"] for t, r in zip(totals, traced))
    return out


def count_mismatches(wl, metrics):
    return [f"{key}: traced {metrics[key]}, derived {want}"
            for key, want in wl.expected_counts().items()
            if key in metrics and metrics[key] != want]


def check_golden(session, golden):
    """Compare the golden seed's outputs with reference.json; a change is a failure."""
    got = session.outputs.get(golden["exp_seed"])
    if got is None:
        return "not checked (its runs failed)"
    changed = [k for k in ("digest", "final_eer", "final_tar01") if got[k] != golden[k]]
    if changed:
        session.fail(f"experiment seed {golden['exp_seed']}: {', '.join(changed)} "
                     f"changed from the golden in reference.json (re-record with "
                     f"--record if the change is intended)")
        return "CHANGED"
    return "match"


def result_line(session, metrics, trace):
    spec = per_layer_spec() if trace else END_TO_END
    correct = session.failed == 0 and all(metrics[n] is not None for n, _, _ in spec)
    return {"correct": correct, "attempted": session.attempted, "failed": session.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in spec}}


# -- modes ----------------------------------------------------------------------

def workload_main(args):
    """One workload: the result line on stdout, the detail line on stderr."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    session, metrics, detail = measure(wl, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(detail), file=sys.stderr)
    line = result_line(session, metrics, args.trace == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def summary_main(args):
    """All workloads, one table of the end-to-end metrics; fails on any failed run."""
    from workloads import WORKLOADS
    failed = False
    rows = []
    for wl in WORKLOADS.values():
        session, metrics, detail = measure(wl, args.seed, args.seconds, False)
        failed |= not result_line(session, metrics, False)["correct"]
        for name, unit, _ in END_TO_END:
            rows.append((wl.name, name, metrics[name], unit))
        rows.append((wl.name, "failed_frac", detail["failed_frac"],
                     f"of {session.attempted} runs"))
        rows.append((wl.name, "golden", detail["golden"], ""))
    print(f"{'workload':<18}{'metric':<14}{'value':>14}  unit")
    for wl_name, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"{wl_name:<18}{name:<14}{shown:>14}  {unit}")
    if failed:
        print("bench: FAILED: some runs raised or produced different artifacts",
              file=sys.stderr)
    return 1 if failed else 0


def selftest_main():
    """Traced counts vs derived counts, golden artifacts, metric names."""
    from tracer import Tracer, layer_totals
    from workloads import WORKLOADS
    reference = load_reference()
    failures = 0

    def report(ok, text):
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")

    with open(BENCHMARK_JSON) as fh:
        declared = json.load(fh)
    report([(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
           == [tuple(m) for m in END_TO_END], "BENCHMARK.json end_to_end matches run.py")
    report([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
           == per_layer_spec(), "BENCHMARK.json per_layer matches run.py")
    report([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")

    os.makedirs(SCRATCH, exist_ok=True)
    tracer = Tracer()
    for wl in WORKLOADS.values():
        work_dir = tempfile.mkdtemp(prefix=f"selftest-{wl.name}-", dir=SCRATCH)
        try:
            session = Session(wl, work_dir)
            rep = session.run(wl.exp_seeds(0)[0], tracer)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        report(rep is not None, f"{wl.name}: traced run completed")
        if rep is None:
            continue
        spans = tracer.summary()
        traced = {f"{name}.calls": calls for name, (calls, _) in spans.items()}
        traced.update(tracer.counters)
        traced.update({k: rep[k] for k in ("rounds", "simulation.events",
                                            "simulation.async_steps",
                                            "simulation.idle_ticks")})
        for key, want in wl.expected_counts().items():
            got = traced.get(key, 0)
            report(got == want, f"{wl.name}: {key} traced {got} == derived {want}")
        golden = reference["golden"][wl.name]
        for key in ("digest", "final_eer", "final_tar01"):
            report(rep[key] == golden[key],
                   f"{wl.name}: {key} of experiment seed 0 equals the recorded golden")
        layer = layer_totals(spans)
        total = sum(layer.values())
        shares = ", ".join(f"{m} {layer[m] / total:.0%}"
                           for m in sorted(layer, key=layer.get, reverse=True)
                           if layer[m] / total >= 0.005)
        print(f"       {wl.name} layer self-time shares: {shares}")
    found = tracer.bindings.get("nn.forward_batch", 0)
    report(found >= 3, f"tracer wraps nn.forward_batch at every binding ({found} found)")
    print(f"{'all checks passed' if failures == 0 else f'{failures} checks FAILED'}")
    return 0 if failures == 0 else 1


def record_main():
    """Rewrite reference.json: machine info and per-workload goldens.

    The reference probe time is kept once recorded, so that reference-host
    seconds stay comparable across commits.
    """
    from workloads import WORKLOADS
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    if "probe" not in reference:
        samples = sorted(probe_seconds() for _ in range(21))
        reference["probe"] = {
            "kernel": f"np.tanh(a @ w.T), a {PROBE_SHAPES[0]}, w {PROBE_SHAPES[1]}, "
                      f"{PROBE_ITERS} times",
            "reference_s": statistics.median(samples)}
    reference["machine"] = machine_info()
    reference["golden"] = {}
    os.makedirs(SCRATCH, exist_ok=True)
    for wl in WORKLOADS.values():
        work_dir = tempfile.mkdtemp(prefix=f"record-{wl.name}-", dir=SCRATCH)
        try:
            session = Session(wl, work_dir)
            exp_seed = wl.exp_seeds(0)[0]
            rep = session.run(exp_seed)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if rep is None:
            return 1
        reference["golden"][wl.name] = {
            "exp_seed": exp_seed,
            **{k: rep[k] for k in ("digest", "final_eer", "final_tar01")}}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_fedsim()
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    if args.rss_child:
        return rss_child_main(WORKLOADS[args.workload], args.seed)
    if args.seconds is None:
        with open(BENCHMARK_JSON) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.selftest:
        return selftest_main()
    if args.record:
        return record_main()
    if args.workload is not None:
        return workload_main(args)
    return summary_main(args)


if __name__ == "__main__":
    sys.exit(main())

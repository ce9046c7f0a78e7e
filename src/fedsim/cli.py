"""Command-line experiment driver.

Verbs:
  run    -- execute one experiment from a config file
  sweep  -- run a grid of config overrides and collect a summary table
  verify -- run the cross-module invariant checks

Exit codes: 0 success, 1 invariant/acceptance failure, 2 config error,
3 training divergence.
"""

import argparse
import csv
import itertools
import os
import sys

import numpy as np

from . import __version__, losses
from .config import (build_experiment_config, load_config, run_id,
                     values_as_dict, write_manifest_atomic)
from .convergence import make_problem, run_fedavg_convergence, verify_simplex
from .errors import ConfigError, DivergenceError, FedSimError
from .experiment import run_experiment, write_roc_csv
from .metrics import ScoreSet, eer, operating_points, tar_at_far, write_metrics_csv

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _describe(exc: BaseException) -> str:
    """Failure text for stderr and the manifest; a divergence names where it happened."""
    if not isinstance(exc, DivergenceError):
        return str(exc)
    batch = "" if exc.batch_index is None else f", batch {exc.batch_index}"
    return (f"{exc} (client {exc.client_id}, round {exc.round_index}, "
            f"phase {exc.phase}{batch})")


def _execute_run(values, canonical, out_root):
    cfg = build_experiment_config(values)
    rid = run_id(values, canonical)
    run_dir = os.path.join(out_root, rid)
    os.makedirs(run_dir, exist_ok=True)

    manifest = {
        "run_id": rid,
        "version": __version__,
        "config": values_as_dict(values),
        "status": "running",
        "files": {},
        "final_metrics": [],
    }
    manifest_path = os.path.join(run_dir, "manifest.json")
    write_manifest_atomic(manifest_path, manifest)
    try:
        result = run_experiment(cfg)
        metrics_path = os.path.join(run_dir, "metrics.csv")
        write_metrics_csv(metrics_path, result.metrics)
        timeline_path = os.path.join(run_dir, "timeline.log")
        result.timeline.export(timeline_path)
        manifest["files"] = {"metrics": metrics_path, "timeline": timeline_path,
                             "traces": []}
        os.makedirs(os.path.join(run_dir, "traces"), exist_ok=True)
        for client_id in sorted(result.final_points):
            roc_path = os.path.join(run_dir, "traces", f"roc_client{client_id}.csv")
            write_roc_csv(roc_path, result.final_points[client_id])
            manifest["files"]["traces"].append(roc_path)
        manifest["final_metrics"] = [vars(rec) for rec in result.final_metrics()]
        manifest["status"] = "ok"
        write_manifest_atomic(manifest_path, manifest)
        return result, run_dir
    except BaseException as exc:
        manifest["status"] = f"failed: {_describe(exc)}"
        write_manifest_atomic(manifest_path, manifest)
        raise


def cmd_run(args) -> int:
    values, canonical = load_config(args.config, args.set)
    out_root = args.out or values[("experiment", "out")]
    result, run_dir = _execute_run(values, canonical, out_root)
    for rec in result.final_metrics():
        print(f"client {rec.client_id}: eer={rec.eer:.4f} "
              f"tar@far0.01={rec.tar_at_far01:.4f}")
    print(f"artifacts: {run_dir}")
    return EXIT_OK


def _parse_grid(items):
    axes = []
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"grid axis {item!r} is not section.key=v1|v2")
        path, raw = item.split("=", 1)
        axes.append((path, raw.split("|")))
    return axes


def cmd_sweep(args) -> int:
    """Check every grid point's config, then run each; a diverged point gets
    one `failed: ` row and the sweep goes on to the next, then exits 3."""
    base_values, _ = load_config(args.config, args.set)
    out_root = args.out or base_values[("experiment", "out")]
    axes = _parse_grid(args.grid)
    points = []
    for combo in itertools.product(*(choices for _, choices in axes)) if axes else ():
        overrides = [f"{p}={v}" for (p, _), v in zip(axes, combo)]
        try:
            values, canonical = load_config(args.config, (args.set or []) + overrides)
            build_experiment_config(values)
        except ConfigError as exc:
            raise ConfigError(f"grid point {' '.join(overrides)}: {exc}") from exc
        points.append((combo, values, canonical))
    os.makedirs(out_root, exist_ok=True)
    summary_path = os.path.join(out_root, "summary.csv")
    axis_names = [path for path, _ in axes]
    failed = 0
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(axis_names + ["run_id", "client_id", "eer", "tar_at_far01",
                                      "status"])
        for combo, values, canonical in points:
            rid = run_id(values, canonical)
            try:
                result, _ = _execute_run(values, canonical, out_root)
            except DivergenceError as exc:
                failed += 1
                print(f"divergence: {_describe(exc)}", file=sys.stderr)
                writer.writerow(list(combo) + [rid, "", "", "",
                                               f"failed: {_describe(exc)}"])
                continue
            for rec in result.final_metrics():
                writer.writerow(list(combo) + [rid, rec.client_id, repr(rec.eer),
                                               repr(rec.tar_at_far01), "ok"])
    print(f"summary: {summary_path}")
    return EXIT_DIVERGENCE if failed else EXIT_OK


def cmd_verify(args) -> int:
    """Fast cross-module invariant suite; prints one line per check."""
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures += 1

    violations, worst = verify_simplex(10_000, seed=args.seed)
    report("aggregation weight simplex (10k samples)", violations == 0,
           f"worst deviation {worst:.3e}")

    f_p = np.array([[3.0, 4.0], [1.0, 0.0], [1.0, 0.0]])
    f_g = np.array([[3.0, 4.0], [0.0, 1.0], [-1.0, 0.0]])
    alignment = [losses.fv_cos_batch(f_p[i:i + 1], f_g[i:i + 1])[0] for i in range(3)]
    report("cosine alignment loss algebra", alignment == [0.0, 1.0, 2.0])

    rng = np.random.default_rng(args.seed)
    ok = True
    for _ in range(10):
        scores = ScoreSet(rng.normal(0.6, 0.2, 200), rng.normal(0.3, 0.2, 300))
        shifted = ScoreSet(2 * scores.genuine + 1, 2 * scores.impostor + 1)
        (e, t), shifted_rates = [(eer(p), tar_at_far(p, 0.01))
                                 for p in map(operating_points, (scores, shifted))]
        ok = ok and 0.0 <= e <= 1.0 and 0.0 <= t <= 1.0 and shifted_rates == (e, t)
    report("verification metrics range + monotone-transform invariance", ok)

    problem = make_problem(4, 5, seed=args.seed)
    trace = run_fedavg_convergence(problem, rounds=60, local_steps=1,
                                   lr_scale=1.0 / problem.strong_convexity,
                                   lr_offset=2.0 * problem.condition_number,
                                   noise=0.0, seed=args.seed)
    report("noise-free federated descent decreases the optimality gap",
           bool(np.all(np.diff(trace.mean_gap) <= 1e-12)))

    print(f"{4 - failures}/4 checks passed")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Personalized asynchronous federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--mode", default=None)
    run_p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a grid of experiments")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--grid", action="append",
                         metavar="SECTION.KEY=V1|V2", help="grid axis")
    sweep_p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run module invariant checks")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.command == "run":
        args.set = (args.set or []) + [f"experiment.seed={args.seed}"]
    if getattr(args, "mode", None) is not None:
        args.set = (args.set or []) + [f"experiment.mode={args.mode}"]
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {_describe(exc)}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except FedSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

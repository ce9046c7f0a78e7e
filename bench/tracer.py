"""Binding-aware span tracer for fedsim, installed from outside the package.

fedsim modules import their collaborators with ``from .x import f``, so a
function has one binding per importing module (``fedsim.client.forward_batch``,
``fedsim.aggregation.forward_batch``, ...). Replacing only the defining
module's attribute would miss every call made through the other bindings.
``Tracer.install`` therefore rebinds the wrapper everywhere the original
function object is bound inside ``fedsim``, and ``uninstall`` restores each
binding it replaced.

Spans are kept in memory as ``(name, start, end, parent)`` tuples; self time
is a span's duration minus the time covered by its direct child spans.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (defining module, function or Class.method). Span and metric names drop the
# class: ``client.local_train_round`` is ``ClientState.local_train_round``.
TRACED = (
    ("nn", "forward_batch"), ("nn", "backward_batch"), ("nn", "sgd_step"),
    ("losses", "cross_entropy_batch"), ("losses", "center_loss_grad"),
    ("losses", "update_centers"),
    ("client", "ClientState.local_train_round"), ("client", "local_loss_and_grads"),
    ("client", "ClientState.async_train_step"), ("client", "async_loss_and_grads"),
    ("client", "ClientState.adopt_global"), ("client", "ClientState.extract_embeddings"),
    ("client", "build_client"),
    ("simulation", "run_simulation"), ("simulation", "TimelineLog.export"),
    ("server", "handle_upload"), ("server", "run_aggregation"),
    ("server", "load_probe_set"),
    ("aggregation", "build_correlation_matrix"), ("aggregation", "correlation_degree"),
    ("aggregation", "personalized_aggregate"), ("aggregation", "fedavg_aggregate"),
    ("metrics", "score_pairs"), ("metrics", "eer"), ("metrics", "tar_at_far"),
    ("metrics", "write_metrics_csv"),
    ("experiment", "run_experiment"), ("experiment", "evaluate_client"),
    ("experiment", "client_score_set"), ("experiment", "write_roc_csv"),
    ("synth", "generate"),
    ("config", "load_config"), ("config", "build_experiment_config"),
    ("config", "write_manifest_atomic"),
    ("cli", "main"), ("cli", "_execute_run"),
)

LAYERS = ("nn", "losses", "client", "simulation", "server", "aggregation",
          "metrics", "experiment", "synth", "cli", "config")


def span_name(module, qualname):
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def layer_totals(summary):
    """Summed self time per layer from a ``Tracer.summary()`` mapping."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s) in summary.items():
        totals[name.split(".")[0]] += self_s
    return totals


def _impostor_pairs(labels):
    counts = np.bincount(np.asarray(labels))
    n = int(counts.sum())
    return n * (n - 1) // 2 - int((counts * (counts - 1) // 2).sum())


class Tracer:
    """Collects spans and payload counters while installed."""

    def __init__(self):
        self._installed = []          # (owner, attribute, previous value)
        self.bindings = {}            # span name -> number of bindings wrapped
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self):
        # cleared in place: installed wrappers hold these lists
        self.spans.clear()
        self._stack.clear()
        self.counters = {"server.bytes_up": 0, "server.bytes_down": 0,
                         "metrics.pairs_scored": 0,
                         "metrics.impostor_subsampled": 0}

    # -- installation -----------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        from fedsim.metrics import IMPOSTOR_PAIR_CAP
        self._cap = IMPOSTOR_PAIR_CAP
        for mod_name in LAYERS:
            importlib.import_module(f"fedsim.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fedsim" or name.startswith("fedsim."))]
        for mod_name, qualname in TRACED:
            name = span_name(mod_name, qualname)
            owner = sys.modules[f"fedsim.{mod_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, attr, self._wrap(name, cls.__dict__[attr]))
                self.bindings[name] = 1
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
                        count += 1
            self.bindings[name] = count

    def uninstall(self):
        while self._installed:
            owner, attr, previous = self._installed.pop()
            setattr(owner, attr, previous)

    def _rebind(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    # Payload counters, read from the arguments and results of traced calls.

    def _observe_server_handle_upload(self, args, kwargs, result):
        msg = args[1] if len(args) > 1 else kwargs["msg"]
        self.counters["server.bytes_up"] += np.asarray(msg.params).nbytes

    def _observe_server_run_aggregation(self, args, kwargs, result):
        self.counters["server.bytes_down"] += sum(np.asarray(d.params).nbytes
                                                  for d in result)

    def _observe_metrics_score_pairs(self, args, kwargs, result):
        labels = args[1] if len(args) > 1 else kwargs["labels"]
        cap = args[2] if len(args) > 2 else kwargs.get("cap", self._cap)
        self.counters["metrics.pairs_scored"] += (result.genuine.size
                                                  + result.impostor.size)
        if _impostor_pairs(labels) > cap:
            self.counters["metrics.impostor_subsampled"] += 1

    # -- summaries --------------------------------------------------------

    def summary(self):
        """Per span name: call count and summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

"""Span tracing of holoseis layers, installed from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper at every
module that binds it (``from .greens import assemble_green`` also binds the
name in ``holography`` and ``inversion``), and patches ``GreensOperator``
methods on the class.  Each call records a span (name, start, end, parent)
and, where a layer has one, a work count.  Spans and counts stay in memory
until the run ends.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap, because the benchmark runs the
CLI with one worker thread.  Over the tree below a root span the self times
therefore sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

# (module, attribute) of every traced function; "Class.method" patches a class
TRACED = (
    ("specfun", "hankel_h1_array"),
    ("greens", "assemble_green"),
    ("greens", "update_green"),
    ("greens", "GreensOperator.rows"),
    ("greens", "GreensOperator.mul_kernel_hermitian"),
    ("medium", "recast"),
    ("medium", "helmholtz_delta"),
    ("stochastic", "sample_wavefields"),
    ("stochastic", "forward_covariance"),
    ("stochastic", "empirical_corr"),
    ("holography", "build_model"),
    ("holography", "lindsey_braun_pair"),
    ("holography", "apply_derivative"),
    ("holography", "apply_adjoint"),
    ("holography", "weighted_residual"),
    ("holography", "backprop_realizations"),
    ("inversion", "run_irgnm"),
    ("inversion", "irgnm_step"),
    ("inversion", "cg_normal_solve"),
    ("inversion", "power_iteration"),
    ("inversion", "lavrentiev_weight"),
    ("io", "write_realizations"),
    ("io", "read_realizations"),
    ("cli", "cmd_synth"),
    ("cli", "cmd_hologram"),
    ("cli", "cmd_invert"),
)
ROOTS = ("cli.cmd_synth", "cli.cmd_hologram", "cli.cmd_invert")


# Work counters: (counts, bound arguments, result) -> None.  They run after
# the span has closed, so their cost lands in the caller's self time.
def _count_points(counts, args, result):
    counts["points"] += int(np.size(args["z"]))


def _count_assembly(counts, args, result):
    grid = args["grid"]
    counts["bytes"] += 16 * grid.n_nodes**2
    dim = args.get("dim") or grid.dim
    counts.setdefault("kernels", set()).add((grid.content_hash(), complex(args["k"]), dim))


def _count_support(counts, args, result):
    counts.setdefault("support", []).append(int(np.count_nonzero(args["delta"].dv)))


def _count_sampled(counts, args, result):
    counts["realizations"] += int(args["n_realizations"])


def _count_backprop(counts, args, result):
    counts["realizations"] += int(args["realizations"].fields.shape[0])


def _count_cg(counts, args, result):
    counts["iterations"] += int(result.iterations)
    counts["converged"] += int(bool(result.converged))


def _count_written(counts, args, result):
    counts["bytes"] += int(np.asarray(args["fields"]).nbytes)


def _count_read(counts, args, result):
    counts["bytes"] += int(result.fields.nbytes)


COUNTERS: Dict[str, Callable] = {
    "specfun.hankel_h1_array": _count_points,
    "greens.assemble_green": _count_assembly,
    "greens.update_green": _count_support,
    "stochastic.sample_wavefields": _count_sampled,
    "holography.backprop_realizations": _count_backprop,
    "inversion.cg_normal_solve": _count_cg,
    "io.write_realizations": _count_written,
    "io.read_realizations": _count_read,
}


class Tracer:
    """In-memory span recorder with wrappers for the traced holoseis layers."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[tuple] = []

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer.counts[name], bound.arguments, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every traced function at each holoseis module that binds it."""
        if self._restore:
            return self  # already installed
        for module_name, attr in TRACED:
            module = importlib.import_module(f"holoseis.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key != "holoseis" and not mod_key.startswith("holoseis."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction -------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its direct children's durations."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics: calls and self time per traced function, plus work counts."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        out: Dict[str, float] = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        counts = self.counts
        out["specfun.hankel_h1_array.points"] = counts["specfun.hankel_h1_array"]["points"]
        assembly = counts["greens.assemble_green"]
        n_assembled = calls["greens.assemble_green"]
        out["greens.assemble_green.bytes"] = assembly["bytes"]
        out["greens.assemble_green.distinct_share"] = (
            len(assembly.get("kernels", ())) / n_assembled if n_assembled else 0.0
        )
        support = counts["greens.update_green"].get("support", [])
        out["greens.update_green.support_nodes"] = statistics.fmean(support) if support else 0.0
        out["stochastic.sample_wavefields.realizations"] = counts["stochastic.sample_wavefields"]["realizations"]
        out["holography.backprop_realizations.realizations"] = counts["holography.backprop_realizations"][
            "realizations"
        ]
        cg = counts["inversion.cg_normal_solve"]
        n_cg = calls["inversion.cg_normal_solve"]
        out["inversion.cg_normal_solve.iterations"] = cg["iterations"]
        out["inversion.cg_normal_solve.converged_share"] = cg["converged"] / n_cg if n_cg else 0.0
        out["inversion.outer_iters"] = calls["inversion.irgnm_step"]
        out["io.write_realizations.bytes"] = counts["io.write_realizations"]["bytes"]
        out["io.read_realizations.bytes"] = counts["io.read_realizations"]["bytes"]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for index, ((name, start, end, parent), own) in enumerate(zip(self.spans, self.self_times())):
                record = {
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "self": own,
                }
                f.write(json.dumps(record) + "\n")


def metric_units() -> Dict[str, str]:
    """Unit of every per-layer metric name that Tracer.metrics reports."""
    units = {}
    for key in Tracer().metrics():
        if key.endswith(".self_s"):
            units[key] = "s"
        elif key.endswith(".bytes"):
            units[key] = "bytes"
        elif key.endswith("_share"):
            units[key] = "1"
        else:
            units[key] = "count"
    return units

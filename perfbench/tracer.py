"""In-memory span tracer that wraps metricgraph's public functions from outside.

install() replaces each traced function object in every ``metricgraph.*``
module that holds it (``harness`` and ``cli`` import names directly, and
``gh_bounds`` imports from ``persistence``, ``reeb_smoothing`` and
``gromov_tree`` at call time, so every reference has to be swapped). It also
wraps ``MetricGraph.__init__``, the ``Correspondence.distortion`` property and
the callbacks of the ``mgraph`` commands. uninstall() puts the originals back.

Each wrapped call records one span: (name, parent span, start, end). The
program runs in one thread, so the children of a span never overlap and a
span's self time is its duration minus its direct children's durations.
``total_s`` sums only the outermost span of each name, so a function that
re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# module -> traced public functions, in reporting order
FUNCTIONS = {
    "metric_graph": ["MetricGraph", "distance", "shortest_path", "finite_metric",
                     "diameter", "epsilon_net", "monotone_decomposition",
                     "f_variation"],
    "persistence": ["persistence_sequence", "minimal_cycle_basis",
                    "vr_h1_barcode", "bottleneck_distance"],
    "reeb_smoothing": ["epsilon_smoothing", "betti_after_smoothing",
                       "quotient_correspondence"],
    "gromov_tree": ["build_merge_tree", "bottleneck_m", "t_p", "gromov_product",
                    "tree_distortion"],
    "gh_bounds": ["hyperbolicity", "hyp_graph", "Correspondence.distortion",
                  "r_extension", "brute_force_dgh", "dgh_lower", "dgh_bounds",
                  "delta_n_bounds"],
    "harness": ["verify"],
}
COMMANDS = ["info", "seq", "smooth", "tree", "delta", "barcode", "hyp", "gh"]
SPAN_NAMES = ([f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
              + [f"cli.{c}" for c in COMMANDS])
SPAN_STATS = ("calls", "total_s", "self_s")


def _vr_counts(args, kwargs, result, originals):
    n = len(args[0])
    return {"points": n, "triangles": math.comb(n, 3), "bars": len(result.bars)}


def _hyp_counts(args, kwargs, result, originals):
    n = len(args[0])
    pairs = n * (n - 1) // 2
    return {"points": n, "quadruple_pairs": pairs * (pairs - 1) // 2 if n >= 4 else 0}


def _distortion_counts(args, kwargs, result, originals):
    k = len(args[0].pairs)
    return {"matrix_entries": k * k}


def _finite_metric_counts(args, kwargs, result, originals):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": len(points)}


def _tree_distortion_counts(args, kwargs, result, originals):
    # the net tree_distortion builds internally, rebuilt from its inputs by
    # the untraced epsilon_net so that no span is recorded for it
    mesh = args[2] if len(args) > 2 else kwargs["mesh"]
    return {"points": len(originals["metric_graph.epsilon_net"](args[0], mesh))}


# work counts computed from each call's input sizes (bars: output size)
COUNTERS: Dict[str, Callable] = {
    "persistence.vr_h1_barcode": _vr_counts,
    "gh_bounds.hyperbolicity": _hyp_counts,
    "gh_bounds.Correspondence.distortion": _distortion_counts,
    "metric_graph.finite_metric": _finite_metric_counts,
    "gromov_tree.tree_distortion": _tree_distortion_counts,
}
COUNT_NAMES = [f"{name}.{stat}" for name, stats in (
    ("persistence.vr_h1_barcode", ("points", "triangles", "bars")),
    ("gh_bounds.hyperbolicity", ("points", "quadruple_pairs")),
    ("gh_bounds.Correspondence.distortion", ("matrix_entries",)),
    ("metric_graph.finite_metric", ("points",)),
    ("gromov_tree.tree_distortion", ("points",)),
) for stat in stats]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.depth: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        # certificate lists from _dgh_lower_certificates and delta_n_bounds
        # reports, in call order
        self.lower_certs: List[list] = []
        self.delta_reports: List[object] = []
        self.originals: Dict[str, Callable] = {}
        self._restore: List[tuple] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        self.depth.append(0)
        self.originals[name] = fn
        spans, stack, depth = self.spans, self.stack, self.depth
        counts, originals = self.counts, self.originals
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outer = depth[idx] == 0
            depth[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[idx] -= 1
                stack.pop()
                spans[sid] = (idx, parent, t0, t1, outer)
            if counter is not None:
                for stat, v in counter(args, kwargs, result, originals).items():
                    counts[f"{name}.{stat}"] += v
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from metricgraph import cli, gh_bounds

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "metricgraph"
                                         or key.startswith("metricgraph."))]
        for mod_name, fns in FUNCTIONS.items():
            home = importlib.import_module(f"metricgraph.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if fn_name == "MetricGraph":
                    cls = home.MetricGraph
                    self._set(cls, "__init__", self._wrap(cls.__init__, name))
                elif fn_name == "Correspondence.distortion":
                    prop = home.Correspondence.__dict__["distortion"]
                    self._set(home.Correspondence, "distortion",
                              property(self._wrap(prop.fget, name)))
                else:
                    orig = getattr(home, fn_name)
                    wrapped = self._wrap(orig, name)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, attr, wrapped)
        for command in COMMANDS:
            cmd = cli.main.commands[command]
            self._set(cmd, "callback", self._wrap(cmd.callback, f"cli.{command}"))

        # certificate outcomes: dgh_lower returns only the winning value, so
        # the list is read where it is built; delta_n_bounds returns a report
        lower = gh_bounds._dgh_lower_certificates

        @functools.wraps(lower)
        def observe_lower(*args, **kwargs):
            certs = lower(*args, **kwargs)
            self.lower_certs.append(list(certs))
            return certs

        self._set(gh_bounds, "_dgh_lower_certificates", observe_lower)
        delta = gh_bounds.delta_n_bounds  # already the traced wrapper

        @functools.wraps(delta)
        def observe_delta(*args, **kwargs):
            report = delta(*args, **kwargs)
            self.delta_reports.append(report)
            return report

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is delta:
                    self._set(mod, attr, observe_delta)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset_stack(self) -> None:
        """Forget open spans after an operation was abandoned at its deadline."""
        self.stack.clear()
        self.depth[:] = [0] * len(self.depth)

    # -- results ---------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        done = [s for s in self.spans if s is not None]
        ids = np.array([i for i, s in enumerate(self.spans) if s is not None],
                       dtype=np.int64)
        return {
            "id": ids,
            "name": np.array([s[0] for s in done], dtype=np.int64),
            "parent": np.array([s[1] for s in done], dtype=np.int64),
            "start": np.array([s[2] for s in done], dtype=np.float64),
            "end": np.array([s[3] for s in done], dtype=np.float64),
            "outer": np.array([s[4] for s in done], dtype=bool),
        }

    def layer_stats(self, exclude=()) -> Dict[str, Dict[str, float]]:
        """calls, total_s and self_s per span name, plus top-level time.

        ``exclude`` holds (start, end) intervals in which the benchmark ran
        its own code from a signal handler; their time is taken out of every
        span that encloses them. Such code calls nothing traced, so no span
        starts or ends inside an interval."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        if len(exclude):
            starts = np.array([t0 for t0, _ in exclude])
            before = np.concatenate([[0.0], np.cumsum([t1 - t0 for t0, t1 in exclude])])
            dur -= (before[np.searchsorted(starts, a["end"])]
                    - before[np.searchsorted(starts, a["start"])])
        child = np.zeros(len(self.spans))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child[a["id"]]
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur * a["outer"], minlength=k)
        selft = np.bincount(a["name"], weights=self_s, minlength=k)
        out = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(selft[i])}
               for i, name in enumerate(self.names)}
        out["top_level_s"] = float(dur[~has_parent].sum())
        return out

    def write(self, path, exclude=()) -> None:
        """Spans as recorded, and the excluded intervals (see layer_stats)."""
        np.savez_compressed(path, names=np.array(self.names),
                            excluded=np.array(exclude, dtype=np.float64).reshape(-1, 2),
                            **self.arrays())

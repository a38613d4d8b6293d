"""The benchmark's workloads: seeded inputs, one timed pass, and the checks
on the pass's outputs. A pass yields its operations one at a time, so that
the runner can charge each its share of the pass's cost.

Why these three:

* ``verify-ensemble`` is the harness's own traffic: ``verify`` over 100
  graphs with V 3-8, thousands of small queries on the same (graph,
  basepoint), so per-call rebuilds (model, merge tree, MetricGraph
  construction, smoothing) dominate.
* ``cli-large`` runs five ``mgraph`` commands once each on one V=300 graph,
  reloading it every time: the same layers as verify-ensemble, but
  build-heavy instead of reuse-heavy, plus ``diameter`` and the cycle basis.
* ``gh-nets`` runs the net kernels (VR H1 barcode, four-point
  hyperbolicity) on nets of 60, 110 and 160 points and ``mgraph gh`` on two
  pairs; the model, smoothing and merge-tree layers do no work here. The
  mesh is chosen to give those net sizes: a mesh of diameter/12 gives about
  them, but its net size varies with the seed by +-10%, and the VR
  kernel's cost with the cube of it.

Every pass builds its graphs anew (``verify`` generates them, every command
reloads its file), so no distance or diameter cache survives between
passes. Every operation runs under a deadline on the process's CPU time,
so that a busy host does not turn a slow call into a miss; a miss counts as
a failed operation. ``mgraph gh`` on a graph with more than 80 vertices
never returns (``_barcode_net`` doubles its mesh until the net has at most
80 points, but the net always holds every vertex), so the (60, 100) pair of
gh-nets misses its deadline on every pass.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from click.testing import CliRunner

import metricgraph.harness as harness
from metricgraph import (
    Barcode,
    EnsembleSpec,
    bottleneck_distance,
    diameter,
    epsilon_net,
    finite_metric,
    load_graph,
    persistence_sequence,
    random_graph,
    save_graph,
)
from metricgraph.cli import main as mgraph

_TOL = 1e-9


class DeadlineMissed(BaseException):
    """Raised into an operation that ran past its deadline. A BaseException,
    so that no ``except Exception`` in the program or in click swallows it."""


@contextmanager
def _deadline(cpu_seconds: float):
    def fire(signum, frame):
        raise DeadlineMissed

    previous = signal.signal(signal.SIGPROF, fire)
    signal.setitimer(signal.ITIMER_PROF, cpu_seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@dataclass
class Op:
    """One timed call: a CLI command, or ``verify`` standing for its rows."""

    name: str
    out: str = ""                 # stdout, or the verify CSV
    attempted: int = 1
    failed: int = 0
    note: str = ""
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    value: object = None          # parsed output
    cpu_s: float = 0.0
    wall_s: float = 0.0
    cost: float = 0.0             # CPU time in reference units
    timed_out: bool = False

    def fail(self, why: str) -> None:
        self.failed = self.attempted
        self.note = why

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def _run(op: Op, deadline_s: float, tracer, call):
    """call() under the deadline; on a miss, mark op failed and return None."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with _deadline(deadline_s):
            return call()
    except DeadlineMissed:
        if tracer is not None:
            tracer.reset_stack()
        op.timed_out = True
        op.fail(f"missed its {deadline_s:g} CPU-second deadline")
        return None
    finally:
        op.cpu_s = time.process_time() - c0
        op.wall_s = time.perf_counter() - t0


def _command(name: str, args: List[str], deadline_s: float, tracer) -> Op:
    op = Op(name=name)
    res = _run(op, deadline_s, tracer, lambda: CliRunner().invoke(mgraph, args))
    if res is None:
        return op
    op.out = res.stdout
    if res.exit_code != 0:
        op.fail(f"exit {res.exit_code}: {res.exception!r} {res.output.strip()[-200:]}")
    else:
        op.value = json.loads(op.out)
    return op


class Workload:
    name = ""
    deadline_s = 0.0

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        """Generate the seeded graphs and round-trip them through JSON."""
        raise NotImplementedError

    def plan(self, inputs: dict) -> None:
        """Work out command arguments from the inputs (not timed)."""

    def run_pass(self, inputs: dict, tracer=None) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, inputs: dict, ops: List[Op]) -> List[str]:
        """Check a pass's outputs; mark each violating op failed and return
        the violations."""
        bad = []
        for op in ops:
            for why in _disordered(op.intervals):
                bad.append(f"{op.name}: {why}")
                op.fail(bad[-1])
        return bad


def _disordered(intervals) -> List[str]:
    return [f"interval [{lo}, {hi}] is not ordered" for lo, hi in intervals
            if lo > hi + _TOL * max(1.0, abs(hi))]


def _round_trip(G, path: Path):
    save_graph(G, str(path))
    return load_graph(str(path))


class VerifyEnsemble(Workload):
    name = "verify-ensemble"
    deadline_s = 30.0
    # 100 graphs as ten ensembles of ten: verify() aborts on the first
    # instance that raises (on some seeds delta_n_bounds raises an
    # "inconsistent bounds" AssertionError), and an abort then loses at most
    # one tenth of the pass instead of a seed-dependent share of it. Ten per
    # ensemble keeps verify's one neighbour-pair row per ten instances.
    ENSEMBLES, COUNT = 10, 10

    def specs(self, seed: int) -> List[EnsembleSpec]:
        return [EnsembleSpec(seed=seed * self.ENSEMBLES + j, count=self.COUNT)
                for j in range(self.ENSEMBLES)]

    def make_inputs(self, seed, workdir):
        specs = self.specs(seed)
        for spec in specs:
            for i in range(spec.count):
                _round_trip(random_graph(spec, i), workdir / f"g{spec.seed}-{i}.json")
        return {"specs": specs}

    def run_pass(self, inputs, tracer=None):
        for spec in inputs["specs"]:
            yield self._verify(spec, tracer)

    def _verify(self, spec: EnsembleSpec, tracer) -> Op:
        op = Op(name=f"verify.s{spec.seed}")
        try:
            report = _run(op, self.deadline_s, tracer, lambda: harness.verify(spec))
        except Exception as exc:  # the report is lost; counts as one failed op
            op.fail(repr(exc))
            return op
        if report is None:
            return op
        op.out = report.to_csv()
        op.attempted = len(report.rows)
        op.failed = sum(1 for r in report.rows if r.skipped or not r.passed)
        op.intervals = [(r.left, r.right) for r in report.rows
                        if r.check == "delta bounds consistent"]
        op.value = report
        return op

    def check(self, inputs, ops):
        # a disordered interval is also a failing row, already counted
        bad = [f"verify: {why}" for op in ops for why in _disordered(op.intervals)]
        for op in ops:
            if op.value is not None:
                bad += [f"verify row failed: {r.instance} {r.check}"
                        for r in op.value.failures()]
        return bad


def _diameter_sandwich(G, diam: float, mesh: float) -> Optional[str]:
    """max finite_metric(net) <= diameter <= max + mesh for a mesh-net."""
    top = float(finite_metric(G, epsilon_net(G, mesh)).max())
    tol = _TOL * max(1.0, diam)
    if top > diam + tol or diam > top + mesh + tol:
        return f"diameter {diam} outside [{top}, {top + mesh}]"
    return None


class CliLarge(Workload):
    name = "cli-large"
    deadline_s = 30.0

    def make_inputs(self, seed, workdir):
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        path = workdir / "g300.json"
        return {"path": path, "graph": _round_trip(random_graph(spec, 0), path)}

    def plan(self, inputs):
        G = inputs["graph"]
        inputs["epsilon"] = 1.5 * persistence_sequence(G).a(1)
        inputs["mesh"] = G.total_length / 150.0

    def run_pass(self, inputs, tracer=None):
        g = ["--graph", str(inputs["path"])]
        commands = [
            ("info", ["info"] + g),
            ("seq", ["seq"] + g),
            ("smooth", ["smooth"] + g + ["--epsilon", repr(inputs["epsilon"])]),
            ("tree", ["tree"] + g),
            ("delta", ["delta"] + g + ["--n", "0", "--mesh", repr(inputs["mesh"])]),
        ]
        for name, args in commands:
            op = _command(name, args, self.deadline_s, tracer)
            if op.name == "delta" and op.value is not None:
                op.intervals = [(op.value["lower"], op.value["upper"])]
            yield op

    def check(self, inputs, ops):
        bad = super().check(inputs, ops)
        for op in ops:
            if op.name == "info" and op.value is not None:
                why = _diameter_sandwich(inputs["graph"], op.value["diameter"],
                                         inputs["mesh"])
                if why:
                    bad.append(f"info: {why}")
                    op.fail(bad[-1])
        return bad


def _mesh_for(G, points: int) -> float:
    """About the smallest mesh whose epsilon-net has at most ``points``
    points. The net's size never grows with the mesh, and at the longest
    edge length the net is the vertices alone."""
    lo, hi = 0.0, max(e.length for e in G.edges)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(epsilon_net(G, mid)) <= points:
            hi = mid
        else:
            lo = mid
    return hi


class GhNets(Workload):
    name = "gh-nets"
    deadline_s = 30.0
    # gh is the command that hangs; its finishing calls here take 1-1.5 s,
    # and every pass spends this deadline on the (60, 100) pair
    gh_deadline_s = 5.0
    SIZES = ((30, 5), (60, 10), (100, 15))
    NET_POINTS = {30: 60, 60: 110, 100: 160}
    PAIRS = ((30, 60), (60, 100))

    def make_inputs(self, seed, workdir):
        graphs = {}
        for v, b in self.SIZES:
            spec = EnsembleSpec(seed=seed, vertex_range=(v, v), beta1_range=(b, b))
            path = workdir / f"g{v}.json"
            graphs[v] = {"path": path, "graph": _round_trip(random_graph(spec, 0), path)}
        return {"graphs": graphs}

    def plan(self, inputs):
        for v, g in inputs["graphs"].items():
            g["diameter"] = diameter(g["graph"])
            g["mesh"] = _mesh_for(g["graph"], self.NET_POINTS[v])

    def run_pass(self, inputs, tracer=None):
        graphs = inputs["graphs"]
        for v, _ in self.SIZES:
            g = graphs[v]
            for command in ("barcode", "hyp"):
                args = [command, "--graph", str(g["path"]), "--mesh", repr(g["mesh"])]
                yield _command(f"{command}.v{v}", args, self.deadline_s, tracer)
        for a, b in self.PAIRS:
            args = ["gh", "--graph", str(graphs[a]["path"]),
                    "--other", str(graphs[b]["path"])]
            op = _command(f"gh.v{a}-v{b}", args, self.gh_deadline_s, tracer)
            if op.value is not None:
                op.intervals = [(op.value["lower"], op.value["upper"])]
            yield op

    def check(self, inputs, ops):
        bad = super().check(inputs, ops)
        for op in ops:
            if not op.name.startswith("barcode.") or op.value is None:
                continue
            g = inputs["graphs"][int(op.name.split(".v")[1])]
            G, mesh = g["graph"], g["mesh"]
            # VR of the net against the cycle basis: two independent paths
            bars = Barcode.from_json_obj(op.value)
            basis = Barcode(degree=1, bars=tuple(
                (0.0, a) for a in persistence_sequence(G).entries))
            gap = bottleneck_distance(bars, basis)
            if gap > 2.0 * mesh + _TOL:
                bad.append(f"{op.name}: VR barcode is {gap} from the cycle basis "
                           f"bars, more than 2*mesh = {2.0 * mesh}")
                op.fail(bad[-1])
            why = _diameter_sandwich(G, g["diameter"], mesh)
            if why:
                bad.append(f"{op.name}: {why}")
                op.fail(bad[-1])
        return bad


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (VerifyEnsemble(), CliLarge(), GhNets())}

"""Seeded graph ensembles, file I/O, and the inequality verification report.

verify() runs every checkable inequality the library exposes over a
deterministic random ensemble and returns one row per check with the two
sides of the inequality. Each row carries a stable anchor id naming the
inequality family it belongs to, so reports can be diffed across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gh_bounds import (
    brute_force_dgh,
    delta_n_bounds,
    dgh_lower,
    hyp_graph,
    hyperbolicity,
    r_extension,
)
from .gromov_tree import (
    bottleneck_m,
    build_merge_tree,
    gromov_product,
    t_p,
    tree_distortion,
)
from .metric_graph import (
    GraphPoint,
    MetricGraph,
    TOL,
    diameter,
    distance,
    epsilon_net,
    finite_metric,
    f_variation,
    graph_from_json_obj,
    graph_to_json_obj,
    monotone_decomposition,
    path_length,
    shortest_path,
)
from .persistence import persistence_sequence
from .reeb_smoothing import betti_after_smoothing, epsilon_smoothing, quotient_correspondence


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of a deterministic random-graph ensemble."""

    seed: int = 0
    count: int = 100
    vertex_range: Tuple[int, int] = (3, 8)
    beta1_range: Tuple[int, int] = (0, 4)
    length_range: Tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        lo, hi = self.vertex_range
        if not (1 <= lo <= hi):
            raise ValueError("vertex range must satisfy 1 <= lo <= hi")
        blo, bhi = self.beta1_range
        if not (0 <= blo <= bhi):
            raise ValueError("infeasible beta1 range: need 0 <= lo <= hi")
        llo, lhi = self.length_range
        if not (0 < llo <= lhi) or not math.isfinite(lhi):
            raise ValueError("length range must satisfy 0 < lo <= hi")

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "vertex_range": list(self.vertex_range),
            "beta1_range": list(self.beta1_range),
            "length_range": list(self.length_range),
        }


def random_graph(spec: EnsembleSpec, index: int) -> MetricGraph:
    """Deterministic graph for (spec.seed, index): a uniform random
    recursive tree plus beta1 chords (self-loops allowed), with lengths
    uniform in the spec's range. The requested first Betti number holds
    exactly because every chord adds one independent cycle."""
    rng = np.random.default_rng([abs(int(spec.seed)) + 1, int(index) + 1])
    vlo, vhi = spec.vertex_range
    blo, bhi = spec.beta1_range
    n_v = int(rng.integers(vlo, vhi + 1))
    beta = int(rng.integers(blo, bhi + 1))
    verts = [f"v{i}" for i in range(n_v)]
    attach = [int(rng.integers(0, i)) for i in range(1, n_v)]
    chords = [(int(rng.integers(0, n_v)), int(rng.integers(0, n_v)))
              for _ in range(beta)]
    llo, lhi = spec.length_range
    lengths = rng.uniform(llo, lhi, size=(n_v - 1) + beta)
    edges = []
    for i, j in enumerate(attach):
        edges.append((f"t{i + 1}", verts[j], verts[i + 1], float(lengths[i])))
    for k, (a, b) in enumerate(chords):
        edges.append((f"c{k}", verts[a], verts[b], float(lengths[n_v - 1 + k])))
    G = MetricGraph(vertices=verts, edges=edges)
    if G.betti1 != beta:
        raise AssertionError("generated graph missed the requested beta1")
    return G


# ---------------------------------------------------------------------------
# file I/O


def load_graph(path: str) -> MetricGraph:
    """Read and validate a graph JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return graph_from_json_obj(obj)


def save_graph(G: MetricGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json_obj(G), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report model


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class ReportRow:
    """One verified inequality: passes when left <= right + 1e-9."""

    check: str
    anchor: str
    instance: str
    left: float
    right: float
    skipped: bool = False
    note: str = ""

    @property
    def slack(self) -> float:
        return self.right - self.left

    @property
    def passed(self) -> bool:
        return self.skipped or self.slack >= -TOL

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "true" if self.slack >= -TOL else "false"

    def to_json_obj(self) -> dict:
        obj = {
            "check": self.check,
            "anchor": self.anchor,
            "instance": self.instance,
            "left": float(_fmt(self.left)),
            "right": float(_fmt(self.right)),
            "slack": float(_fmt(self.slack)),
            "pass": self.status,
        }
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass(frozen=True)
class VerificationReport:
    rows: Tuple[ReportRow, ...]
    spec: Optional[EnsembleSpec] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.rows:
            if r.skipped:
                out["skipped"] += 1
            elif r.passed:
                out["pass"] += 1
            else:
                out["fail"] += 1
        return out

    def failures(self) -> List[ReportRow]:
        return [r for r in self.rows if not r.passed]

    def to_json_obj(self) -> dict:
        obj = {
            "passed": self.passed,
            "counts": self.counts,
            "rows": [r.to_json_obj() for r in self.rows],
        }
        if self.spec is not None:
            obj["spec"] = self.spec.to_json_obj()
        return obj

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check", "anchor", "instance", "left", "right", "slack", "pass"])
        for r in self.rows:
            w.writerow([r.check, r.anchor, r.instance,
                        _fmt(r.left), _fmt(r.right), _fmt(r.slack), r.status])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# verification rows

# error fragments that mean "instance too large for this check", not "wrong"
_SKIP_MARKERS = ("too many points", "coarser mesh")


def default_eps_grid(G: MetricGraph) -> List[float]:
    """Smoothing scales worth probing: 0, both sides of every Betti-drop
    threshold, and the diameter."""
    seq = persistence_sequence(G)
    vals = {0.0, diameter(G)}
    for k in range(1, G.betti1 + 1):
        thr = 1.5 * seq.a(k)
        vals.add(max(0.0, thr - 0.1))
        vals.add(thr + 0.1)
    out: List[float] = []
    for v in sorted(vals):
        if not out or v - out[-1] > 1e-12:
            out.append(v)
    return out


def _random_point(G: MetricGraph, rng: np.random.Generator) -> GraphPoint:
    if rng.random() < 0.4 or not G.edges:
        v = G.vertices[int(rng.integers(len(G.vertices)))]
        return GraphPoint(vertex=v)
    e = G.edges[int(rng.integers(len(G.edges)))]
    t = float(rng.uniform(0.05, 0.95)) * e.length
    return G.canonical(GraphPoint(edge=e.id, offset=t))


def _farthest_point_sample(D: np.ndarray, k: int, start: int) -> Tuple[List[int], float]:
    """Greedy k-point subset starting at ``start``; returns indices and the
    covering radius of the chosen subset."""
    n = D.shape[0]
    chosen = [start]
    dmin = D[start].copy()
    while len(chosen) < min(k, n):
        i = int(np.argmax(dmin))
        if dmin[i] <= 0:
            break
        chosen.append(i)
        dmin = np.minimum(dmin, D[i])
    return chosen, float(dmin.max())


def _pointed_dgh_upper(G: MetricGraph, p: GraphPoint,
                       H: MetricGraph, q: GraphPoint) -> float:
    """Upper bound for the pointed Gromov-Hausdorff distance via exact
    search on 5-point farthest-point subsets plus their covering radii."""
    subs = []
    for (graph, base) in ((G, p), (H, q)):
        coarse = max(diameter(graph) / 6.0, 1e-6)
        net = [base] + [x for x in epsilon_net(graph, coarse)
                        if x != graph.canonical(base)]
        D = finite_metric(graph, net)
        idx, radius = _farthest_point_sample(D, 5, 0)
        # the net itself is coarse of radius <= coarse
        subs.append((D[np.ix_(idx, idx)], radius + coarse))
    (DX, rx), (DY, ry) = subs
    core = brute_force_dgh(DX, DY, pointed=(0, 0))
    return core + rx + ry


def _verify_instance(G: MetricGraph, inst: str, rng: np.random.Generator,
                     mesh: Optional[float], eps_grid: Optional[Sequence[float]],
                     rows: List[ReportRow]) -> GraphPoint:
    beta = G.betti1
    diam = diameter(G)
    base_mesh = mesh if mesh is not None else 0.05 * diam if diam > 0 else 1.0
    # cost guard: keep nets around 200 points even for length-dense graphs
    net_mesh = max(base_mesh, G.total_length / 200.0)
    p = GraphPoint(vertex=G.vertices[int(rng.integers(len(G.vertices)))])
    seq = persistence_sequence(G)
    grid = list(eps_grid) if eps_grid is not None else default_eps_grid(G)

    def row(check: str, anchor: str, left: float, right: float,
            suffix: str = "", note: str = "") -> None:
        rows.append(ReportRow(check=check, anchor=anchor,
                              instance=inst + suffix,
                              left=float(left), right=float(right), note=note))

    def skip(check: str, anchor: str, why: str, suffix: str = "") -> None:
        rows.append(ReportRow(check=check, anchor=anchor, instance=inst + suffix,
                              left=0.0, right=0.0, skipped=True, note=why))

    # --- geodesic decomposition and length identities
    n_pairs = 12
    max_segments = 0
    worst_sum_gap = 0.0
    worst_len_gap = 0.0
    for _ in range(n_pairs):
        a, b = _random_point(G, rng), _random_point(G, rng)
        gamma = shortest_path(G, a, b)
        d_ab = distance(G, a, b)
        segs = monotone_decomposition(G, p, gamma)
        max_segments = max(max_segments, len(segs))
        total = 0.0
        for s in segs:
            total += f_variation(G, p, s)
        worst_sum_gap = max(worst_sum_gap, abs(total - d_ab))
        worst_len_gap = max(worst_len_gap,
                            abs(f_variation(G, p, gamma) - path_length(G, gamma)))
    row("monotone decomposition count", "thm:mgmain", max_segments, 2 * beta + 2)
    row("geodesic variation sum", "thm:mgmain", worst_sum_gap, 0.0)
    row("variation equals length", "cor:mglength", worst_len_gap, 0.0)

    # --- smoothing Betti thresholds and monotonicity
    worst_thr = 0
    for k in range(1, beta + 1):
        eps_k = 1.5 * seq.a(k) + 1e-6
        worst_thr = max(worst_thr, betti_after_smoothing(G, p, eps_k) - (k - 1))
    row("betti drop at thresholds", "prop:smoothingbetti", worst_thr, 0)

    bettis = [betti_after_smoothing(G, p, e) for e in grid]
    worst_increase = 0
    for b0, b1 in zip(bettis, bettis[1:]):
        worst_increase = max(worst_increase, b1 - b0)
    row("betti monotone in eps", "prop:reebbetti", worst_increase, 0)
    row("betti below source", "prop:reebbetti", max(bettis) if bettis else 0, beta)

    # --- smoothing quotients: sequence monotonicity + distortion bound
    eps_star = 1.5 * seq.a(1) if beta > 0 else diam / 2.0
    subset = sorted({0.0, eps_star / 2.0, eps_star, diam})
    worst_seq_gap = 0.0
    smoothings = []
    for eps in subset:
        S = epsilon_smoothing(G, p, eps)
        smoothings.append((eps, S))
        seq_s = persistence_sequence(S.graph)
        hi = max(beta, S.graph.betti1)
        for n in range(1, hi + 1):
            worst_seq_gap = max(worst_seq_gap, seq_s.a(n) - seq.a(n))
    row("sequence monotone under quotient", "prop:smallerseq", worst_seq_gap, 0.0)

    for j, (eps, S) in enumerate(smoothings):
        try:
            corr = quotient_correspondence(G, S, net_mesh)
        except ValueError as exc:
            if any(mark in str(exc) for mark in _SKIP_MARKERS):
                skip("quotient distortion", "lem:smoothingapp", str(exc), f":e{j}")
                continue
            raise
        row("quotient distortion", "lem:smoothingapp",
            corr.distortion, 2.0 * (4.0 * beta + 3.0) * eps + 4.0 * net_mesh,
            suffix=f":e{j}", note=f"eps={_fmt(eps)}")

    # --- first bar length against hyperbolicity
    hyp_mesh = max(base_mesh, diam / 12.0, G.total_length / 150.0)
    try:
        hv, herr = hyp_graph(G, hyp_mesh)
        row("first entry below hyperbolicity", "cor:vrvanish",
            seq.a(1), 4.0 * (hv + herr))
        have_hyp = True
    except ValueError as exc:
        if any(mark in str(exc) for mark in _SKIP_MARKERS):
            skip("first entry below hyperbolicity", "cor:vrvanish", str(exc))
            have_hyp = False
        else:
            raise

    # --- merge tree rows
    sample_pts = [GraphPoint(vertex=v) for v in G.vertices[:6]]
    while len(sample_pts) < 9:
        sample_pts.append(_random_point(G, rng))
    worst_gp = 0.0
    worst_td = 0.0
    for x, y in combinations(sample_pts, 2):
        m = bottleneck_m(G, p, x, y)
        g = gromov_product(G, p, x, y)
        worst_gp = max(worst_gp, g - m)
        worst_td = max(worst_td, t_p(G, p, x, y) - distance(G, x, y))
    row("bottleneck above gromov product", "lem:mpgp", worst_gp, 0.0)
    row("tree pseudometric below distance", "prop:tptree", worst_td, 0.0)

    tree = build_merge_tree(G, p)
    worst_lca = 0.0
    for u, w in combinations(G.vertices, 2):
        lvl = tree.merge_level(tree.node_of[u], tree.node_of[w])
        m = bottleneck_m(G, p, GraphPoint(vertex=u), GraphPoint(vertex=w))
        worst_lca = max(worst_lca, abs(lvl - m))
    row("merge tree lca is bottleneck", "prop:tptree", worst_lca, 0.0)

    n_tp = len(sample_pts)
    TP = np.zeros((n_tp, n_tp))
    for i in range(n_tp):
        for j in range(i + 1, n_tp):
            TP[i, j] = TP[j, i] = t_p(G, p, sample_pts[i], sample_pts[j])
    row("tree metric four point", "prop:tptree", hyperbolicity(TP), 0.0)

    if have_hyp:
        td = tree_distortion(G, p, max(net_mesh, G.total_length / 150.0))
        row("tree distortion vs hyperbolicity", "prop:distortion",
            td.value, 2.0 * math.log2(4.0 * beta + 4.0) * (hv + herr))

    # --- correspondence extension
    coarse = max(diam / 3.0, net_mesh)
    S_mid = smoothings[1][1] if len(smoothings) > 1 else smoothings[0][1]
    corr0 = quotient_correspondence(G, S_mid, coarse)
    r = 0.25 * diam
    ext = r_extension(corr0, r)
    row("extension distortion growth", "lem:extdis",
        ext.distortion, corr0.distortion + 2.0 * r)

    # --- graph-approximation sandwich
    reports = []
    for n in range(0, beta + 2):
        rep = delta_n_bounds(G, n, p, net_mesh)
        reports.append(rep)
        row("delta bounds consistent", "thm:graphappgeneral",
            rep.lower, rep.upper, suffix=f":n{n}")
    for n in range(len(reports) - 1):
        row("delta chain monotone", "thm:graphappgeneral",
            reports[n + 1].lower, reports[n].upper, suffix=f":n{n}")
    return p


def verify(spec: EnsembleSpec, mesh: Optional[float] = None,
           eps_grid: Optional[Sequence[float]] = None,
           corrupt: bool = False) -> VerificationReport:
    """Run every inequality check over the spec's ensemble.

    Rows compare the two sides of an inequality; a row fails when
    left > right + 1e-9. Checks that would exceed a resource cap are
    reported as skipped. ``corrupt`` appends a deliberately failing row
    (used by the self-test)."""
    rows: List[ReportRow] = []
    instances: List[Tuple[str, MetricGraph, GraphPoint]] = []
    for i in range(spec.count):
        G = random_graph(spec, i)
        inst = f"g{i:03d}"
        rng = np.random.default_rng([abs(int(spec.seed)) + 1, i + 1, 977])
        p = _verify_instance(G, inst, rng, mesh, eps_grid, rows)
        instances.append((inst, G, p))

    # quotient stability across neighbouring instances, sampled sparsely
    for i in range(0, len(instances) - 1, 10):
        inst_g, G, p = instances[i]
        inst_h, H, q = instances[i + 1]
        beta = max(G.betti1, H.betti1)
        left = dgh_lower(G, H, mesh)
        right = (8.0 * beta + 6.0) * 2.0 * _pointed_dgh_upper(G, p, H, q)
        rows.append(ReportRow(check="quotient stability sandwich",
                              anchor="thm:reebstability",
                              instance=f"{inst_g}+{inst_h}",
                              left=left, right=right))

    if corrupt:
        rows.append(ReportRow(check="self-test-corrupted", anchor="self-test",
                              instance="corrupt", left=1.0, right=0.0))

    rows.sort(key=lambda r: (r.instance, r.check))
    return VerificationReport(rows=tuple(rows), spec=spec)

"""Mutation matrix: small deliberate faults in the library, each with the
tests that must catch it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

A mutant is (name, file under src/metricgraph/, exact old text, new text,
test ids, and for a known survivor the reason it survives). The listed
tests first run once on an unmutated copy of src/, where every one must
pass. Then each mutant is applied to a fresh copy of src/, its old text
must occur there exactly once, and only its listed tests run against the
copy, each of which must fail. A known survivor is the other way round:
each of its listed tests must still pass, and it is reported with its
reason; once a test fails on it, the flag is stale and has to go. The exit
status is 1 when a mutant survives (a listed test passes), when a known
survivor is killed, when its old text no longer matches (a refactor has to
update its mutants), or when the baseline fails; 0 otherwise. Standard
library only; it runs pytest in subprocesses, from the repository root,
with PYTHONPATH set to the copy.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent

# a mutant that loses a size guard must fail, not exhaust the machine
_MEMORY_BYTES = 3 << 30
_TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]
    survives: str = ""  # why no test can kill it, for a known survivor


_SLOT_ORACLE = "tests/test_reeb_smoothing.py::TestSlotOracle::test_matches_whole_band_sweep"
_LEVEL_ORACLE = "tests/test_reeb_smoothing.py::TestLevelOracle::test_matches_per_level_smoothing"
_POINT_ORACLE = "tests/test_reeb_smoothing.py::TestQuotientPointsOracle::test_matches_per_point_path"
_DIAM_ORACLE = ("tests/test_diameter.py::TestOracle::test_ensemble_graphs",
                "tests/test_diameter.py::TestPrune::test_small_ensemble_graphs")
_DIAM_TIES = "tests/test_diameter.py::TestOracle::test_tie_graphs"
_VR_PIVOTS = "tests/test_persistence.py::TestCofacetPivots::test_pivot_is_least_key"
_VR_ORACLE = ("tests/test_persistence.py::TestVrColumnOracle::test_euclidean",
              "tests/test_persistence.py::TestVrColumnOracle::test_ensemble_graph_nets")
_HORTON_LARGE = "tests/test_persistence.py::TestHortonWalkOracle::test_large_graph"
_ROOT_TREES = "tests/test_persistence.py::TestBranchRootTrees::test_ensemble_graphs[1-300-40]"
_LOOP_ROOTS = "tests/test_persistence.py::TestBranchRootTrees::test_loops_count_twice"
_TABLE = "tests/test_metric_graph.py::TestReplayedTable::"
_TABLE_ROWS = _TABLE + "test_rows_are_trees"
_TABLE_ROOTS = _TABLE + "test_only_branch_roots_on_tie_free_graphs"
_TABLE_DELTA = _TABLE + "test_fresh_delta_builds_branch_trees_only"
_TABLE_GRID = _TABLE + "test_grid_rows_fall_back"
_CERT_SLACK = _TABLE + "test_certificate_honours_the_slack"
_CERT_PARENT = _TABLE + "test_certificate_needs_a_lower_parent"
_HYP_ORACLE = ("tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_oracles[euclidean]",
               "tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_oracles[quarter-rounded]",
               "tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_oracles[uniform]")
_HYP_TAU = "tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_triangle_excess_below_float32"
_UNREACHED_ROUNDING = ("the margin covers a kernel value up to 3 ulps above the pair's "
                       "bound; no test input was found whose evaluated maximum comes "
                       "that close to a skipped pair's bound")

MUTANTS: Tuple[Mutant, ...] = (
    # the output-sensitive smoothing sweep
    Mutant("sweep: dissolve test and -> or", "reeb_smoothing.py",
           "if len(into) == 1 and len(pieces_c) == 1:",
           "if len(into) == 1 or len(pieces_c) == 1:",
           (_SLOT_ORACLE, _LEVEL_ORACLE,
            "tests/test_reeb_smoothing.py::TestBettiProfiles::test_theta_profile")),
    Mutant("sweep: new S edges ordered by slot only", "reeb_smoothing.py",
           "for lo, d, v in sorted(starts):",
           "for lo, d, v in starts:",
           (_SLOT_ORACLE,
            "tests/test_reeb_smoothing.py::TestSlotOracle::test_cli_large_graph[1]")),
    Mutant("sweep: breakpoint bisect off by one", "reeb_smoothing.py",
           'np.searchsorted(F.reps[0], code * F.width + s, side="right")',
           'np.searchsorted(F.reps[0], code * F.width + s, side="left")',
           (_SLOT_ORACLE, _POINT_ORACLE,
            "tests/test_reeb_smoothing.py::TestSmoothingInvariants::test_eps_zero_is_isometric")),
    Mutant("sweep: the base class read one entry early", "reeb_smoothing.py",
           "return values[bisect_right(slots, s) - 1]",
           "return values[bisect_left(slots, s) - 1]",
           (_SLOT_ORACLE,)),
    Mutant("sweep: a split's largest piece keeps its parent's S edge", "reeb_smoothing.py",
           "if len(into) == 1 and len(pieces_c) == 1:",
           "if len(into) == 1 and len(pieces_c) >= 1:",
           (_SLOT_ORACLE,
            "tests/test_reeb_smoothing.py::TestBettiProfiles::test_theta_profile")),
    Mutant("sweep: S vertex representative taken after the leaving elements go",
           "reeb_smoothing.py",
           "reps[v] = ([s], [lo])",
           "reps[v] = ([s], [low.get(c, lo)])",
           (_SLOT_ORACLE, _LEVEL_ORACLE)),
    Mutant("sweep: a pass-through never moves its edge's representative", "reeb_smoothing.py",
           "if rx[-1] != low[c]:",
           "if False:",
           (_SLOT_ORACLE, _LEVEL_ORACLE)),
    Mutant("sweep: a newborn pass-through left without a name", "reeb_smoothing.py",
           'name(c, s, f"s{e}")',
           "pass",
           ("tests/test_reeb_smoothing.py::TestSlotOracle::test_newborn_component_absorbs_older_one",)),
    # canonical points: helpers snap only the points they build
    Mutant("_locate without its snap", "reeb_smoothing.py",
           "loc = _canonical_at(SG, *_locate_net(S, *_net_places(G, S._basepoint, mesh)))",
           "loc = _locate_net(S, *_net_places(G, S._basepoint, mesh))",
           ("tests/test_reeb_smoothing.py::TestBuiltPointsAreCanonical::test_locate_snaps_into_a_vertex",)),
    Mutant("_to_model_point without its snap", "metric_graph.py",
           "return H.canonical(GraphPoint(edge=mid, offset=pt.offset - a))",
           "return GraphPoint(edge=mid, offset=pt.offset - a)",
           ("tests/test_metric_graph.py::TestCanonicalOnce::test_model_points_are_canonical",)),
    Mutant("_represent without its snap", "reeb_smoothing.py",
           "    hv, he, ho = _canonical_at(H, hv, he, ho)\n",
           "",
           ("tests/test_reeb_smoothing.py::TestBuiltPointsAreCanonical::test_located_and_represented_points[0.5]",)),
    # the quotient path on whole nets
    Mutant("whole-net slot snap with < instead of <=", "reeb_smoothing.py",
           "below = (k > 0) & (np.abs(lvl - crit[k - 1]) <= gap)",
           "below = (k > 0) & (np.abs(lvl - crit[k - 1]) < gap)",
           ("tests/test_reeb_smoothing.py::TestBuiltPointsAreCanonical::test_level_a_merge_gap_above_a_critical_snaps_to_it",)),
    Mutant("flattened-key lookup with side=left", "reeb_smoothing.py",
           'np.searchsorted(F.log[0], elem * F.width + s, side="right")',
           'np.searchsorted(F.log[0], elem * F.width + s, side="left")',
           (_SLOT_ORACLE, _POINT_ORACLE)),
    # the float window
    Mutant("float-window guard disabled", "metric_graph.py",
           "if not (total <= top and self._tol >= sys.float_info.min):",
           "if False:",
           tuple(f"tests/test_metric_graph.py::TestConstruction::test_outside_float_window[{name}]"
                 for name in ("parallel-1e-320", "path-1e308", "triangle-1e308", "triangle-5e307"))
           + ("tests/test_harness_cli.py::TestCli::test_outside_float_window[triangle-1e308-tree]",
              "tests/test_harness_cli.py::TestCliFuzz::test_triangle_5e307_every_command[net]")),
    Mutant("float window without the net factor", "metric_graph.py",
           "top = sys.float_info.max / max(1e9, 64.0 * len(final))",
           "top = sys.float_info.max / (64.0 * len(final))",
           ("tests/test_metric_graph.py::TestConstruction::test_float_window_edges",)),
    # the net budget, and the one check every cap raises through
    Mutant("net budget disabled", "metric_graph.py",
           "    _check_points(\"an epsilon-net\", len(G.vertices) + np.maximum(m - 1, 0).sum(), _NET_POINTS)\n",
           "",
           ("tests/test_metric_graph.py::test_epsilon_net_rejects_tolerance_scale[4.0]",
            "tests/test_metric_graph.py::TestNetBudget::test_vertices_count",
            "tests/test_metric_graph.py::TestNetBudget::test_over_budget_refused_before_layout[hyp_graph]",
            "tests/test_harness_cli.py::TestNetBudget::test_over_budget_exits_2[delta]")),
    Mutant("net counted without its vertices", "metric_graph.py",
           "len(G.vertices) + np.maximum(m - 1, 0).sum()",
           "np.maximum(m - 1, 0).sum()",
           ("tests/test_metric_graph.py::TestNetBudget::test_vertices_count",)),
    Mutant("count cast to int64 before the check", "metric_graph.py",
           "m = np.ceil(G._lengths / mesh - 1e-12)\n",
           "m = np.ceil(G._lengths / mesh - 1e-12).astype(np.int64)\n",
           ("tests/test_metric_graph.py::TestNetBudget::test_tiny_mesh_counted_without_overflow[5e-324]",)),
    Mutant("block trees before the budget", "metric_graph.py",
           "    net = _net(G, mesh)  # the budget, before any vertex tree\n",
           "    _vd_sym(G)\n    net = _net(G, mesh)\n",
           ("tests/test_metric_graph.py::TestNetBudget::test_over_budget_refused_before_layout[tree_distortion]",)),
    Mutant("a cap compared with >=", "metric_graph.py",
           "    if n > most:\n",
           "    if n >= most:\n",
           ("tests/test_metric_graph.py::TestNetBudget::test_vertices_count",)),
    # one smoothing per (G, canonical p, float(eps))
    Mutant("smoothing memo keyed by the raw basepoint", "reeb_smoothing.py",
           "return _sweep_at(G, G.canonical(p), float(eps))",
           "return _sweep_at(G, p, float(eps))",
           ("tests/test_metric_graph.py::TestMemo::test_one_smoothing_per_key",
            "tests/test_metric_graph.py::TestMemo::test_each_builder_runs_once")),
    Mutant("smoothing holds its graph strongly", "reeb_smoothing.py",
           "eps, weakref.ref(G), cp,",
           "eps, lambda: G, cp,",
           ("tests/test_metric_graph.py::TestMemo::test_smoothings_do_not_keep_their_graph_alive",)),
    # the pruned diameter
    Mutant("diameter: landmark bound without its margin", "metric_graph.py",
           "return b + (b * n * 2.0 ** -48 + 2 * n * 1e-15)",
           "return b",
           (_DIAM_TIES,)),
    Mutant("diameter: the 4-ulp margin dropped", "metric_graph.py",
           "keep = bound + 4.0 * np.spacing(bound) >= best",
           "keep = bound >= best",
           _DIAM_ORACLE + (_DIAM_TIES,), survives=_UNREACHED_ROUNDING),
    Mutant("diameter: zero margin with a strict comparison", "metric_graph.py",
           "keep = bound + 4.0 * np.spacing(bound) >= best",
           "keep = bound > best",
           _DIAM_ORACLE + (_DIAM_TIES,), survives=_UNREACHED_ROUNDING),
    Mutant("diameter: table bound divided by 2.2", "metric_graph.py",
           "bound = np.minimum(c1 + c4, c2 + c3) / 2.0",
           "bound = np.minimum(c1 + c4, c2 + c3) / 2.2",
           _DIAM_ORACLE),
    Mutant("diameter: l1 + l2 summed first", "metric_graph.py",
           "vd[ev[i], ev[j]] / unit + l1 + l2",
           "vd[ev[i], ev[j]] / unit + (l1 + l2)",
           _DIAM_ORACLE),
    Mutant("diameter: errstate dropped", "metric_graph.py",
           'with np.errstate(divide="ignore", invalid="ignore"):',
           "if True:",
           _DIAM_ORACLE),
    Mutant("diameter kernel: inside test tightened to >= 0", "metric_graph.py",
           ">= slack).all(axis=0)",
           ">= 0).all(axis=0)",
           _DIAM_ORACLE[:1]),
    Mutant("diameter: pairs (e, e) pruned at half their length", "metric_graph.py",
           "ee = np.flatnonzero(L >= best)",
           "ee = np.flatnonzero(L / 2 >= best)",
           (_DIAM_TIES,)),
    Mutant("diameter: edge filter against the least single-landmark sum", "metric_graph.py",
           "S.max(axis=1, keepdims=True)",
           "S.min(axis=1, keepdims=True)",
           _DIAM_ORACLE + (_DIAM_TIES,)),
    # hyperbolicity's float32 screen on pair tables
    Mutant("hyperbolicity screen without its slack", "gh_bounds.py",
           "    x -= 2.0 ** -18\n",
           "",
           _HYP_ORACLE),
    Mutant("hyperbolicity screen slack below its error bound", "gh_bounds.py",
           "    x -= 2.0 ** -18\n",
           "    x -= 2.0 ** -24\n",
           ("tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_float32_inverts_two_gaps",)),
    Mutant("hyperbolicity screen not normalised", "gh_bounds.py",
           "    shift = 1 - math.frexp(longest)[1]\n",
           "    shift = 0\n",
           tuple(f"tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_beyond_float32_range[{k}]"
                 for k in (200, 1000))
           + ("tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_entries_spanning_2_to_the_150[200]",)),
    Mutant("hyperbolicity put-off blocks never screened again", "gh_bounds.py",
           "            screen(c0, c1, q0, 0.0)\n",
           "            pass\n",
           ("tests/test_kernel_oracles.py::test_verify_nets_symmetric",)),
    Mutant("hyperbolicity table UJ built from I", "gh_bounds.py",
           "UJ[q][:, lo - q0:hi - q0] = V[J[lo:hi]].T",
           "UJ[q][:, lo - q0:hi - q0] = V[I[lo:hi]].T",
           _HYP_ORACLE),
    Mutant("hyperbolicity stop margin without 2 tau", "gh_bounds.py",
           "margin = 2.0 * math.ldexp(tau + 2.0 ** -21, -shift) + 16.0 * np.spacing(longest)",
           "margin = 16.0 * np.spacing(longest)",
           _HYP_ORACLE[2:] + (_HYP_TAU,)),
    Mutant("hyperbolicity tau without its float32 error bound", "gh_bounds.py",
           "math.ldexp(tau + 2.0 ** -21, -shift)",
           "math.ldexp(tau, -shift)",
           (_HYP_TAU,)),
    Mutant("hyperbolicity stops after the seed block", "gh_bounds.py",
           "        if c1 >= alive:\n            break\n",
           "        break\n",
           _HYP_ORACLE),
    Mutant("hyperbolicity stops one pair early", "gh_bounds.py",
           "alive = int(np.searchsorted(bound, -best))",
           "alive = int(np.searchsorted(bound, -best)) - 1",
           ("tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_winning_split_holds_the_shortest_pair",)),
    Mutant("hyperbolicity tables on numpy's allocator", "gh_bounds.py",
           "    if 4 * n * width < 1 << 22:\n",
           "    if True:\n",
           ("tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_table_memory_at_the_cap",)),
    Mutant("hyperbolicity table chunk read one column short", "gh_bounds.py",
           "h = min(c1 - q0, width)",
           "h = min(c1 - q0, width) - (c1 - q0 > width)",
           tuple(f"tests/test_kernel_oracles.py::TestPrunedHyperbolicity::test_narrow_table_chunks[{kind}]"
                 for kind in ("euclidean", "uniform"))),
    # Horton candidates from the 2-core's branch vertices
    Mutant("roots: core degree ≥ 4", "metric_graph.py",
           "for (w, _, _) in iadj[v]) >= 3] or core[:1]",
           "for (w, _, _) in iadj[v]) >= 4] or core[:1]",
           (_HORTON_LARGE, _ROOT_TREES, _LOOP_ROOTS)),
    # a loop is stored as two halves to one midpoint vertex, so counting
    # distinct neighbours counts it once
    Mutant("roots: a loop counted once", "metric_graph.py",
           "sum(up[w] is None for (w, _, _) in iadj[v])",
           "len({w for (w, _, _) in iadj[v] if up[w] is None})",
           (_LOOP_ROOTS, "tests/test_persistence.py::TestHortonWalkOracle::test_tie_graphs")),
    Mutant("roots: first core vertex only", "metric_graph.py",
           "return [v for v in core if sum(up[w] is None for (w, _, _) in iadj[v]) >= 3] or core[:1]",
           "return core[:1]",
           (_HORTON_LARGE, _ROOT_TREES,
            "tests/test_persistence.py::TestBranchRoots::test_cli_large_graphs[1]")),
    # the vertex table replayed from the branch roots' trees, each row
    # certified by Dijkstra's own comparisons
    Mutant("table certificate without its slack", "metric_graph.py",
           "(Rw < nd - slack)",
           "(Rw < nd)",
           (_CERT_SLACK,)),
    Mutant("table certificate's parent condition with <=", "metric_graph.py",
           "eq & (Rv < Rw)",
           "eq & (Rv <= Rw)",
           (_CERT_PARENT,)),
    Mutant("table keeps uncertified candidate rows", "metric_graph.py",
           "    for r in roots + bad:\n",
           "    for r in roots:\n",
           (_CERT_SLACK, _TABLE_GRID)),
    Mutant("table replay summed from the branch end, the offset added last", "metric_graph.py",
           "            X[cpos[a]] = list(rows_of.values())\n"
           "            for w, p, length in _tree_levels(G, a, cpos, nc):\n"
           "                X[w] = X[p] + length\n"
           "            C[rows] = np.minimum(C[rows], X.T)\n",
           "            X[cpos[a]] = 0.0\n"
           "            for w, p, length in _tree_levels(G, a, cpos, nc):\n"
           "                X[w] = X[p] + length\n"
           "            C[rows] = np.minimum(C[rows], X.T + np.array(list(rows_of.values()))[:, None])\n",
           (_TABLE_ROOTS, _TABLE_DELTA)),
    Mutant("table pendant column filled over the root's own walk", "metric_graph.py",
           "            vd[wr, wc] = wd\n",
           "",
           (_TABLE_ROWS, _TABLE + "test_cli_large_graphs[1]")),
    # VR H1: apparent pairs on int32 values, implicit column reduction
    Mutant("VR pivot: last k of least value", "persistence.py",
           "    k = V.argmin(axis=1)\n",
           "    k = V.shape[1] - 1 - V[:, ::-1].argmin(axis=1)\n",
           (_VR_PIVOTS,)),
    Mutant("VR pivot: the edge's own rank dropped from V", "persistence.py",
           "    np.maximum(V, R[i, j][:, None], out=V)\n",
           "",
           (_VR_PIVOTS,)),
    Mutant("VR pivot: k = i and k = j left unmasked", "persistence.py",
           "    V[rows, i] = V[rows, j] = _NO_VALUE\n",
           "",
           (_VR_PIVOTS,)),
    Mutant("VR reduction: equal heap heads not cancelled", "persistence.py",
           "            if not heap or heap[0][0] != key:\n"
           "                return key\n"
           "            pop(heap)\n",
           "            return key\n",
           _VR_ORACLE),
    Mutant("VR reduction: a reduced column stored as its own edge only", "persistence.py",
           "reduced[e] = tuple(edges)",
           "reduced[e] = (e,)",
           _VR_ORACLE),
    Mutant("VR ranks held in int16", "persistence.py",
           "R = np.zeros((n, n), dtype=np.int32)",
           "R = np.zeros((n, n), dtype=np.int16)",
           ("tests/test_persistence.py::TestCofacetPivots::test_at_the_cap",)),
    Mutant("barcode cap checked after the matrix is built", "cli.py",
           "    _check_points(\"VR persistence\", len(_net(G, m).points), _VR_MAX_POINTS)\n",
           "",
           ("tests/test_harness_cli.py::TestCli::test_barcode_cap_before_the_matrix",)),
    # the CLI's error boundary
    Mutant("CLI turns only OSError into exit 2", "cli.py",
           "except (OSError, ValueError) as exc:",
           "except OSError as exc:",
           ("tests/test_harness_cli.py::TestCliFuzz::test_odd_graph_files",)),
    # distance-matrix validation and the correspondence extension
    Mutant("zero-diagonal check only when the whole diagonal is nonzero", "metric_graph.py",
           "if np.diagonal(D).any():",
           "if np.diagonal(D).all():",
           ("tests/test_gh_bounds.py::TestBruteForce::test_rejects_non_metric[DX-diagonal]",
            "tests/test_gh_bounds.py::TestCorrespondence::test_rejects_non_metric[DY-diagonal]",
            "tests/test_gh_bounds.py::TestHyperbolicity::test_rejects_non_metrics[0-0-5.0-zero diagonal]",
            "tests/test_persistence.py::TestVrBarcode::test_input_validation")),
    Mutant("extension distortion growth allows r, not 2r", "harness.py",
           "ext.distortion, corr0.distortion + 2.0 * r)",
           "ext.distortion, corr0.distortion + r)",
           ("tests/test_harness_cli.py::TestCli::test_verify_passes",)),
    Mutant("r_extension thickens by 2r", "gh_bounds.py",
           "np.argwhere(cost <= r + tol)",
           "np.argwhere(cost <= 2.0 * r + tol)",
           ("tests/test_gh_bounds.py::TestRExtension::test_pairs_match_loop",)),
    Mutant("r_extension's min-plus loop takes the max", "gh_bounds.py",
           "np.minimum(cost, corr.DX[:, a, None] + c[:, a], out=cost)",
           "np.maximum(cost, corr.DX[:, a, None] + c[:, a], out=cost)",
           ("tests/test_gh_bounds.py::TestRExtension::test_pairs_match_gather",
            "tests/test_gh_bounds.py::TestRExtension::test_pairs_match_loop")),
    Mutant("distortion's hi block reduced with the min", "gh_bounds.py",
           "for f in (np.maximum, np.minimum)",
           "for f in (np.minimum, np.minimum)",
           ("tests/test_gh_bounds.py::TestCorrespondence::test_distortion_matches_gather",)),
    # a BoundReport's interval read off its certificates
    Mutant("BoundReport.lower takes the least lower", "gh_bounds.py",
           "return max((v for _, v in self.lowers), default=0.0)",
           "return min((v for _, v in self.lowers), default=0.0)",
           ("tests/test_gh_bounds.py::TestBoundReport::test_interval_read_off_certificates",
            "tests/test_gh_bounds.py::TestGraphDistanceBounds::test_cycle_pair_diameter_gap")),
    Mutant("BoundReport.upper takes the largest upper", "gh_bounds.py",
           "return min(v for _, v in self.uppers)",
           "return max(v for _, v in self.uppers)",
           ("tests/test_gh_bounds.py::TestBoundReport::test_interval_read_off_certificates",
            "tests/test_gh_bounds.py::TestDeltaBounds::test_decorated_cycle")),
    Mutant("BoundReport lists reported values after the uppers", "gh_bounds.py",
           "return self.lowers + self.reported + self.uppers",
           "return self.lowers + self.uppers + self.reported",
           ("tests/test_gh_bounds.py::TestBoundReport::test_interval_read_off_certificates",
            "tests/test_gh_bounds.py::TestBoundReport::test_delta_certificate_order")),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_BYTES, _MEMORY_BYTES))


def _run(src: Path, tests: List[str]) -> Dict[str, str]:
    """The outcome (PASSED, FAILED or ERROR) of each test id run against the
    copy at src; a test id that did not run is missing."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import metricgraph; print(metricgraph.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(src)):
        raise RuntimeError(f"metricgraph imported from {where.stdout.strip() or where.stderr}, not {src}")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=_TIMEOUT_S,
            preexec_fn=_limit_memory)
        out = proc.stdout
    except subprocess.TimeoutExpired:
        return {t: "TIMEOUT" for t in tests}
    outcomes: Dict[str, str] = {}
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            for t in tests:
                if rest == t or rest.startswith(t + " "):
                    outcomes[t] = word
    return outcomes


def main(argv: List[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    bad = survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = _copy_src(Path(tmp) / "base")
        tests = sorted({t for m in chosen for t in m.tests})
        outcomes = _run(base, tests)
        for t in tests:
            if outcomes.get(t) != "PASSED":
                print(f"baseline: {t}: {outcomes.get(t, 'did not run')}")
                bad += 1
        if bad:
            return 1
        for k, m in enumerate(chosen):
            src = _copy_src(Path(tmp) / f"m{k}")
            path = src / "metricgraph" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            outcomes = _run(src, list(m.tests))
            alive = [t for t in m.tests if outcomes.get(t) not in ("FAILED", "ERROR")]
            if m.survives:
                if all(outcomes.get(t) == "PASSED" for t in m.tests):
                    survivors += 1
                    print(f"survives {m.name}: {m.survives}")
                else:
                    bad += 1
                    print(f"KILLED   {m.name}: flagged as a known survivor; drop the flag")
                    for t in m.tests:
                        print(f"    {t}: {outcomes.get(t, 'did not run')}")
            elif alive:
                bad += 1
                print(f"SURVIVED {m.name}")
                for t in alive:
                    print(f"    {t}: {outcomes.get(t, 'did not run')}")
            else:
                print(f"killed   {m.name}")
            shutil.rmtree(src.parent)
    if bad:
        print(f"{bad} problem(s)")
    else:
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed, "
              f"{survivors} known survivor(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import collections
import gc
import json
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metricgraph import (
    EdgePath,
    GraphPoint,
    MetricGraph,
    betti_after_smoothing,
    bottleneck_m,
    build_merge_tree,
    delta_n_bounds,
    dghl_bounds,
    distance,
    diameter,
    epsilon_net,
    epsilon_smoothing,
    f_values,
    f_variation,
    finite_metric,
    graph_from_json_obj,
    graph_to_json_obj,
    hyp_graph,
    is_simple_path,
    minimal_cycle_basis,
    monotone_decomposition,
    monotone_subdivision,
    path_length,
    persistence_sequence,
    point_from_json_obj,
    point_to_json_obj,
    quotient_correspondence,
    r_extension,
    shortest_path,
    tree_distortion,
)
from metricgraph import metric_graph
from metricgraph.gromov_tree import _merge_tree_at, _place
from metricgraph.reeb_smoothing import _sweep_at
from metricgraph.harness import EnsembleSpec, random_graph, verify
from metricgraph.metric_graph import (
    _build_monotone_model,
    _model_arrays,
    _net,
    _net_metric,
    _occurrences,
    _repeat_candidates,
    _to_model_point,
    _vd_sym,
    path_end,
    path_from_traversals,
    path_start,
    points_equal,
    validate_path,
)

from conftest import (BUDGET_SPEC, OUTSIDE_FLOAT_WINDOW, TINY_PARALLEL, forbid_net_work,
                      memo_keys, pendant_graphs, random_point, tie_graphs, trees)
from oracles import diameter_pairs, finite_metric_exits, theta_routes

TOL = 1e-9


def segment(length=3.0):
    return MetricGraph(vertices=["u", "v"], edges=[("e", "u", "v", length)])


class TestConstruction:
    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            MetricGraph(vertices=["a", "b"],
                        edges=[("e", "a", "b", 1.0), ("e", "a", "b", 2.0)])

    def test_duplicate_vertex_name(self):
        # a name given twice was one vertex; "1" and 1 are one name
        with pytest.raises(ValueError, match="duplicate vertex name: a"):
            MetricGraph(vertices=["a", "a", "b"], edges=[("e", "a", "b", 1.0)])
        with pytest.raises(ValueError, match="duplicate vertex name: 1"):
            MetricGraph(vertices=[1, "1"], edges=[("e", 1, "1", 1.0)])

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown endpoint"):
            MetricGraph(vertices=["a"], edges=[("e", "a", "z", 1.0)])

    def test_nonpositive_length(self):
        with pytest.raises(ValueError, match="length must be > 0"):
            MetricGraph(vertices=["a", "b"], edges=[("e1", "a", "b", 0.0)])

    def test_bool_length_rejected(self):
        with pytest.raises(ValueError, match="length must be > 0"):
            MetricGraph(vertices=["a", "b"], edges=[("e1", "a", "b", True)])

    @pytest.mark.parametrize("length", [np.int64(2), np.float32(1.5)])
    def test_numpy_lengths(self, length):
        # offsets took any numpy real while lengths took only int and float
        G = MetricGraph(["a", "b"], [("e", "a", "b", length)])
        assert G.edges[0].length == float(length)
        assert type(G.edges[0].length) is float

    @pytest.mark.parametrize("length", [np.True_, float("nan"), float("inf"), "1"],
                             ids=["np.True_", "nan", "inf", "str"])
    def test_rejects_non_lengths(self, length):
        with pytest.raises(ValueError, match=r"edge e: length must be > 0, not "):
            MetricGraph(["a", "b"], [("e", "a", "b", length)])

    @pytest.mark.parametrize("name", sorted(OUTSIDE_FLOAT_WINDOW))
    def test_outside_float_window(self, name):
        # the triangle once failed its monotone subdivision with an
        # AssertionError, the path had an infinite diameter, and the 1e-320
        # edges a tolerance of 0.0, which made every comparison exact
        with pytest.raises(ValueError, match="outside the float window"):
            MetricGraph(*OUTSIDE_FLOAT_WINDOW[name])

    def test_float_window_edges(self):
        # a total length just below the largest float over 1e9, and a
        # longest edge whose tolerance is a normal float
        G = MetricGraph(["a", "b", "c"], [("ab", "a", "b", 8e298), ("bc", "b", "c", 8e298)])
        assert G.total_length == 1.6e299
        assert diameter(G) == pytest.approx(1.6e299, rel=1e-12)
        with pytest.raises(ValueError, match=r"must be at most 1\.79769e\+299"):
            MetricGraph(["a", "b", "c"], [("ab", "a", "b", 9e298), ("bc", "b", "c", 9e298)])
        G = MetricGraph(["a", "b"], [("e1", "a", "b", 1e-290), ("e2", "a", "b", 2e-290)])
        assert G._tol >= sys.float_info.min
        assert distance(G, GraphPoint(edge="e1", offset=0.5e-290), GraphPoint(vertex="b")) == 0.5e-290

    def test_disconnected(self):
        with pytest.raises(ValueError, match="graph not connected"):
            MetricGraph(vertices=["a", "b"], edges=[])

    def test_self_loop_splits_at_midpoint(self):
        G = MetricGraph(vertices=["v"], edges=[("loop", "v", "v", 2.0)])
        assert "loop|m" in G.vertices
        ids = sorted(e.id for e in G.edges)
        assert ids == ["loop|a", "loop|b"]
        assert all(abs(e.length - 1.0) < TOL for e in G.edges)
        assert G.betti1 == 1

    def test_betti1(self, theta, c12):
        assert theta.betti1 == 2
        assert c12.betti1 == 1
        assert segment().betti1 == 0

    def test_incident_edges_in_edge_order(self):
        # parallel edges, a loop split into two halves, and an edge given
        # from its second endpoint: each vertex lists its edges once, in
        # the order they were given
        G = MetricGraph(["a", "b"], [("e1", "a", "b", 1.0), ("e2", "a", "b", 2.0),
                                     ("loop", "b", "b", 1.0), ("e3", "b", "a", 3.0)])
        assert G.incident("a") == ("e1", "e2", "e3")
        assert G.incident("b") == ("e1", "e2", "loop|a", "loop|b", "e3")
        assert G.incident("loop|m") == ("loop|a", "loop|b")
        with pytest.raises(ValueError, match="unknown vertex"):
            G.incident("z")


class TestDistance:
    def test_half_edge(self):
        G = segment(3.0)
        mid = GraphPoint(edge="e", offset=1.5)
        assert abs(distance(G, GraphPoint(vertex="u"), mid) - 1.5) < TOL

    def test_identical_points(self, theta):
        x = GraphPoint(edge="e3", offset=1.2)
        assert distance(theta, x, x) == 0.0

    def test_theta_vertices(self, theta):
        u, v = GraphPoint(vertex="u"), GraphPoint(vertex="v")
        assert abs(distance(theta, u, v) - 1.0) < TOL

    def test_interior_point_routes(self, theta):
        # offset t on e3 from u: direct cost t, around cost f(v) + 3 - t
        u = GraphPoint(vertex="u")
        for t in (0.5, 1.5, 2.5):
            want = float(theta_routes.f_on_edge("e3", t))
            got = distance(theta, u, GraphPoint(edge="e3", offset=t))
            assert abs(got - want) < TOL

    def test_metric_axioms_random(self):
        spec = EnsembleSpec(seed=11, count=8)
        rng = np.random.default_rng(5)
        for i in range(8):
            G = random_graph(spec, i)
            pts = [random_point(G, rng) for _ in range(5)]
            for a in pts:
                for b in pts:
                    dab = distance(G, a, b)
                    assert dab >= -TOL
                    assert abs(dab - distance(G, b, a)) < TOL
                    for c in pts:
                        assert dab <= distance(G, a, c) + distance(G, c, b) + TOL

    def test_invalid_point(self, theta):
        with pytest.raises(ValueError):
            distance(theta, GraphPoint(vertex="zz"), GraphPoint(vertex="u"))

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf"), True])
    def test_bad_offset_rejected(self, theta, offset):
        pt = GraphPoint(edge="e3", offset=offset)
        with pytest.raises(ValueError, match="offset"):
            theta.canonical(pt)
        with pytest.raises(ValueError, match="offset"):
            distance(theta, pt, GraphPoint(vertex="u"))

    def test_canonical_interior_point_returned_as_is(self, theta):
        pt = GraphPoint(edge="e3", offset=1.25)
        assert theta.canonical(pt) is pt
        # other offsets are converted or snapped as before
        wide = GraphPoint(edge="e3", offset=np.float64(1.25))
        assert type(theta.canonical(wide).offset) is float
        assert theta.canonical(wide) == pt
        assert type(theta.canonical(GraphPoint(edge="e3", offset=1)).offset) is float
        assert theta.canonical(GraphPoint(edge="e3", offset=3)) == GraphPoint(vertex="v")
        assert theta.canonical(GraphPoint(edge="e3", offset=3.0 - TOL / 2)) == GraphPoint(vertex="v")
        assert theta.canonical(GraphPoint(edge="e3", offset=TOL)) == GraphPoint(vertex="u")
        with pytest.raises(ValueError, match="outside edge"):
            theta.canonical(GraphPoint(edge="e3", offset=3.5))
        with pytest.raises(ValueError, match="unknown edge"):
            theta.canonical(GraphPoint(edge="zz", offset=1.25))


class TestFValues:
    def test_theta(self, theta):
        f = f_values(theta, GraphPoint(vertex="u"))
        assert f == {"u": 0.0, "v": 1.0}

    def test_single_edge(self):
        f = f_values(segment(5.0), GraphPoint(vertex="u"))
        assert f == {"u": 0.0, "v": 5.0}

    def test_c12_antipode(self, c12):
        f = f_values(c12, GraphPoint(vertex="p"))
        assert abs(f["q"] - 6.0) < TOL


class TestMonotoneSubdivision:
    def test_theta_split_offsets(self, theta):
        H, hosts = monotone_subdivision(theta, GraphPoint(vertex="u"))
        by_host = {}
        for v, (eid, off) in hosts.items():
            by_host[eid] = (v, off)
        assert "e1" not in by_host
        assert abs(by_host["e2"][1] - 1.5) < TOL
        assert abs(by_host["e3"][1] - 2.0) < TOL
        f = f_values(H, GraphPoint(vertex="u"))
        assert abs(f[by_host["e2"][0]] - 1.5) < TOL
        assert abs(f[by_host["e3"][0]] - 2.0) < TOL

    def test_monotone_edge_unsplit(self):
        G = segment(5.0)
        H, hosts = monotone_subdivision(G, GraphPoint(vertex="u"))
        assert hosts == {}
        assert len(H.edges) == 1

    def test_slopes_after_subdivision(self):
        # every refined edge realizes |f(x) - f(x')| = d(x, x')
        spec = EnsembleSpec(seed=23, count=6)
        rng = np.random.default_rng(9)
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[int(rng.integers(len(G.vertices)))])
            H, _ = monotone_subdivision(G, p)
            f = f_values(H, p)
            for e in H.edges:
                assert abs(abs(f[e.u] - f[e.v]) - e.length) < 1e-7


class TestPaths:
    def test_simple_loop_accepted(self, theta):
        assert is_simple_path(theta, path_from_traversals(theta, "u", ["e1"]))
        assert is_simple_path(theta, path_from_traversals(theta, "u", ["e1", "e2"]))

    def test_edge_shorter_than_tolerance(self):
        # steps shorter than the tolerance used to be dropped, leaving
        # v -> w as a path with no steps and no anchor, which every path
        # consumer rejected
        G = MetricGraph(["u", "v", "w"], [("e1", "u", "v", 1.0), ("e2", "v", "w", 1e-10)])
        v, w = GraphPoint(vertex="v"), GraphPoint(vertex="w")
        for a, b in ((v, w), (w, GraphPoint(vertex="u")),
                     (GraphPoint(edge="e1", offset=0.5), w)):
            gamma = shortest_path(G, a, b)
            validate_path(G, gamma)
            assert path_start(G, gamma) == a and path_end(G, gamma) == b
            assert path_length(G, gamma) == distance(G, a, b)
            for p in (GraphPoint(vertex="u"), v, w):
                segs = monotone_decomposition(G, p, gamma)
                assert sum(path_length(G, s) for s in segs) == pytest.approx(
                    path_length(G, gamma), rel=1e-12)
                assert f_variation(G, p, gamma) == pytest.approx(
                    path_length(G, gamma), rel=1e-6)
        with pytest.raises(ValueError, match="zero-length step"):
            validate_path(G, EdgePath(steps=(("e2", 0.0, 0.0),)))

    def test_step_below_rounding_joins_its_piece(self):
        # along e2, d(u, .) moves by less than an ulp of 1, so the step has
        # no direction; it must not split the one increasing piece
        G = MetricGraph(["u", "v", "w", "x"], [("e1", "u", "v", 1.0),
                                               ("e2", "v", "w", 1e-17),
                                               ("e3", "w", "x", 1.0)])
        u, x = GraphPoint(vertex="u"), GraphPoint(vertex="x")
        gamma = shortest_path(G, u, x)
        assert len(gamma.steps) == 3
        assert monotone_decomposition(G, u, gamma) == [gamma]
        # a path that starts with the flat step
        gamma = shortest_path(G, GraphPoint(vertex="v"), x)
        assert monotone_decomposition(G, u, gamma) == [gamma]

    def test_shortest_path_realizes_distance(self):
        spec = EnsembleSpec(seed=37, count=6)
        rng = np.random.default_rng(3)
        for i in range(6):
            G = random_graph(spec, i)
            for _ in range(4):
                a, b = random_point(G, rng), random_point(G, rng)
                gamma = shortest_path(G, a, b)
                assert abs(path_length(G, gamma) - distance(G, a, b)) < TOL


@st.composite
def ensemble_graphs(draw):
    spec = EnsembleSpec(seed=draw(st.integers(0, 10_000)), count=1,
                        vertex_range=(2, 30), beta1_range=(0, 6))
    G = random_graph(spec, 0)
    return list(G.vertices), [(e.id, e.u, e.v, e.length) for e in G.edges]


@st.composite
def point_pairs(draw, G):
    """A vertex/vertex, vertex/interior, interior/interior or same-edge
    pair of points of G."""
    kind = draw(st.sampled_from(["vv", "vi", "ii", "same"]))
    if not G.edges:
        kind = "vv"

    def interior(e):
        return GraphPoint(edge=e.id, offset=draw(st.floats(0.0, 1.0)) * e.length)

    def vertex():
        return GraphPoint(vertex=draw(st.sampled_from(G.vertices)))

    edge = st.sampled_from(G.edges)
    if kind == "same":
        e = draw(edge)
        return interior(e), interior(e)
    a = vertex() if kind != "ii" else interior(draw(edge))
    b = vertex() if kind == "vv" else interior(draw(edge))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def point_lists(draw, G):
    """Up to 12 points of G: vertices, interior points (several may share an
    edge), offsets within the graph's tolerance of an end, np.float64
    offsets and repeats."""
    pts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["vertex", "interior", "near end", "float64", "repeat"]))
        if kind == "repeat" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "vertex" or not G.edges:
            pts.append(GraphPoint(vertex=draw(st.sampled_from(G.vertices))))
        else:
            e = draw(st.sampled_from(G.edges))
            if kind == "near end":
                t = draw(st.sampled_from([0.0, e.length])) + draw(st.floats(-G._tol, G._tol))
            else:
                t = draw(st.floats(0.0, 1.0)) * e.length
            pts.append(GraphPoint(edge=e.id, offset=np.float64(t) if kind == "float64" else t))
    return pts


class TestShortestPathProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(tie_graphs(), ensemble_graphs()), st.data())
    def test_geodesic(self, graph, data):
        G = MetricGraph(*graph)
        a, b = data.draw(point_pairs(G))
        gamma = shortest_path(G, a, b)
        validate_path(G, gamma)
        assert points_equal(G, path_start(G, gamma), a)
        assert points_equal(G, path_end(G, gamma), b)
        assert is_simple_path(G, gamma)
        assert path_length(G, gamma) == pytest.approx(distance(G, a, b), rel=1e-12)
        # the cached trees built by other layers give the same geodesic
        warm = MetricGraph(*graph)
        diameter(warm)
        minimal_cycle_basis(warm)
        assert shortest_path(warm, a, b) == gamma

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_tiny_parallel_edges(self, k):
        s = 2.0 ** k
        verts, edges = TINY_PARALLEL
        G = MetricGraph(verts, [(i, u, v, L * s) for (i, u, v, L) in edges])
        x, y = GraphPoint(vertex="x"), GraphPoint(vertex="y")
        assert distance(G, x, y) == 1e-17 * s
        assert shortest_path(G, x, y) == EdgePath(steps=(("b", 0.0, 1e-17 * s),))


class TestMonotoneDecomposition:
    def test_monotone_path_single_segment(self):
        G = segment(5.0)
        gamma = path_from_traversals(G, "u", ["e"])
        segs = monotone_decomposition(G, GraphPoint(vertex="u"), gamma)
        assert len(segs) == 1

    def test_over_the_top(self, c12):
        # walk one arc from p to the antipode: up then nothing else
        gamma = path_from_traversals(c12, "p", ["arc1"])
        p_interior = GraphPoint(edge="arc2", offset=3.0)
        segs = monotone_decomposition(c12, p_interior, gamma)
        assert len(segs) == 2

    def test_theta_profile(self, theta):
        # v -e2-> u -e3-> v crosses both peaks
        want_segs, want_var = theta_routes.monotone_segment_count_and_variation()
        gamma = path_from_traversals(theta, "v", ["e2", "e3"])
        p = GraphPoint(vertex="u")
        segs = monotone_decomposition(theta, p, gamma)
        assert len(segs) == want_segs
        assert abs(f_variation(theta, p, gamma) - float(want_var)) < TOL
        assert len(segs) <= 2 * theta.betti1 + 2

    def test_count_bound_and_geodesic_sum(self):
        spec = EnsembleSpec(seed=41, count=8)
        rng = np.random.default_rng(17)
        for i in range(8):
            G = random_graph(spec, i)
            p = random_point(G, rng)
            bound = 2 * G.betti1 + 2
            for _ in range(4):
                a, b = random_point(G, rng), random_point(G, rng)
                gamma = shortest_path(G, a, b)
                segs = monotone_decomposition(G, p, gamma)
                assert len(segs) <= bound
                total = sum(f_variation(G, p, s) for s in segs)
                assert abs(total - distance(G, a, b)) < 1e-7

    def test_rejects_non_simple(self, theta):
        gamma = path_from_traversals(theta, "u", ["e1", "e1", "e1"])
        with pytest.raises(ValueError, match="not simple"):
            monotone_decomposition(theta, GraphPoint(vertex="u"), gamma)


class TestFVariation:
    def test_single_edge(self):
        G = segment(5.0)
        gamma = path_from_traversals(G, "u", ["e"])
        assert abs(f_variation(G, GraphPoint(vertex="u"), gamma) - 5.0) < TOL

    def test_constant_path(self, theta):
        gamma = EdgePath(steps=(), anchor=GraphPoint(vertex="v"))
        assert f_variation(theta, GraphPoint(vertex="u"), gamma) == 0.0

    def test_variation_equals_length_random(self):
        spec = EnsembleSpec(seed=53, count=6)
        rng = np.random.default_rng(29)
        for i in range(6):
            G = random_graph(spec, i)
            p = random_point(G, rng)
            for _ in range(4):
                a, b = random_point(G, rng), random_point(G, rng)
                gamma = shortest_path(G, a, b)
                rel = max(1.0, path_length(G, gamma))
                assert abs(f_variation(G, p, gamma) - path_length(G, gamma)) / rel < 1e-9


class TestEpsilonNet:
    def test_single_edge_endpoints(self):
        net = epsilon_net(segment(1.0), 1.0)
        assert sorted(pt.vertex for pt in net) == ["u", "v"]

    def test_single_edge_interior(self):
        net = epsilon_net(segment(1.0), 0.4)
        offsets = sorted(pt.offset for pt in net if pt.edge == "e")
        assert len(offsets) == 2
        assert max(b - a for a, b in zip([0.0] + offsets, offsets + [1.0])) <= 0.4 + TOL

    def test_c12_count_and_coverage(self, c12):
        net = epsilon_net(c12, 0.5)
        assert len(net) >= 24
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_point(c12, rng)
            assert min(distance(c12, x, y) for y in net) <= 0.5 + TOL

    def test_requires_positive_eps(self, theta):
        with pytest.raises(ValueError):
            epsilon_net(theta, 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tie_graphs(), st.sampled_from([2.0 ** -40, 1.0, 2.0 ** 40]),
           st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0, 1.7]))
    def test_points_are_canonical(self, graph, scale, frac):
        # an interior point lies at least eps/2 inside its edge, beyond the
        # tolerance, so canonical() hands every point back as it is
        vertices, edges = graph
        G = MetricGraph(vertices, [(k, u, v, L * scale) for (k, u, v, L) in edges])
        eps = frac * scale
        for x in epsilon_net(G, eps):
            assert G.canonical(x) is x
            if x.edge is not None:
                assert min(x.offset, G.edge(x.edge).length - x.offset) >= eps / 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tie_graphs(), st.sampled_from([2.0 ** -40, 1.0, 2.0 ** 40]),
           st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0, 1.7, float("inf")]))
    def test_matches_point_loop(self, graph, scale, frac):
        # the net is laid out with arrays; the point loop it replaced is
        # the reference, float for float
        vertices, edges = graph
        G = MetricGraph(vertices, [(k, u, v, L * scale) for (k, u, v, L) in edges])
        eps = frac * scale
        want = [GraphPoint(vertex=v) for v in G.vertices]
        for e in G.edges:
            m = int(math.ceil(e.length / eps - 1e-12))
            want += [GraphPoint(edge=e.id, offset=e.length * k / m) for k in range(1, m)]
        got = epsilon_net(G, eps)
        assert got == want
        assert all(type(x.offset) is float for x in got)
        assert list(metric_graph._net(G, eps).points) == want


class TestEpsilonNetMemo:
    """``epsilon_net`` reads a net G's memo holds, and files none it builds."""

    def test_mesh_search_files_nothing(self):
        G = random_graph(BUDGET_SPEC, 0)
        lo, hi = 0.0, max(e.length for e in G.edges)
        for _ in range(60):  # perfbench's bisection for a 160-point net
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if len(epsilon_net(G, mid)) <= 160 else (mid, hi)
        assert memo_keys(G, _net) == []

    def test_filed_net_read_back(self):
        G = random_graph(BUDGET_SPEC, 0)
        mesh = 0.1
        unfiled = epsilon_net(G, mesh)
        _net_metric(G, mesh)
        filed = _net(G, mesh)
        assert memo_keys(G, _net) == [(mesh,)]
        got = epsilon_net(G, np.float64(mesh))
        assert got == unfiled == list(filed.points)
        assert all(x is y for x, y in zip(got, filed.points))


def path_graph(n: int) -> MetricGraph:
    return MetricGraph([f"v{k}" for k in range(n)],
                       [(f"e{k}", f"v{k}", f"v{k + 1}", 1.0) for k in range(n - 1)])


class TestNetBudget:
    """Every net is counted against one budget, _NET_POINTS, from its
    interval counts, before any point, tree or block is built."""

    @pytest.mark.parametrize("call", [
        lambda G, p, S, mesh: epsilon_net(G, mesh),
        lambda G, p, S, mesh: hyp_graph(G, mesh),
        lambda G, p, S, mesh: tree_distortion(G, p, mesh),
        lambda G, p, S, mesh: quotient_correspondence(G, S, mesh),
        lambda G, p, S, mesh: delta_n_bounds(G, 0, p, mesh),
    ], ids=["epsilon_net", "hyp_graph", "tree_distortion", "quotient_correspondence",
            "delta_n_bounds"])
    def test_over_budget_refused_before_layout(self, monkeypatch, call):
        G = random_graph(BUDGET_SPEC, 0)
        p = GraphPoint(vertex=G.vertices[0])
        S = epsilon_smoothing(G, p, 1.5 * persistence_sequence(G).a(1))
        forbid_net_work(monkeypatch)
        with pytest.raises(ValueError, match="too many points for an epsilon-net: "
                                             "6891 > 5000; use a coarser mesh"):
            call(G, p, S, 0.02)
        # a refused net is not memoised
        assert memo_keys(G, _net) == []

    def test_tree_distortion_refuses_before_the_model(self):
        G = random_graph(BUDGET_SPEC, 0)
        with pytest.raises(ValueError, match="too many points for an epsilon-net"):
            tree_distortion(G, GraphPoint(vertex=G.vertices[0]), 0.02)
        for builder in (_build_monotone_model, _merge_tree_at, _model_arrays):
            assert memo_keys(G, builder) == [], builder.__name__

    @pytest.mark.parametrize("eps", [5e-324, 1e-300])
    def test_tiny_mesh_counted_without_overflow(self, theta, eps):
        # length / eps is inf or near the float limit: counted in floats, it
        # is refused with no overflow or invalid cast on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too many points for an epsilon-net"):
                epsilon_net(theta, eps)

    def test_vertices_count(self):
        # every vertex is a net point, so a graph with more vertices than
        # the budget has no net at all, and one with as many has its own
        with pytest.raises(ValueError, match="5001 > 5000"):
            epsilon_net(path_graph(5001), math.inf)
        G = path_graph(5000)
        assert epsilon_net(G, math.inf) == [GraphPoint(vertex=v) for v in G.vertices]


class TestFiniteMetric:
    def test_two_points(self):
        G = segment(3.0)
        D = finite_metric(G, [GraphPoint(vertex="u"), GraphPoint(vertex="v")])
        assert np.allclose(D, [[0, 3], [3, 0]])

    def test_equally_spaced_on_circle(self, c12):
        pts = [GraphPoint(vertex="p"),
               GraphPoint(edge="arc1", offset=3.0),
               GraphPoint(vertex="q"),
               GraphPoint(edge="arc2", offset=3.0)]
        D = finite_metric(c12, pts)
        off = sorted(set(np.round(D[np.triu_indices(4, 1)], 9)))
        assert off == [3.0, 6.0]

    def test_duplicate_point(self, theta):
        u = GraphPoint(vertex="u")
        D = finite_metric(theta, [u, u, GraphPoint(vertex="v")])
        assert D[0, 1] == 0.0
        assert abs(D[0, 2] - D[1, 2]) < TOL

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(tie_graphs(), ensemble_graphs()), st.integers(-30, 30),
           st.randoms(use_true_random=False), st.sampled_from(["cold", "full", "part"]),
           st.data())
    def test_matches_exit_gathers(self, graph, k, rnd, warm, data):
        # scaled by 2^k and relabelled, which changes the vertex order and
        # so which root's tree each table entry is read from
        verts, edges = graph
        names = [f"r{i}" for i in range(len(verts))]
        rnd.shuffle(names)
        name = dict(zip(verts, names))
        G = MetricGraph([name[v] for v in verts],
                        [(i, name[u], name[v], L * 2.0 ** k) for (i, u, v, L) in edges])
        pts = data.draw(point_lists(G))
        if warm == "full":
            diameter(G)  # fills the whole table first
        elif warm == "part":
            finite_metric(G, pts[::2])  # fills some of the rows first
        D = finite_metric(G, pts)
        assert np.array_equal(D, finite_metric_exits.finite_metric(G, pts))
        assert np.array_equal(D, finite_metric(G, pts))
        assert D.shape == (len(pts), len(pts))

    def test_builds_only_the_exits_trees(self):
        spec = EnsembleSpec(seed=1, count=1, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        a, b = G.edges[0], G.edges[-1]
        D = finite_metric(G, [GraphPoint(edge=a.id, offset=a.length / 2.0),
                              GraphPoint(edge=b.id, offset=b.length / 3.0)])
        assert D.shape == (2, 2)
        assert len(memo_keys(G, MetricGraph._sp_tree)) <= 4


def assert_table_is_trees(G: MetricGraph):
    """The whole vertex table, as ``_vd_sym`` fills it, has each row ``==``
    to its root's shortest-path tree."""
    _vd_sym(G)
    T, filled = G._vd_table()
    assert filled.all()
    for k in range(len(G.vertices)):
        assert T[k].tolist() == G._sp_tree(k).dist, k


class TestTreeTable:
    """A tree's whole vertex-distance table, filled by the branch-root
    replay on its one-vertex core, is ``==`` to its shortest-path trees'
    rows."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(trees())
    def test_matches_sp_trees(self, tree):
        assert_table_is_trees(MetricGraph(*tree))

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_smallest_trees(self, k):
        assert_table_is_trees(MetricGraph(["u"], []))
        G = MetricGraph(["v", "u"], [("e", "v", "u", 1.5 * 2.0 ** k)])
        assert_table_is_trees(G)
        assert G._vd_table()[0].tolist() == [[0.0, 1.5 * 2.0 ** k], [1.5 * 2.0 ** k, 0.0]]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_large_quotients(self, seed):
        # the tree S that delta_n_bounds(n=0) smooths the cli-large graph to
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        eps = 1.5 * persistence_sequence(G).a(1)
        S = epsilon_smoothing(G, GraphPoint(vertex=G.vertices[0]), eps).graph
        assert S.betti1 == 0 and len(S.vertices) > 200
        assert_table_is_trees(S)

    def test_builds_the_core_tree_only(self):
        spec = EnsembleSpec(seed=5, count=1, vertex_range=(40, 40), beta1_range=(0, 0))
        G = random_graph(spec, 0)
        fresh = MetricGraph(G.vertices, [(e.id, e.u, e.v, e.length) for e in G.edges])
        _vd_sym(fresh)
        core = fresh._kernel().core
        assert memo_keys(fresh, MetricGraph._sp_tree) == [(core[0],)] and len(core) == 1
        net = epsilon_net(G, 0.5)
        assert np.array_equal(finite_metric(G, net), finite_metric_exits.finite_metric(G, net))
        assert diameter(G) == diameter_pairs.diameter(G)
        assert_table_is_trees(G)


def deep_pendant_graphs() -> list:
    """A triangle with a 300-vertex pendant path, a 300-vertex path, and a
    star of six 50-vertex paths, as (vertices, edges), with lengths from
    {0.1, 0.2, 0.3} so the sums along a path round."""
    def path(names, top):
        return [(f"e{y}", x, y, 0.1 * (1 + k % 3)) for k, (x, y) in enumerate(zip([top] + names, names))]

    p = [f"p{k}" for k in range(300)]
    triangle = [("ab", "a", "b", 1.0), ("bc", "b", "c", 1.3), ("ca", "c", "a", 0.7)]
    arms = [[f"s{i}_{k}" for k in range(50)] for i in range(6)]
    return [(["a", "b", "c"] + p, triangle + path(p, "a")),
            (p, path(p[1:], "p0")),
            (["o"] + sum(arms, []), sum((path(arm, "o") for arm in arms), []))]


DEEP_PENDANT = deep_pendant_graphs()


def grid_with_pendants(k: int) -> MetricGraph:
    """A k x k grid, rows of 0.1 and columns of 0.2, with a pendant edge
    of 0.3 on every vertex. Routes of equal length sum their edges in
    different orders, so rows replayed from a branch root's tree differ
    by an ulp from some roots' own trees."""
    V = [f"g{i}_{j}" for i in range(k) for j in range(k)]
    E = [(f"h{i}_{j}", f"g{i}_{j}", f"g{i + 1}_{j}", 0.1)
         for i in range(k - 1) for j in range(k)]
    E += [(f"v{i}_{j}", f"g{i}_{j}", f"g{i}_{j + 1}", 0.2)
          for i in range(k) for j in range(k - 1)]
    E += [(f"p{x}", x, f"q{x}", 0.3) for x in list(V)]
    return MetricGraph(V + [f"q{x}" for x in V], E)


class TestReplayedTable:
    """``_vd_sym`` fills the whole table from the branch roots' trees, and
    every row it keeps is certified ``==`` to its root's own tree."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(tie_graphs(), pendant_graphs(), ensemble_graphs()),
           st.sampled_from([-60, 0, 60]))
    @example(DEEP_PENDANT[0], -60)
    @example(DEEP_PENDANT[0], 0)
    @example(DEEP_PENDANT[0], 60)
    @example(DEEP_PENDANT[1], -60)
    @example(DEEP_PENDANT[1], 0)
    @example(DEEP_PENDANT[1], 60)
    @example(DEEP_PENDANT[2], -60)
    @example(DEEP_PENDANT[2], 0)
    @example(DEEP_PENDANT[2], 60)
    def test_rows_are_trees(self, graph, k):
        vertices, edges = graph
        assert_table_is_trees(MetricGraph(vertices, [(i, u, v, L * 2.0 ** k)
                                                     for (i, u, v, L) in edges]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_large_graphs(self, seed):
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        assert_table_is_trees(random_graph(spec, 0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ensemble_graphs())
    def test_only_branch_roots_on_tie_free_graphs(self, graph):
        G = MetricGraph(*graph)
        _vd_sym(G)
        assert sorted(memo_keys(G, MetricGraph._sp_tree)) == [(r,) for r in G._kernel().roots]

    def test_fresh_delta_builds_branch_trees_only(self):
        # the cycle basis and the net block read the same 43 trees
        spec = EnsembleSpec(seed=1, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        delta_n_bounds(G, 0, GraphPoint(vertex=G.vertices[0]), G.total_length / 150)
        assert sorted(memo_keys(G, MetricGraph._sp_tree)) == [(r,) for r in G._kernel().roots]
        assert len(G._kernel().roots) == 43

    def test_certificate_honours_the_slack(self):
        # Dijkstra from s sets w to 10 through edge sw first and keeps it:
        # the route through u is one ulp shorter, within the slack. So the
        # row of exact minima is not Dijkstra's row, and Dijkstra's own row
        # has an offer within the slack of its value: the certificate is
        # sufficient, not necessary, and passes neither
        G = MetricGraph(["s", "u", "w"], [("sw", "s", "w", 10.0), ("su", "s", "u", 4.0),
                                         ("uw", "u", "w", 6.0 - 2.0 ** -49)])
        assert G._sp_tree(0).dist == [0.0, 4.0, 10.0]
        rows = np.array([[0.0, 4.0, 10.0], [0.0, 4.0, 10.0 - 2.0 ** -49]])
        assert metric_graph._certified(G, rows, [0, 0]) == [0, 1]
        # s is the root; w's candidate reaches s one ulp low, so its row is
        # rebuilt, and u's is kept
        _vd_sym(G)
        assert memo_keys(G, MetricGraph._sp_tree) == [(0,), (2,)]
        assert_table_is_trees(G)

    def test_certificate_needs_a_lower_parent(self):
        # 9 absorbs the edge vw, so v and w, both too low, would pass for
        # each other's parent; neither has a parent below it
        G = MetricGraph(["s", "v", "w"], [("sv", "s", "v", 10.0), ("sw", "s", "w", 10.0),
                                         ("vw", "v", "w", 1e-20)])
        assert G._sp_tree(0).dist == [0.0, 10.0, 10.0]
        rows = np.array([[0.0, 10.0, 10.0], [0.0, 9.0, 9.0]])
        assert metric_graph._certified(G, rows, [0, 0]) == [1]
        assert_table_is_trees(G)

    def test_grid_rows_fall_back(self):
        G = grid_with_pendants(5)
        _vd_sym(G)
        roots = G._kernel().roots
        built = {k for (k,) in memo_keys(G, MetricGraph._sp_tree)}
        assert built > set(roots)
        assert_table_is_trees(G)


class CountingMemo(dict):
    """A memo that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


class TestMemo:
    """Everything a graph derives is built once per (graph, key) in its
    memo, shared by every later call, and kept nowhere else."""

    SPEC = EnsembleSpec(seed=113, count=1, beta1_range=(2, 3))

    @staticmethod
    def queries(G):
        p = GraphPoint(vertex=G.vertices[0])
        e = G.edges[-1]
        q = GraphPoint(edge=e.id, offset=0.4 * e.length)
        d = G.edge(G.incident(p.vertex)[0])
        p_end = GraphPoint(edge=d.id, offset=0.0 if d.u == p.vertex else d.length)
        diam = diameter(G)
        return {
            "diameter": diam,
            "basis": minimal_cycle_basis(G),
            "sequence": persistence_sequence(G),
            "tree p": build_merge_tree(G, p),
            "tree q": build_merge_tree(G, q),
            "m": bottleneck_m(G, p, q, GraphPoint(vertex=G.vertices[-1])),
            "td": tree_distortion(G, q, 0.2 * diam),
            "smoothing": epsilon_smoothing(G, p, 0.3 * diam).to_json_obj(),
            # the same canonical p and eps, given as an edge end and a
            # numpy float
            "betti": betti_after_smoothing(G, p_end, np.float64(0.3 * diam)),
        }

    def test_each_builder_runs_once(self):
        G = random_graph(self.SPEC, 0)
        G._memo = memo = CountingMemo()
        first = self.queries(G)
        kept = dict(memo)
        second = self.queries(G)
        assert second == first
        for name in ("diameter", "sequence", "tree p", "tree q"):
            assert second[name] is first[name], name
        assert set(memo.stores.values()) == {1}
        assert memo.keys() == kept.keys()
        assert all(memo[k] is v for k, v in kept.items())
        assert {k[0].__name__ for k in memo} == {
            "_kernel", "_sp_tree", "_vd_table", "diameter", "_cycle_lengths",
            "persistence_sequence", "_build_monotone_model", "_merge_tree_at",
            "_sweep_at", "_net", "_net_metric", "_vd_sym", "_model_arrays",
            "_net_places"}
        # one model and one merge tree per canonical basepoint, and one
        # sweep that the smoothing and its Betti number share
        assert len(memo_keys(G, _merge_tree_at)) == 2
        assert len(memo_keys(G, _build_monotone_model)) == 2
        assert len(memo_keys(G, _sweep_at)) == 1

    def test_one_smoothing_per_key(self):
        # the canonical basepoint and float(eps) key the smoothing, so an
        # edge end and a numpy float reach the object a vertex and a float did
        G = random_graph(self.SPEC, 0)
        p = GraphPoint(vertex=G.vertices[0])
        d = G.edge(G.incident(p.vertex)[0])
        p_end = GraphPoint(edge=d.id, offset=0.0 if d.u == p.vertex else d.length)
        eps = 0.3 * diameter(G)
        S = epsilon_smoothing(G, p, eps)
        assert epsilon_smoothing(G, p, eps) is S
        assert epsilon_smoothing(G, p_end, np.float64(eps)) is S
        assert S.graph is S.graph
        assert betti_after_smoothing(G, p_end, eps) == S.graph.betti1
        assert epsilon_smoothing(G, p, 0.5 * eps) is not S
        assert memo_keys(G, _sweep_at) == [(p, eps), (p, 0.5 * eps)]

    def test_one_net_per_mesh(self):
        # the quotient correspondence, the merge-tree distortion and the
        # net hyperbolicity at one mesh share one net and its block, and a
        # numpy float mesh reaches the net a float built
        G = random_graph(self.SPEC, 0)
        p = GraphPoint(vertex=G.vertices[0])
        mesh = 0.2 * diameter(G)
        corr = quotient_correspondence(G, epsilon_smoothing(G, p, 0.3 * diameter(G)), mesh)
        tree_distortion(G, p, np.float64(mesh))
        hyp_graph(G, np.float64(mesh))
        assert memo_keys(G, _net) == [(mesh,)]
        assert memo_keys(G, _net_metric) == [(mesh,)]
        assert type(memo_keys(G, _net)[0][0]) is float
        net = _net(G, mesh)
        assert list(net.points) == epsilon_net(G, mesh)
        D = _net_metric(G, mesh)
        assert np.array_equal(D, finite_metric(G, net.points))
        assert np.array_equal(corr.DX[:len(D), :len(D)], D)
        assert not D.flags.writeable

    def test_smoothings_do_not_keep_their_graph_alive(self):
        # each smoothing in G's memo points back to G, weakly: no cycle, so
        # G goes with its last reference, before any collection, and a
        # smoothing that outlives it belongs to no other graph
        G = random_graph(self.SPEC, 0)
        p = GraphPoint(vertex=G.vertices[0])
        eps = 0.3 * diameter(G)
        S = epsilon_smoothing(G, p, eps)
        quotient_correspondence(G, S, eps)
        betti_after_smoothing(G, p, 0.5 * eps)
        ref = weakref.ref(G)
        gc.disable()
        try:
            del G
            assert ref() is None
        finally:
            gc.enable()
        with pytest.raises(ValueError, match="provenance"):
            quotient_correspondence(random_graph(self.SPEC, 0), S, eps)

    def test_reread_graph_rebuilds_everything(self):
        G = random_graph(self.SPEC, 0)
        first = self.queries(G)
        H = graph_from_json_obj(json.loads(json.dumps(graph_to_json_obj(G))))
        assert H._memo == {}
        assert self.queries(H) == first
        assert H._memo.keys() == G._memo.keys()
        assert all(H._memo[k] is not v for k, v in G._memo.items())

    @staticmethod
    def built_graphs(monkeypatch):
        built, init = [], MetricGraph.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(MetricGraph, "__init__", record)
        return built

    def test_verify_adds_no_attribute(self, monkeypatch, theta):
        fields = set(vars(theta))
        built = self.built_graphs(monkeypatch)
        verify(EnsembleSpec(seed=10, count=3))
        assert len(built) > 3
        assert all(set(vars(G)) == fields for G in built)

    def test_delta_adds_no_attribute(self, monkeypatch, theta):
        fields = set(vars(theta))
        G = random_graph(EnsembleSpec(seed=1, count=1, vertex_range=(300, 300),
                                      beta1_range=(40, 40)), 0)
        built = self.built_graphs(monkeypatch)
        delta_n_bounds(G, 0, GraphPoint(vertex=G.vertices[0]))
        assert len(built) > 1
        assert all(set(vars(H)) == fields for H in [G] + built)


class TestJson:
    def test_graph_roundtrip(self, theta):
        obj = graph_to_json_obj(theta)
        H = graph_from_json_obj(json.loads(json.dumps(obj)))
        assert sorted(H.vertices) == sorted(theta.vertices)
        assert {(e.id, e.length) for e in H.edges} == {(e.id, e.length) for e in theta.edges}

    def test_graph_schema_error(self):
        with pytest.raises(ValueError, match="vertices"):
            graph_from_json_obj({"edges": []})

    @pytest.mark.parametrize("obj, message", [
        # loaded as one vertex "1" with a loop (beta_1 = 1)
        ({"vertices": [1, "1"], "edges": [{"id": "e", "u": 1, "v": "1", "length": 1.0}]},
         "vertex name must be a string, not 1"),
        # loaded as two vertices
        ({"vertices": ["a", "a", "b"], "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}]},
         "duplicate vertex name: a"),
        # true, null and 1.5 became the names "True", "None" and "1.5"
        ({"vertices": [True, "b"], "edges": []}, "vertex name must be a string, not True"),
        ({"vertices": ["a", "b"], "edges": [{"id": None, "u": "a", "v": "b", "length": 1.0}]},
         "edge id must be a string, not None"),
        ({"vertices": ["a", "1.5"], "edges": [{"id": "e", "u": "a", "v": 1.5, "length": 1.0}]},
         "edge v must be a string, not 1.5"),
    ])
    def test_graph_ids_rejected(self, obj, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_json_obj(json.loads(json.dumps(obj)))

    def test_point_roundtrip(self):
        for pt in (GraphPoint(vertex="a"), GraphPoint(edge="e", offset=0.25)):
            assert point_from_json_obj(point_to_json_obj(pt)) == pt

    def test_point_bool_offset_rejected(self):
        with pytest.raises(ValueError, match="bool"):
            point_from_json_obj({"edge": "e", "offset": True})

    def test_point_schema_error(self):
        with pytest.raises(ValueError, match="vertex|edge"):
            point_from_json_obj({"offset": 1.0})


def test_diameter_matches_fine_net(theta, c12):
    for G in (theta, c12):
        net = epsilon_net(G, 0.02)
        D = finite_metric(G, net)
        assert D.max() <= diameter(G) + TOL
        assert D.max() >= diameter(G) - 0.05


@pytest.mark.parametrize("bad", [float("nan"), -1.0, True, np.True_])
@pytest.mark.parametrize("call, name", [
    (lambda G, p, x: epsilon_net(G, x), "eps"),
    (lambda G, p, x: epsilon_smoothing(G, p, x), "eps"),
    (lambda G, p, x: betti_after_smoothing(G, p, x), "eps"),
    (lambda G, p, x: quotient_correspondence(G, epsilon_smoothing(G, p, 0.5), x), "mesh"),
    (lambda G, p, x: tree_distortion(G, p, x), "mesh"),
    (lambda G, p, x: dghl_bounds(G, G, quotient_correspondence(
        G, epsilon_smoothing(G, p, 0.5), 1.0), x), "mesh"),
    (lambda G, p, x: delta_n_bounds(G, 0, p, x), "mesh"),
    (lambda G, p, x: hyp_graph(G, x), "mesh"),
    # a bare "r" would also match "correspondence has no pairs"
    (lambda G, p, x: r_extension(quotient_correspondence(
        G, epsilon_smoothing(G, p, 0.5), 1.0), x), "r must be"),
], ids=["epsilon_net", "epsilon_smoothing", "betti_after_smoothing",
        "quotient_correspondence", "tree_distortion", "dghl_bounds", "delta_n_bounds",
        "hyp_graph", "r_extension"])
def test_bad_scale_rejected(theta, call, name, bad):
    # NaN compares false with everything, so it must fail the check itself,
    # not slip through to a misleading error further in; a bool is not a
    # length, as for edge lengths
    with pytest.raises(ValueError, match=name):
        call(theta, GraphPoint(vertex="u"), bad)


@pytest.mark.parametrize("call", [
    lambda G, p, x: dghl_bounds(G, G, quotient_correspondence(
        G, epsilon_smoothing(G, p, 0.5), 1.0), x),
    lambda G, p, x: delta_n_bounds(G, 0, p, x),
    lambda G, p, x: hyp_graph(G, x),
], ids=["dghl_bounds", "delta_n_bounds", "hyp_graph"])
def test_mesh_with_infinite_net_term_rejected(theta, call):
    # 4 * 1e308 overflows: hyp_graph's error and two of delta_n_bounds'
    # uppers were inf
    with pytest.raises(ValueError, match="mesh must be at most"):
        call(theta, GraphPoint(vertex="u"), 1e308)


@pytest.mark.parametrize("k", [4.0, 1.0])
def test_epsilon_net_rejects_tolerance_scale(theta, monkeypatch, k):
    # at 4 tolerances the longest edge alone would get 2.5e8 points; with
    # no net to lay out, a net that skips the check fails at once
    def no_points(*args, **kwargs):
        raise AssertionError("epsilon_net laid out its points")

    monkeypatch.setattr(metric_graph, "_net_at", no_points)
    with pytest.raises(ValueError, match="eps"):
        epsilon_net(theta, k * theta._tol)


@pytest.mark.parametrize("call", [epsilon_smoothing, betti_after_smoothing])
def test_infinite_eps_rejected(theta, call):
    # S at an infinite scale has no finite edges; the sweep alone would
    # read beta = 0 from it
    with pytest.raises(ValueError, match="eps must be a finite number"):
        call(theta, GraphPoint(vertex="u"), float("inf"))


def test_infinite_mesh_gives_vertex_net(theta):
    assert epsilon_net(theta, float("inf")) == [GraphPoint(vertex=v) for v in theta.vertices]


class TestCanonicalOnce:
    """Helpers take canonical points: none hands a point it is given to
    MetricGraph.canonical, and a point a helper builds comes out canonical."""

    @pytest.fixture
    def canonicalised(self, monkeypatch):
        # ids of the points handed to canonical(); the points under test
        # stay alive, so no other object can share their ids
        ids = []
        canonical = MetricGraph.canonical

        def recording(G, pt):
            ids.append(id(pt))
            return canonical(G, pt)

        monkeypatch.setattr(MetricGraph, "canonical", recording)
        return ids

    @pytest.mark.parametrize("p", [GraphPoint(vertex="u"), GraphPoint(edge="e3", offset=0.75)])
    def test_helpers_take_canonical_points(self, theta, canonicalised, p):
        G = theta
        S = epsilon_smoothing(G, p, 1.0)
        model = _build_monotone_model(G, G.canonical(p))
        net_g, net_s = epsilon_net(G, 0.25), epsilon_net(S.graph, 0.25)
        gamma = shortest_path(G, GraphPoint(edge="e3", offset=0.5), GraphPoint(edge="e2", offset=1.5))
        steps = list(gamma.steps)
        cands = _repeat_candidates(G, steps)
        given = net_g + net_s + cands
        canonicalised.clear()
        for x in net_g:
            _to_model_point(model, x)
            _place(G, model, x)
        for c in cands:
            _occurrences(G, steps, c)
        assert not {id(x) for x in given} & set(canonicalised)
        # the quotient path locates and represents whole nets, as arrays:
        # no point of either net goes through canonical
        canonicalised.clear()
        corr = quotient_correspondence(G, S, 0.25)
        assert corr.left[:len(net_g)] == tuple(net_g)
        assert corr.right[len(net_g):] == tuple(net_s)
        assert canonicalised == []

    def test_model_points_are_canonical(self, theta):
        # from u, the farthest points of e2 and e3 are cuts of the model, at
        # offsets 1.5 and 2; a point of G within the model's tolerance of a
        # cut is the cut's vertex
        model = _build_monotone_model(theta, GraphPoint(vertex="u"))
        H = model.graph
        pts = epsilon_net(theta, 0.25) + [GraphPoint(edge="e2", offset=1.5 + 0.5 * H._tol),
                                          GraphPoint(edge="e3", offset=2.0 - 0.5 * H._tol)]
        mps = [_to_model_point(model, x) for x in pts]
        assert all(H.canonical(mp) == mp for mp in mps)
        assert sum(mp.vertex in model.new_vertices for mp in mps) == 4

    def test_piece_ends_at_a_cut(self, theta):
        # a path end within the model's tolerance of the cut at e2@1.5 (the
        # point of e2 farthest from u) makes its piece end at the cut
        for off in (1.5 - 1e-9, 1.5 + 1e-9):
            gamma = shortest_path(theta, GraphPoint(edge="e2", offset=off), GraphPoint(vertex="u"))
            segs = monotone_decomposition(theta, GraphPoint(vertex="u"), gamma)
            assert segs[0].steps[0][:2] == ("e2", 1.5)

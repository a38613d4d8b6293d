import json

import numpy as np
import pytest

from metricgraph import (
    EdgePath,
    GraphPoint,
    MetricGraph,
    delta_n_bounds,
    dgh_bounds,
    dgh_lower,
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
    is_simple_path,
    monotone_decomposition,
    monotone_subdivision,
    path_length,
    point_from_json_obj,
    point_to_json_obj,
    quotient_correspondence,
    shortest_path,
    simplify_path,
    tree_distortion,
)
from metricgraph.harness import EnsembleSpec, random_graph
from metricgraph.metric_graph import path_from_traversals

from conftest import random_point
from oracles import theta_routes

TOL = 1e-9


def segment(length=3.0):
    return MetricGraph(vertices=["u", "v"], edges=[("e", "u", "v", length)])


class TestConstruction:
    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            MetricGraph(vertices=["a", "b"],
                        edges=[("e", "a", "b", 1.0), ("e", "a", "b", 2.0)])

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown endpoint"):
            MetricGraph(vertices=["a"], edges=[("e", "a", "z", 1.0)])

    def test_nonpositive_length(self):
        with pytest.raises(ValueError, match="length must be > 0"):
            MetricGraph(vertices=["a", "b"], edges=[("e1", "a", "b", 0.0)])

    def test_bool_length_rejected(self):
        with pytest.raises(ValueError, match="length must be > 0"):
            MetricGraph(vertices=["a", "b"], edges=[("e1", "a", "b", True)])

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
    def test_simplify_identity(self, theta):
        gamma = path_from_traversals(theta, "u", ["e1"])
        assert simplify_path(theta, gamma) == gamma

    def test_simplify_backtrack(self):
        G = segment(3.0)
        gamma = path_from_traversals(G, "u", ["e", "e", "e"])
        out = simplify_path(G, gamma)
        assert is_simple_path(G, out)
        assert abs(path_length(G, out) - 3.0) < TOL

    def test_simplify_loop_to_constant(self, theta):
        gamma = path_from_traversals(theta, "u", ["e1", "e2"])
        out = simplify_path(theta, gamma)
        assert path_length(theta, out) == 0.0

    def test_shortest_path_realizes_distance(self):
        spec = EnsembleSpec(seed=37, count=6)
        rng = np.random.default_rng(3)
        for i in range(6):
            G = random_graph(spec, i)
            for _ in range(4):
                a, b = random_point(G, rng), random_point(G, rng)
                gamma = shortest_path(G, a, b)
                assert abs(path_length(G, gamma) - distance(G, a, b)) < TOL


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


class TestJson:
    def test_graph_roundtrip(self, theta):
        obj = graph_to_json_obj(theta)
        H = graph_from_json_obj(json.loads(json.dumps(obj)))
        assert sorted(H.vertices) == sorted(theta.vertices)
        assert {(e.id, e.length) for e in H.edges} == {(e.id, e.length) for e in theta.edges}

    def test_graph_schema_error(self):
        with pytest.raises(ValueError, match="vertices"):
            graph_from_json_obj({"edges": []})

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


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
@pytest.mark.parametrize("call, name", [
    (lambda G, p, x: epsilon_net(G, x), "eps"),
    (lambda G, p, x: epsilon_smoothing(G, p, x), "eps"),
    (lambda G, p, x: quotient_correspondence(G, epsilon_smoothing(G, p, 0.5), x), "mesh"),
    (lambda G, p, x: tree_distortion(G, p, x), "mesh"),
    (lambda G, p, x: dghl_bounds(G, G, quotient_correspondence(
        G, epsilon_smoothing(G, p, 0.5), 1.0), x), "mesh"),
    (lambda G, p, x: dgh_lower(G, G, x), "mesh"),
    (lambda G, p, x: dgh_bounds(G, G, x), "mesh"),
    (lambda G, p, x: delta_n_bounds(G, 0, p, x), "mesh"),
], ids=["epsilon_net", "epsilon_smoothing", "quotient_correspondence",
        "tree_distortion", "dghl_bounds", "dgh_lower", "dgh_bounds", "delta_n_bounds"])
def test_bad_scale_rejected(theta, call, name, bad):
    # NaN compares false with everything, so it must fail the check itself,
    # not slip through to a misleading error further in
    with pytest.raises(ValueError, match=name):
        call(theta, GraphPoint(vertex="u"), bad)


def test_infinite_mesh_gives_vertex_net(theta):
    assert epsilon_net(theta, float("inf")) == [GraphPoint(vertex=v) for v in theta.vertices]

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricgraph import (
    GraphPoint,
    MetricGraph,
    bottleneck_m,
    build_merge_tree,
    distance,
    diameter,
    epsilon_smoothing,
    gromov_product,
    hyp_graph,
    hyperbolicity,
    monotone_subdivision,
    t_p,
    tree_distortion,
)
from metricgraph.gromov_tree import _merge_tree_from_model
from metricgraph.harness import EnsembleSpec, random_graph
from metricgraph.metric_graph import _monotone_model

from conftest import random_point
from oracles import bottleneck_maximin, merge_tree_scan, tree_distortion_pairs

TOL = 1e-9


class TestGromovProduct:
    def test_graph_flavor(self, theta):
        u, v = GraphPoint(vertex="u"), GraphPoint(vertex="v")
        x = GraphPoint(edge="e3", offset=2.0)
        want = (distance(theta, u, v) + distance(theta, u, x)
                - distance(theta, v, x)) / 2.0
        assert abs(gromov_product(theta, u, v, x) - want) < TOL

    def test_matrix_flavor(self):
        D = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
        assert abs(gromov_product(D, 0, 1, 2) - (2 + 3 - 4) / 2.0) < TOL


class TestBottleneck:
    def test_plain_c12_from_base(self, c12):
        p, q = GraphPoint(vertex="p"), GraphPoint(vertex="q")
        # every p-q path passes through p where f = 0
        assert bottleneck_m(c12, p, p, q) == pytest.approx(0.0)
        assert t_p(c12, p, p, q) == pytest.approx(6.0)

    def test_mirror_points_collapse(self, c12):
        # mirror points at level 3 on the two arcs merge over the top at
        # level 3, so their tree pseudodistance is 0 while the graph
        # distance is 6: the witness for distortion 6
        p = GraphPoint(vertex="p")
        x = GraphPoint(edge="arc1", offset=3.0)
        y = GraphPoint(edge="arc2", offset=3.0)
        assert distance(c12, p, x) == pytest.approx(3.0)
        assert distance(c12, p, y) == pytest.approx(3.0)
        assert bottleneck_m(c12, p, x, y) == pytest.approx(3.0)
        assert t_p(c12, p, x, y) == pytest.approx(0.0)
        assert distance(c12, x, y) == pytest.approx(6.0)

    def test_never_below_gromov_product(self):
        spec = EnsembleSpec(seed=83, count=6)
        rng = np.random.default_rng(19)
        for i in range(6):
            G = random_graph(spec, i)
            p = random_point(G, rng)
            for _ in range(6):
                x, y = random_point(G, rng), random_point(G, rng)
                m = bottleneck_m(G, p, x, y)
                g = gromov_product(G, p, x, y)
                assert m >= g - TOL
                assert m <= min(distance(G, p, x), distance(G, p, y)) + TOL

    def test_matches_merge_tree_lca(self):
        spec = EnsembleSpec(seed=89, count=6)
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            tree = build_merge_tree(G, p)
            for u in G.vertices:
                for w in G.vertices:
                    if u >= w:
                        continue
                    lvl = tree.merge_level(tree.node_of[u], tree.node_of[w])
                    m = bottleneck_m(G, p, GraphPoint(vertex=u), GraphPoint(vertex=w))
                    assert abs(lvl - m) < 1e-7


SMALL = EnsembleSpec(seed=0, count=1, vertex_range=(2, 6), beta1_range=(0, 3))


def small_graph(seed: int) -> MetricGraph:
    return random_graph(EnsembleSpec(seed=seed, count=1, vertex_range=SMALL.vertex_range,
                                     beta1_range=SMALL.beta1_range), 0)


@st.composite
def graph_points(draw, G):
    if draw(st.booleans()):
        return GraphPoint(vertex=draw(st.sampled_from(G.vertices)))
    e = draw(st.sampled_from(G.edges))
    return G.canonical(GraphPoint(edge=e.id, offset=draw(st.floats(0.0, 1.0)) * e.length))


def model_pieces(G, p, eid):
    """Host offsets on edge eid where the monotone subdivision cuts it."""
    _, new = monotone_subdivision(G, p)
    cuts = sorted(off for (host, off) in new.values() if host == eid)
    return [0.0] + cuts + [G.edge(eid).length]


def assert_matches_oracle(G, p, x, y):
    want = bottleneck_maximin.bottleneck(G, p, x, y)
    assert bottleneck_m(G, p, x, y) == pytest.approx(want, abs=1e-9)
    tp = distance(G, p, x) + distance(G, p, y) - 2.0 * want
    assert t_p(G, p, x, y) == pytest.approx(tp, abs=1e-9)


class TestBottleneckOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_points(self, data):
        G = small_graph(data.draw(st.integers(0, 10_000)))
        p, x, y = (data.draw(graph_points(G)) for _ in range(3))
        assert_matches_oracle(G, p, x, y)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_points_on_one_model_edge(self, data):
        G = small_graph(data.draw(st.integers(0, 10_000)))
        p = data.draw(graph_points(G))
        e = data.draw(st.sampled_from(G.edges))
        cuts = model_pieces(G, p, e.id)
        k = data.draw(st.integers(0, len(cuts) - 2))
        lo, hi = cuts[k], cuts[k + 1]
        s, t = (data.draw(st.floats(0.05, 0.95)) for _ in range(2))
        x = G.canonical(GraphPoint(edge=e.id, offset=lo + s * (hi - lo)))
        y = G.canonical(GraphPoint(edge=e.id, offset=lo + t * (hi - lo)))
        assert_matches_oracle(G, p, x, y)
        # y at the lower end of x's model edge
        ends = [G.canonical(GraphPoint(edge=e.id, offset=c)) for c in (lo, hi)]
        lower = min(ends, key=lambda q: distance(G, p, q))
        assert_matches_oracle(G, p, x, lower)
        assert_matches_oracle(G, p, lower, x)

    def test_one_model_edge_by_hand(self):
        # p at a; f rises from 1 to 3 along u-v, so u-v is one model edge
        G = MetricGraph(vertices=["a", "u", "v"],
                        edges=[("au", "a", "u", 1.0), ("uv", "u", "v", 2.0)])
        p = GraphPoint(vertex="a")
        x = GraphPoint(edge="uv", offset=0.5)
        y = GraphPoint(edge="uv", offset=1.5)
        assert bottleneck_m(G, p, x, y) == pytest.approx(1.5)
        assert bottleneck_m(G, p, x, GraphPoint(vertex="u")) == pytest.approx(1.0)
        assert t_p(G, p, x, y) == pytest.approx(1.0)


class TestPointedCache:
    """One graph queried at two basepoints in turn agrees with fresh graphs."""

    def results(self, G, p):
        verts = [GraphPoint(vertex=v) for v in G.vertices]
        e = G.edges[-1]
        pts = verts + [GraphPoint(edge=e.id, offset=0.3 * e.length)]
        diam = diameter(G)
        return {
            "m": [bottleneck_m(G, p, x, y) for x in pts for y in pts],
            "td": tree_distortion(G, p, 0.1 * diam),
            "smooth": epsilon_smoothing(G, p, 0.2 * diam).to_json_obj(),
            "tree": build_merge_tree(G, p).to_json_obj(),
        }

    @pytest.mark.parametrize("second", ["interior", "vertex as edge@0"])
    def test_second_basepoint_matches_fresh_graph(self, second):
        spec = EnsembleSpec(seed=113, count=3, beta1_range=(2, 3))
        for i in range(3):
            G = random_graph(spec, i)
            e = G.edges[0]
            p1 = GraphPoint(vertex=G.vertices[-1])
            if second == "interior":
                p2 = GraphPoint(edge=e.id, offset=0.4 * e.length)
            else:
                p2 = GraphPoint(edge=e.id, offset=0.0)
            self.results(G, p1)
            assert self.results(G, p2) == self.results(random_graph(spec, i), p2)
            assert self.results(G, p1) == self.results(random_graph(spec, i), p1)

    def test_equal_basepoints_share_one_model(self, theta):
        a, b = GraphPoint(edge="e2", offset=0.0), GraphPoint(vertex="u")
        assert _monotone_model(theta, a) is _monotone_model(theta, b)
        assert build_merge_tree(theta, a) is build_merge_tree(theta, b)
        assert epsilon_smoothing(theta, a, 0.5)._model is _monotone_model(theta, b)
        c = GraphPoint(edge="e3", offset=1.25)
        assert _monotone_model(theta, c) is _monotone_model(theta, GraphPoint(edge="e3", offset=1.25))
        assert _monotone_model(theta, c) is not _monotone_model(theta, b)


class TestMergeTree:
    def test_plain_c12_is_segment(self, c12):
        tree = build_merge_tree(c12, GraphPoint(vertex="p"))
        levels = [n.level for n in tree.nodes]
        assert min(levels) == pytest.approx(0.0)
        assert max(levels) == pytest.approx(6.0)
        # a segment: every node has at most one child
        child_count = {n.id: 0 for n in tree.nodes}
        for n in tree.nodes:
            if n.parent is not None:
                child_count[n.parent] += 1
        assert all(c <= 1 for c in child_count.values())

    def test_root_is_base_class(self, theta):
        tree = build_merge_tree(theta, GraphPoint(vertex="u"))
        assert tree.nodes[tree.root].level == pytest.approx(0.0)
        assert "u" in tree.nodes[tree.root].members


def walked_merge_level(tree, a, b):
    """Level of the first ancestor of b that is an ancestor of a."""
    above_a = set()
    while a is not None:
        above_a.add(a)
        a = tree.nodes[a].parent
    while b not in above_a:
        b = tree.nodes[b].parent
    return tree.nodes[b].level


class TestMergeLevels:
    """The tree's range-minimum table against walking parents to the LCA."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_parent_walk(self, data):
        spec = EnsembleSpec(seed=data.draw(st.integers(0, 10_000)), count=1,
                            vertex_range=(1, 40), beta1_range=(0, 10))
        G0 = random_graph(spec, 0)
        k = data.draw(st.sampled_from([-60, 0, 60]))
        G = MetricGraph(G0.vertices, [(e.id, e.u, e.v, e.length * 2.0 ** k) for e in G0.edges])
        p = data.draw(graph_points(G)) if G.edges else GraphPoint(vertex=G.vertices[0])
        tree = build_merge_tree(G, p)
        ids = range(len(tree.nodes))
        want = [[walked_merge_level(tree, a, b) for b in ids] for a in ids]
        for a in ids:
            for b in ids:
                got = tree.merge_level(a, b)
                assert type(got) is float
                assert got == want[a][b]
        a, b = np.meshgrid(ids, ids, indexing="ij")
        assert (tree.merge_levels(a, b) == np.array(want)).all()
        # a row against a column broadcasts to the whole table
        col = np.arange(len(ids))[:, None]
        assert (tree.merge_levels(col, col.T) == np.array(want)).all()


class TestTreeDistortion:
    def test_plain_c12(self, c12):
        res = tree_distortion(c12, GraphPoint(vertex="p"), 0.1)
        assert abs(res.value - 6.0) <= 0.2
        assert res.tau_upper == pytest.approx(res.value / 2.0)

    def test_trees_have_zero_distortion(self):
        spec = EnsembleSpec(seed=97, count=6, beta1_range=(0, 0))
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            res = tree_distortion(G, p, 0.2 * diameter(G))
            assert res.value <= TOL

    def test_tp_matrix_is_tree_like(self):
        spec = EnsembleSpec(seed=103, count=5)
        rng = np.random.default_rng(31)
        for i in range(5):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            pts = [random_point(G, rng) for _ in range(7)]
            n = len(pts)
            M = np.zeros((n, n))
            for a in range(n):
                for b in range(a + 1, n):
                    M[a, b] = M[b, a] = t_p(G, p, pts[a], pts[b])
            assert hyperbolicity(M) <= 1e-7

    def test_bounded_by_hyperbolicity(self):
        spec = EnsembleSpec(seed=107, count=5)
        for i in range(5):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            diam = diameter(G)
            mesh = max(0.05 * diam, G.total_length / 150.0, diam / 12.0)
            hv, herr = hyp_graph(G, mesh)
            res = tree_distortion(G, p, mesh)
            cap = 2.0 * math.log2(4.0 * G.betti1 + 4.0) * (hv + herr)
            assert res.value <= cap + TOL

    def test_mesh_validation(self, c12):
        with pytest.raises(ValueError):
            tree_distortion(c12, GraphPoint(vertex="p"), 0.0)


class TestMergeTreeOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_root_scan_builder(self, data):
        # unit lengths put many model vertices on one level
        spec = EnsembleSpec(seed=data.draw(st.integers(0, 10_000)), count=1,
                            vertex_range=(1, 30), beta1_range=(0, 8),
                            length_range=data.draw(st.sampled_from([(0.5, 2.0), (1.0, 1.0)])))
        G = random_graph(spec, 0)
        p = data.draw(graph_points(G)) if G.edges else GraphPoint(vertex=G.vertices[0])
        model = _monotone_model(G, p)
        assert _merge_tree_from_model(model) == merge_tree_scan._merge_tree_from_model(model)


class TestTreeDistortionScale:
    def test_check_scales_with_graph(self):
        # rounding in d - t_p grows with the lengths: at x1e6 an absolute
        # -1e-9 floor made these two graphs raise "tree metric exceeded the
        # graph metric"
        for i in (1, 6):
            G0 = random_graph(EnsembleSpec(seed=0), i)
            p = GraphPoint(vertex=G0.vertices[0])
            want = tree_distortion(G0, p, 0.05 * diameter(G0)).value
            G = MetricGraph(G0.vertices, [(e.id, e.u, e.v, e.length * 1e6) for e in G0.edges])
            got = tree_distortion(G, p, 0.05 * diameter(G)).value
            assert got == pytest.approx(want * 1e6, rel=1e-6)


def assert_matches_pair_loop(G, p, mesh):
    got = tree_distortion(G, p, mesh)
    want = tree_distortion_pairs.tree_distortion(G, p, mesh)
    assert got.value == want.value
    assert got.tau_upper == want.tau_upper
    return got


class TestTreeDistortionOracle:
    """The range-min kernel against the pair loop it replaced."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_pair_loop(self, data):
        # unit lengths put many net points on one merge-tree node, and
        # many pairs' nodes on one root path
        spec = EnsembleSpec(seed=data.draw(st.integers(0, 10_000)), count=1,
                            vertex_range=(1, 60), beta1_range=(0, 20),
                            length_range=data.draw(st.sampled_from([(0.5, 2.0), (1.0, 1.0)])))
        G0 = random_graph(spec, 0)
        k = data.draw(st.sampled_from([-60, 0, 60]))
        G = MetricGraph(G0.vertices, [(e.id, e.u, e.v, e.length * 2.0 ** k) for e in G0.edges])
        p = data.draw(graph_points(G)) if G.edges else GraphPoint(vertex=G.vertices[0])
        frac = data.draw(st.sampled_from([0.05, 0.1, 0.3]))
        mesh = frac * diameter(G) if G.edges else 2.0 ** k
        assert_matches_pair_loop(G, p, mesh)

    def test_single_vertex(self):
        G = MetricGraph(["u"], [])
        res = assert_matches_pair_loop(G, GraphPoint(vertex="u"), 1.0)
        assert res == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cli_large_graphs(self, seed):
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        assert_matches_pair_loop(G, GraphPoint(vertex=G.vertices[0]), G.total_length / 150.0)

    def test_returns_python_floats(self):
        # value and tau_upper used to be numpy float64 (read off D)
        G = random_graph(EnsembleSpec(seed=3, count=1), 0)
        res = tree_distortion(G, GraphPoint(vertex=G.vertices[0]), 0.1 * diameter(G))
        assert res.value > 0.0
        assert type(res.value) is float
        assert type(res.tau_upper) is float

"""The exact diameter: agreement with the scalar reference, and the
transformations that must scale it or leave it unchanged."""

import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from metricgraph import MetricGraph, diameter, epsilon_net, finite_metric
from metricgraph import metric_graph
from metricgraph.harness import EnsembleSpec, random_graph

from conftest import tie_graphs, trees
from oracles import diameter_pairs

TOL = 1e-9
REL = 1e-12


def quiet_diameter(G: MetricGraph) -> float:
    """diameter(G), failing on any warning (degenerate switch lines must
    be masked, not divided through)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return diameter(G)


def ensemble_graph(seed: int, n_v: int, beta: int) -> MetricGraph:
    spec = EnsembleSpec(seed=seed, count=1, vertex_range=(n_v, n_v), beta1_range=(beta, beta))
    return random_graph(spec, 0)


def edge_tuples(G: MetricGraph):
    return [(e.id, e.u, e.v, e.length) for e in G.edges]


@st.composite
def graphs(draw, max_v=60):
    """Ensemble graphs with 2..max_v vertices; sometimes one edge gets an
    equal-length parallel twin, whose switch lines are parallel."""
    n_v = draw(st.integers(2, max_v))
    G = ensemble_graph(draw(st.integers(0, 10_000)), n_v, draw(st.integers(0, 8)))
    if draw(st.booleans()):
        e = draw(st.sampled_from(G.edges))
        G = MetricGraph(list(G.vertices), edge_tuples(G) + [(e.id + "'", e.u, e.v, e.length)])
    return G


class TestOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs())
    def test_ensemble_graphs(self, G):
        assert quiet_diameter(G) == diameter_pairs.diameter(G)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trees(scales=(0,)), st.sampled_from([-60, 60]))
    def test_trees(self, tree, k):
        # a tree's table comes from the two-sweep fill, the oracle's
        # distances from the shortest-path trees
        G = MetricGraph(*tree)
        assert quiet_diameter(G) == diameter_pairs.diameter(G)
        assert quiet_diameter(scaled(G, k)) == quiet_diameter(G) * 2.0 ** k

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trees(scales=(-60, 60)))
    def test_trees_at_extreme_scales(self, tree):
        # the oracle's candidate tests run on lengths divided by the
        # graph's unit, as the library's do, so the two agree at 2^+-60
        G = MetricGraph(*tree)
        assert quiet_diameter(G) == diameter_pairs.diameter(G)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_graphs(), st.sampled_from([-60, 0, 60]))
    # a path with a loop at each end, where the landmark bound read
    # without its margin skips the pair that holds the diameter
    @example((["v0", "v1", "v2", "v3"],
              [("e2", "v0", "v3", 0.25), ("e3", "v1", "v2", 0.9114282641278384),
               ("e9", "v1", "v3", 0.5), ("e10", "v2", "v2", 1.1353148629812868),
               ("e12", "v0", "v0", 1.9563044204116413)]), 0)
    # a triangle whose diameter, half its cycle, reads an ulp higher on
    # its longest edge alone than on any pair of distinct edges
    @example((["v0", "v1", "v2"],
              [("e0", "v0", "v1", 1 / 3), ("e1", "v0", "v2", 1.0877732227724648),
               ("e2", "v1", "v2", 1.6277221404848041)]), 0)
    def test_tie_graphs(self, graph, k):
        # equal lengths, parallel twins and self-loops: a landmark's two
        # folds and a row's single fold round differently here
        vertices, edges = graph
        G = MetricGraph(vertices, [(i, u, v, L * 2.0 ** k) for (i, u, v, L) in edges])
        assert quiet_diameter(G) == diameter_pairs.diameter(G)

    def test_fixtures(self, theta, c12, c12_decorated):
        for G in (theta, c12, c12_decorated):
            assert quiet_diameter(G) == diameter_pairs.diameter(G)
        assert diameter(theta) == 2.5  # antipodes on the 2 + 3 cycle
        assert diameter(c12) == 6.0

    @pytest.mark.parametrize("edges, want", [
        ([("e", "u", "v", 1.5)], 1.5),
        ([("a", "u", "v", 2.0), ("b", "u", "v", 2.0)], 2.0),
        ([("a", "u", "v", 1.0), ("b", "u", "v", 1.0), ("c", "u", "v", 1.0)], 1.0),
        ([("a", "u", "v", 1.0), ("b", "u", "v", 1.0), ("t", "v", "w", 3.0)], 4.0),
        ([("loop", "u", "u", 3.0)], 1.5),
    ])
    def test_small_cases(self, edges, want):
        verts = sorted({x for (_, u, v, _) in edges for x in (u, v)})
        G = MetricGraph(verts, edges)
        assert quiet_diameter(G) == diameter_pairs.diameter(G)
        assert quiet_diameter(G) == pytest.approx(want, rel=REL)

    def test_no_edges(self):
        assert diameter(MetricGraph(["u"], [])) == 0.0


def scaled(G: MetricGraph, k: int) -> MetricGraph:
    return MetricGraph(list(G.vertices),
                       [(i, u, v, L * 2.0 ** k) for (i, u, v, L) in edge_tuples(G)])


def evaluated_pairs(G: MetricGraph, monkeypatch) -> int:
    """The number of distinct-edge pairs diameter(G) hands to the kernel."""
    seen = []
    kernel = metric_graph._max_min_block

    def counting(funcs, corners):
        if len(corners) == 4:  # a rectangle; a pair (e, e) has triangles
            seen.append(len(corners[0][0]))
        return kernel(funcs, corners)

    monkeypatch.setattr(metric_graph, "_max_min_block", counting)
    diameter(G)
    monkeypatch.undo()
    return sum(seen)


class TestPrune:
    """The bound-pruned scan against the all-pairs oracle: on small graphs,
    where many pairs survive the bound; where the diameter lies inside an
    edge; and at the ends of the exponent range the lengths scale over."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(3, 8), st.integers(0, 6),
           st.sampled_from([-60, 0, 60]))
    def test_small_ensemble_graphs(self, seed, n_v, beta, k):
        G = scaled(ensemble_graph(seed, n_v, beta), k)
        assert quiet_diameter(G) == diameter_pairs.diameter(G)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_inside_an_edge(self, theta, c12, c12_decorated, k):
        for G, want in ((theta, 2.5), (c12, 6.0), (c12_decorated, 10.0)):
            H = scaled(G, k)
            assert quiet_diameter(H) == diameter_pairs.diameter(H) == want * 2.0 ** k

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(graphs(max_v=30), st.sampled_from([-60, 60]))
    @example(MetricGraph(["v0", "v1", "v2", "v3"],
                         [("c", "v2", "v3", 9.125551732756843),
                          ("b", "v0", "v2", 7.98798761335163),
                          ("a", "v0", "v1", 7.018535345654363)]), 60)
    def test_extreme_scales(self, G, k):
        H = scaled(G, k)
        assert quiet_diameter(H) == diameter_pairs.diameter(H) == quiet_diameter(G) * 2.0 ** k

    def test_survivors_are_evaluated(self, theta, monkeypatch):
        # the diameter of theta lies inside the 2 + 3 cycle, whose pair of
        # edges must be evaluated
        assert evaluated_pairs(theta, monkeypatch) >= 1
        assert diameter(theta) == 2.5

    def test_large_graph_skips_nearly_every_pair(self, monkeypatch):
        G = ensemble_graph(1, 300, 40)
        m = len(G.edges)
        assert evaluated_pairs(G, monkeypatch) <= m * (m - 1) // 2 // 100

    def test_large_graph_builds_few_trees(self):
        # the cli-large graph: its landmarks and its few surviving pairs
        # fill at most 20 of the 300 rows
        G = ensemble_graph(1, 300, 40)
        diameter(G)
        assert G._vd_table()[1].sum() <= 20


class TestInvariance:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graphs(max_v=30), st.integers(-6, 6))
    def test_scaling(self, G, k):
        s = 10.0 ** k
        H = MetricGraph(list(G.vertices),
                        [(i, u, v, L * s) for (i, u, v, L) in edge_tuples(G)])
        assert quiet_diameter(H) == pytest.approx(s * quiet_diameter(G), rel=REL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graphs(max_v=30), st.randoms(use_true_random=False))
    def test_relabel_and_reorder(self, G, rnd):
        names = list(G.vertices)
        rnd.shuffle(names)
        vmap = {v: f"x{k}" for k, v in enumerate(names)}
        edges = [(f"f{k}", vmap[u], vmap[v], L)
                 for k, (_, u, v, L) in enumerate(edge_tuples(G))]
        rnd.shuffle(edges)
        H = MetricGraph(list(vmap.values()), edges)
        assert quiet_diameter(H) == pytest.approx(quiet_diameter(G), rel=REL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graphs(max_v=30), st.data())
    def test_subdivide_edge(self, G, data):
        e = data.draw(st.sampled_from(G.edges))
        edges = [t for t in edge_tuples(G) if t[0] != e.id]
        mid = e.id + "#mid"
        edges += [(e.id + "#a", e.u, mid, e.length / 2.0),
                  (e.id + "#b", mid, e.v, e.length / 2.0)]
        H = MetricGraph(list(G.vertices) + [mid], edges)
        assert quiet_diameter(H) == pytest.approx(quiet_diameter(G), rel=REL)


class TestFineNet:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(graphs(max_v=20))
    def test_sandwich(self, G):
        # every point is within mesh/2 of the net, so the net's largest
        # distance is at most mesh below the diameter
        d = quiet_diameter(G)
        mesh = d / 20.0
        far = finite_metric(G, epsilon_net(G, mesh)).max()
        assert far <= d + TOL
        assert d <= far + mesh + TOL

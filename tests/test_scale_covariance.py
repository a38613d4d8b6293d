"""Scaling every length by 2^k scales every result by exactly 2^k.

Each tolerance is REL_TOL of the length unit of its own input, and
multiplying by a power of two is exact, so the results below agree bit for
bit (==) with 2^k times the unit-scale ones, and counts are equal.

The window covered: graphs of at most 12 vertices (ensemble and tie
graphs) with lengths from 0.1 to 2, scaled by 2^k for k in -30..30, and
verify ensembles with lengths from 2^-31 to 2^31. That lies far inside the
float window every graph must lie in (``metric_graph``: total length at
most the largest float over max(1e9, 64 E), tolerance a normal float),
whose edges ``test_metric_graph.py`` tests.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricgraph import (
    EnsembleSpec,
    GraphPoint,
    MetricGraph,
    betti_after_smoothing,
    build_merge_tree,
    default_eps_grid,
    delta_n_bounds,
    epsilon_net,
    epsilon_smoothing,
    finite_metric,
    persistence_sequence,
    random_graph,
    verify,
    vr_h1_barcode,
)

from conftest import tie_graphs

SCALES = st.integers(-30, 30).map(lambda k: 2.0 ** k)

# verify rows whose two sides are counts, not lengths
COUNT_CHECKS = {"monotone decomposition count", "betti drop at thresholds",
                "betti monotone in eps", "betti below source"}


def scaled(G: MetricGraph, c: float) -> MetricGraph:
    return MetricGraph(G.vertices, [(e.id, e.u, e.v, e.length * c) for e in G.edges])


@st.composite
def graphs(draw):
    """An ensemble graph or a tie-heavy multigraph, with a basepoint: a
    vertex, or an interior point at a dyadic fraction of its edge, which
    scales exactly too."""
    if draw(st.booleans()):
        spec = EnsembleSpec(seed=draw(st.integers(0, 10_000)), count=1,
                            vertex_range=(2, 12), beta1_range=(0, 5))
        G = random_graph(spec, 0)
    else:
        G = MetricGraph(*draw(tie_graphs()))
    if G.edges and draw(st.booleans()):
        e = draw(st.sampled_from(G.edges))
        frac = draw(st.integers(1, 15)) / 16.0
        return G, (e.id, frac)
    return G, draw(st.sampled_from(G.vertices))


def basepoint(G: MetricGraph, where) -> GraphPoint:
    if isinstance(where, str):
        return GraphPoint(vertex=where)
    eid, frac = where
    return G.canonical(GraphPoint(edge=eid, offset=G.edge(eid).length * frac))


class TestGraphInvariants:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs(), SCALES)
    def test_persistence_sequence(self, case, c):
        G, _ = case
        want = tuple(x * c for x in persistence_sequence(G).entries)
        assert persistence_sequence(scaled(G, c)).entries == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs(), SCALES)
    def test_smoothing_betti_profile_and_levels(self, case, c):
        G, where = case
        H = scaled(G, c)
        p, q = basepoint(G, where), basepoint(H, where)
        for eps in default_eps_grid(G):
            assert betti_after_smoothing(H, q, eps * c) == betti_after_smoothing(G, p, eps)
            S, T = epsilon_smoothing(G, p, eps), epsilon_smoothing(H, q, eps * c)
            assert T.base_class == S.base_class
            assert T.level == {v: lvl * c for v, lvl in S.level.items()}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs(), SCALES)
    def test_merge_tree_shape_and_levels(self, case, c):
        G, where = case
        H = scaled(G, c)
        S, T = build_merge_tree(G, basepoint(G, where)), build_merge_tree(H, basepoint(H, where))
        assert (T.root, T.node_of) == (S.root, S.node_of)
        assert [(n.id, n.parent, n.members) for n in T.nodes] == \
            [(n.id, n.parent, n.members) for n in S.nodes]
        assert [n.level for n in T.nodes] == [n.level * c for n in S.nodes]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graphs(), SCALES)
    def test_delta_n_bounds(self, case, c):
        G, where = case
        H = scaled(G, c)
        p, q = basepoint(G, where), basepoint(H, where)
        for n in range(G.betti1 + 2):
            a, b = delta_n_bounds(G, n, p), delta_n_bounds(H, n, q)
            assert (b.lower, b.upper) == (a.lower * c, a.upper * c)
            assert b.certificates == tuple((name, v * c) for name, v in a.certificates)


class TestVrBarcode:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(3, 20), st.booleans(), SCALES)
    def test_bars_scale_and_none_is_dropped(self, seed, n, net, c):
        if net:
            spec = EnsembleSpec(seed=seed, count=1, vertex_range=(3, 10), beta1_range=(1, 4))
            G = random_graph(spec, 0)
            D = finite_metric(G, epsilon_net(G, G.total_length / n))
        else:
            P = np.random.default_rng(seed).random((n, 2))
            D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
        want = vr_h1_barcode(D).bars
        assert vr_h1_barcode(D * c).bars == tuple((b * c, d * c) for b, d in want)


@functools.lru_cache(maxsize=None)
def unit_report(seed: int, count: int):
    return verify(EnsembleSpec(seed=seed, count=count))


def assert_rows_scale(base, report, c):
    assert len(report.rows) == len(base.rows)
    for a, b in zip(base.rows, report.rows):
        assert (b.check, b.instance, b.skipped) == (a.check, a.instance, a.skipped)
        k = 1.0 if a.check in COUNT_CHECKS else c
        assert (b.left, b.right) == (a.left * k, a.right * k), (a.check, a.instance)


class TestVerifyRows:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), SCALES)
    def test_rows_scale(self, seed, c):
        base = unit_report(seed, 2)
        report = verify(EnsembleSpec(seed=seed, count=2, length_range=(0.5 * c, 2.0 * c)))
        assert report.passed
        assert_rows_scale(base, report, c)

    # every scale failed a row or raised with absolute tolerances, except
    # 1 and 1e6
    @pytest.mark.parametrize("c", [2.0 ** -30, 2.0 ** -20, 1e-6, 1.0, 1e6, 2.0 ** 20, 2.0 ** 30])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_no_failing_rows(self, seed, c):
        report = verify(EnsembleSpec(seed=seed, count=10, length_range=(0.5 * c, 2.0 * c)))
        assert report.failures() == []
        if np.frexp(c)[0] == 0.5:
            assert_rows_scale(unit_report(seed, 10), report, c)

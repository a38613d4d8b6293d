"""The finite-metric kernels: exact agreement with the plain-loop oracles,
and the symmetries that must leave them unchanged."""

import numpy as np
from hypothesis import given, settings, strategies as st

import metricgraph
from metricgraph import Correspondence, diameter, epsilon_net, finite_metric, hyperbolicity
from metricgraph.harness import EnsembleSpec, random_graph

from oracles import four_point

from conftest import random_euclidean_metric


@st.composite
def metrics(draw, min_n=0, max_n=16):
    """Euclidean metrics on random points; one in three is rounded to a
    quarter, which gives many tied sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = random_euclidean_metric(rng, draw(st.integers(min_n, max_n)))
    if draw(st.integers(0, 2)) == 0:
        D = np.round(4.0 * D) / 4.0
    return D


@st.composite
def correspondences(draw):
    """A random relation between two metrics, completed to cover both sides."""
    DX = draw(metrics(min_n=1, max_n=10))
    DY = draw(metrics(min_n=1, max_n=10))
    n, m = len(DX), len(DY)
    pairs = set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              max_size=n * m)))
    pairs |= {(i, draw(st.integers(0, m - 1))) for i in range(n)}
    pairs |= {(draw(st.integers(0, n - 1)), j) for j in range(m)}
    return Correspondence(left=tuple(range(n)), right=tuple(range(m)),
                          DX=DX, DY=DY, pairs=tuple(sorted(pairs)))


class TestOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(metrics())
    def test_hyperbolicity(self, D):
        assert hyperbolicity(D) == four_point.four_point_delta(D.tolist())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(correspondences())
    def test_distortion(self, R):
        assert R.distortion == four_point.relation_distortion(
            R.DX.tolist(), R.DY.tolist(), R.pairs)

    def test_graph_nets(self):
        # nets of 16 to 33 points on small ensemble graphs
        spec = EnsembleSpec(seed=5, count=10)
        for i in range(spec.count):
            G = random_graph(spec, i)
            D = finite_metric(G, epsilon_net(G, diameter(G) / 10.0))
            assert hyperbolicity(D) == four_point.four_point_delta(D.tolist())
            n = len(D)
            pairs = tuple((k, k) for k in range(n))
            R = Correspondence(left=tuple(range(n)), right=tuple(range(n)),
                               DX=D, DY=np.round(D, 1), pairs=pairs)
            assert R.distortion == four_point.relation_distortion(
                R.DX.tolist(), R.DY.tolist(), pairs)


class TestSymmetry:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metrics(min_n=4), st.randoms(use_true_random=False))
    def test_hyperbolicity_permutation(self, D, rnd):
        perm = list(range(len(D)))
        rnd.shuffle(perm)
        assert hyperbolicity(D[np.ix_(perm, perm)]) == hyperbolicity(D)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metrics(min_n=4), st.integers(-30, 30))
    def test_hyperbolicity_power_of_two_scaling(self, D, k):
        assert hyperbolicity(D * 2.0**k) == 2.0**k * hyperbolicity(D)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(correspondences())
    def test_distortion_swap_sides(self, R):
        swapped = Correspondence(left=R.right, right=R.left, DX=R.DY, DY=R.DX,
                                 pairs=tuple((b, a) for (a, b) in R.pairs))
        assert swapped.distortion == R.distortion


def test_backend_reported():
    # perfbench/run.py writes this name into every run record
    assert metricgraph.BACKEND == "pure"

"""The finite-metric kernels: exact agreement with the plain-loop oracles,
and the symmetries that must leave them unchanged."""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metricgraph
from metricgraph import (
    Correspondence,
    diameter,
    epsilon_net,
    finite_metric,
    graph_from_json_obj,
    graph_to_json_obj,
    hyperbolicity,
)
from metricgraph import gh_bounds
from metricgraph.harness import EnsembleSpec, random_graph

from oracles import four_point, four_point_pairs

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


# hyperbolicity's block sizes: the library's, and tiny ones under which a
# five-point space already crosses several blocks of the pruned scan
SCANS = {"library": (gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK), "tiny": (2, 4)}


@contextmanager
def scan_blocks(name):
    saved = gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK
    gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK = SCANS[name]
    try:
        yield
    finally:
        gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK = saved


def scan_values(D):
    """hyperbolicity(D) under each block size, in the order of SCANS."""
    values = []
    for name in SCANS:
        with scan_blocks(name):
            values.append(hyperbolicity(D))
    return values


class TestOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(metrics())
    def test_hyperbolicity(self, D):
        for value in scan_values(D):
            assert value == four_point.four_point_delta(D.tolist())

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


def test_verify_nets_symmetric():
    # the nets verify's hyperbolicity rows use; an asymmetric finite_metric
    # once made the kernel and the oracle read different triangles
    for seed in range(10, 30):
        spec = EnsembleSpec(seed=seed, count=10)
        for i in range(spec.count):
            G = random_graph(spec, i)
            mesh = max(diameter(G) / 12.0, G.total_length / 150.0)
            D = finite_metric(G, epsilon_net(G, mesh))
            assert (D == D.T).all(), (seed, i)
            assert hyperbolicity(D) == four_point.four_point_delta(D.tolist()), (seed, i)


def gh_net(seed, n_v, beta, points):
    """The net that perfbench's gh-nets workload hands to ``mgraph hyp``:
    the first graph of the ensemble after a JSON round trip, at about the
    smallest mesh whose net has at most ``points`` points."""
    spec = EnsembleSpec(seed=seed, vertex_range=(n_v, n_v), beta1_range=(beta, beta))
    G = graph_from_json_obj(json.loads(json.dumps(graph_to_json_obj(random_graph(spec, 0)))))
    lo, hi = 0.0, max(e.length for e in G.edges)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(epsilon_net(G, mid)) <= points:
            hi = mid
        else:
            lo = mid
    return finite_metric(G, epsilon_net(G, hi))


def mirrored_upper(D):
    upper = np.triu(D, 1)
    return upper + upper.T


class TestPrunedHyperbolicity:
    """The pruned scan against the all-pairs loop it replaced and the
    quadruple loop, on metrics and on matrices that are not metrics."""

    @pytest.mark.parametrize("kind", ["euclidean", "quarter-rounded", "uniform"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24))
    def test_oracles(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        D = random_euclidean_metric(rng, n)
        if kind == "quarter-rounded":
            D = np.round(4.0 * D) / 4.0  # breaks the triangle inequality
        elif kind == "uniform":
            D = mirrored_upper(rng.random((n, n)))  # far from any metric
        want = four_point_pairs.hyperbolicity(D)
        assert want == four_point.four_point_delta(D.tolist())
        assert scan_values(D) == [want] * len(SCANS)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), lower=st.booleans(),
           rounded=st.booleans())
    def test_one_ulp_in_one_triangle(self, seed, n, lower, rounded):
        rng = np.random.default_rng(seed)
        D = random_euclidean_metric(rng, n)
        if rounded:
            D = np.round(4.0 * D) / 4.0
        tri = np.tril_indices(n, -1) if lower else np.triu_indices(n, 1)
        pick = rng.random(len(tri[0])) < 0.5
        rows, cols = tri[0][pick], tri[1][pick]
        toward = np.where(rng.random(len(rows)) < 0.5, -np.inf, np.inf)
        D[rows, cols] = np.nextafter(D[rows, cols], toward)
        M = mirrored_upper(D)
        want = four_point_pairs.hyperbolicity(M)
        assert want == four_point.four_point_delta(M.tolist())
        assert scan_values(D) == [want] * len(SCANS)

    def test_winning_split_holds_the_shortest_pair(self):
        # only {ab, cd} has a positive gap, 4 - 3.5, and cd is the shortest
        # pair, so the scan must run to the very last pair
        D = np.zeros((4, 4))
        for (i, j), d in {(0, 1): 3.0, (2, 3): 1.0, (0, 2): 1.25, (1, 3): 1.25,
                          (0, 3): 1.75, (1, 2): 1.75}.items():
            D[i, j] = D[j, i] = d
        assert four_point_pairs.hyperbolicity(D) == 0.25
        assert scan_values(D) == [0.25] * len(SCANS)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_v, beta, points", [(30, 5, 60), (60, 10, 110), (100, 15, 160)])
    def test_gh_nets(self, seed, n_v, beta, points):
        D = gh_net(seed, n_v, beta, points)
        assert D.shape == (points, points)
        value = hyperbolicity(D)
        assert value == four_point_pairs.hyperbolicity(D)
        if points == 60:  # the quadruple loop takes minutes at 160 points
            assert value == four_point.four_point_delta(D.tolist())


class TestSymmetry:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metrics(min_n=4, max_n=24), st.randoms(use_true_random=False))
    def test_hyperbolicity_permutation(self, D, rnd):
        perm = list(range(len(D)))
        rnd.shuffle(perm)
        assert scan_values(D[np.ix_(perm, perm)]) == scan_values(D)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metrics(min_n=4, max_n=24), st.integers(-30, 30))
    def test_hyperbolicity_power_of_two_scaling(self, D, k):
        assert scan_values(D * 2.0**k) == [2.0**k * v for v in scan_values(D)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(correspondences())
    def test_distortion_swap_sides(self, R):
        swapped = Correspondence(left=R.right, right=R.left, DX=R.DY, DY=R.DX,
                                 pairs=tuple((b, a) for (a, b) in R.pairs))
        assert swapped.distortion == R.distortion


def test_backend_reported():
    # perfbench/run.py writes this name into every run record
    assert metricgraph.BACKEND == "pure"

"""The finite-metric kernels: exact agreement with the plain-loop oracles,
and the symmetries that must leave them unchanged."""

import functools
import json
import os
import subprocess
import sys
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


@contextmanager
def narrow_tables():
    """Tiny blocks and three-column table chunks: the seed block and many
    later blocks straddle chunk boundaries."""
    saved = gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK, gh_bounds._HYP_CHUNK
    gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK, gh_bounds._HYP_CHUNK = 10, 40, 3
    try:
        yield
    finally:
        gh_bounds._HYP_SEED, gh_bounds._HYP_BLOCK, gh_bounds._HYP_CHUNK = saved


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


def wide_span_metric(rng, n_line, n_cluster, depth=150):
    """Points on a line, and a cluster of 3-d points 2^-depth across at one
    more point c of it: the line and c form a tree metric, so the cluster's
    own quadruples decide the result, and entries span more than 2^depth."""
    x, c = rng.random(n_line), rng.random()
    line = np.abs(x[:, None] - x[None])
    n = n_line + n_cluster
    D = np.zeros((n, n))
    D[:n_line, :n_line] = line
    D[:n_line, n_line:] = np.abs(x - c)[:, None]
    D[n_line:, :n_line] = D[:n_line, n_line:].T
    D[n_line:, n_line:] = random_euclidean_metric(rng, n_cluster) * 2.0 ** -depth
    return D


# hyperbolicity of the 400-point nets of the gh-nets 100-vertex graph (the
# largest net hyp_graph takes), computed by the float64 scan that the
# float32 screen replaced; the oracles take too long at this size
CAP_NET_VALUES = {1: 3.5364926072133542, 7: 2.8321884872908965}
# the peak RSS of hyperbolicity on the seed-7 cap net that README states
CAP_NET_RSS_MB = 180


@functools.lru_cache(maxsize=None)
def cap_net(seed):
    D = gh_net(seed, 100, 15, gh_bounds._MAX_HYP_NET)
    D.setflags(write=False)
    return D


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

    def test_triangle_excess_below_float32(self):
        # two gadgets glued through their c points: in each, {ab, cd} is
        # the only positive split, with gap d(a,b) + tau, where d(c,d)
        # breaks the triangle inequality by tau. The first has tau = 2^-24,
        # which float32 rounds away, and the second the longer d(a,b), so
        # the stop must carry the float32 tau's error bound to reach the
        # first's shorter pair
        def gadget(tau, x):
            g = 1.0 - np.eye(4)
            g[0, 1] = g[1, 0] = x
            g[2, 3] = g[3, 2] = 2.0 + tau
            return g

        g1, g2 = gadget(2.0 ** -24, 0.25), gadget(0.0, 0.25 + 2.0 ** -30)
        D = np.block([[g1, g1[:, 2, None] + 4.0 + g2[2]],
                      [g2[:, 2, None] + 4.0 + g1[2], g2]])
        want = four_point_pairs.hyperbolicity(D)
        assert want == (0.25 + 2.0 ** -24) / 2.0
        assert scan_values(D) == [want] * len(SCANS)

    def test_float32_inverts_two_gaps(self):
        # two 4-cycles with diagonals a-b and c-d, 2 apart from each other.
        # In float32 the first one's diagonals round down and its sides up,
        # which takes 21 * 2^-28 off its gap in the screen's units (where 2
        # is 1), so the screen shows it 2^-24 below the second one's exact
        # gap, which is the smaller in float64
        def cycle(diagonal, side):
            g = np.full((4, 4), side)
            np.fill_diagonal(g, 0.0)
            g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = diagonal
            return g

        far = np.full((4, 4), 2.0)
        D = np.block([[cycle(1.5 + 7 * 2.0 ** -27, 1.0 - 7 * 2.0 ** -28), far],
                      [far, cycle(1.5, 1.0 - 2.0 ** -24)]])
        want = four_point_pairs.hyperbolicity(D)
        assert want == (1.0 + 42 * 2.0 ** -28) / 2.0
        assert scan_values(D) == [want] * len(SCANS)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_v, beta, points", [(30, 5, 60), (60, 10, 110), (100, 15, 160)])
    def test_gh_nets(self, seed, n_v, beta, points):
        D = gh_net(seed, n_v, beta, points)
        assert D.shape == (points, points)
        value = hyperbolicity(D)
        assert value == four_point_pairs.hyperbolicity(D)
        if points == 60:  # the quadruple loop takes minutes at 160 points
            assert value == four_point.four_point_delta(D.tolist())


    @pytest.mark.parametrize("k", [-1000, -200, 200, 1000])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(D=metrics(min_n=4, max_n=16))
    def test_beyond_float32_range(self, k, D):
        # 2^k times a metric overflows float32 or flushes it to zero unless
        # the screen normalises it first
        M = D * 2.0 ** k
        want = four_point_pairs.hyperbolicity(M)
        assert want == 2.0 ** k * four_point_pairs.hyperbolicity(D)
        assert scan_values(M) == [want] * len(SCANS)

    @pytest.mark.parametrize("k", [-200, 0, 200])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_line=st.integers(2, 12),
           n_cluster=st.integers(4, 10))
    def test_entries_spanning_2_to_the_150(self, k, seed, n_line, n_cluster):
        # normalised, the cluster's entries are float32 subnormals or zero,
        # and its gaps lie far below the screen's error bound
        D = wide_span_metric(np.random.default_rng(seed), n_line, n_cluster)
        M = D * 2.0 ** k
        want = four_point_pairs.hyperbolicity(M)
        assert 0.0 < want < 2.0 ** (k - 140)
        assert want == 2.0 ** k * four_point_pairs.hyperbolicity(D)
        assert scan_values(M) == [want] * len(SCANS)

    @pytest.mark.parametrize("kind", ["euclidean", "quarter-rounded", "uniform"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24))
    def test_narrow_table_chunks(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        D = random_euclidean_metric(rng, n)
        if kind == "quarter-rounded":
            D = np.round(4.0 * D) / 4.0
        elif kind == "uniform":
            D = mirrored_upper(rng.random((n, n)))
        with narrow_tables():
            assert hyperbolicity(D) == four_point_pairs.hyperbolicity(D)

    @pytest.mark.parametrize("seed", sorted(CAP_NET_VALUES))
    def test_gh_nets_at_the_cap(self, seed):
        D = cap_net(seed)
        assert D.shape == (gh_bounds._MAX_HYP_NET,) * 2
        assert hyperbolicity(D) == CAP_NET_VALUES[seed]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_table_memory_at_the_cap(self, tmp_path):
        # the pair tables hold 8 bytes per point and scanned pair (about
        # 112 MB here); copied as they grow, or kept whole on huge pages,
        # they took 195-242 MB. The child reports its own peak, VmHWM:
        # ru_maxrss after fork and exec also counts the parent's
        np.save(tmp_path / "net.npy", cap_net(7))
        code = ("import sys, numpy as np\n"
                "from metricgraph import hyperbolicity\n"
                "print(repr(hyperbolicity(np.load(sys.argv[1]))))\n"
                "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM')])\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "net.npy")],
                             capture_output=True, text=True, check=True).stdout.split()
        assert float(out[0]) == CAP_NET_VALUES[7]
        assert out[1:] == ["VmHWM:", out[2], "kB"]
        assert int(out[2]) / 1024 < CAP_NET_RSS_MB


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

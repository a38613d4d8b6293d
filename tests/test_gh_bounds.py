import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metricgraph import (
    BoundReport,
    Correspondence,
    GraphPoint,
    MetricGraph,
    bottleneck_distance,
    brute_force_dgh,
    delta_n_bounds,
    dgh_bounds,
    dgh_lower,
    dghl_bounds,
    diameter,
    epsilon_net,
    finite_metric,
    hyp_graph,
    hyperbolicity,
    r_extension,
    vr_h1_barcode,
)
from metricgraph import gh_bounds
from metricgraph.harness import EnsembleSpec, _farthest_point_sample, random_graph
from metricgraph.metric_graph import REL_TOL, length_unit
from metricgraph.persistence import _VR_MAX_POINTS

from oracles import four_point
from oracles.dgh_exhaustive import dgh_all_relations, dgh_function_pairs

from conftest import memo_keys, random_euclidean_metric

TOL = 1e-9
REL = 1e-12


def _c6():
    return MetricGraph(
        vertices=("a", "b"),
        edges=(("h1", "a", "b", 3.0), ("h2", "a", "b", 3.0)),
    )


@st.composite
def metric_pairs(draw, max_points=6, max_product=36):
    """(DX, DY, pointed): Euclidean metrics of plane points with integer
    coordinates 0..3 (many equal distances, repeated points among them) or
    coordinates in steps of 0.01, and a pointed pair or None."""
    n = draw(st.integers(1, max_points))
    m = draw(st.integers(1, min(max_points, max_product // n)))
    coord = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 300).map(lambda k: k / 100)]))

    def metric(k):
        P = np.array(draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k)),
                     dtype=np.float64)
        return np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))

    DX, DY = metric(n), metric(m)
    pointed = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)))
    return DX, DY, pointed


def _net_subset(X: MetricGraph, k: int) -> np.ndarray:
    """Distances of k farthest points of a net of X, from its first vertex:
    the net of mesh diameter / 6, halved until it has k points."""
    base = GraphPoint(vertex=X.vertices[0])
    coarse = diameter(X) / 6.0
    while True:
        net = [base] + [x for x in epsilon_net(X, coarse) if x != X.canonical(base)]
        if len(net) >= k:
            break
        coarse /= 2.0
    D = finite_metric(X, net)
    idx, _ = _farthest_point_sample(D, k, 0)
    return D[np.ix_(idx, idx)]


class TestBruteForce:
    def test_matches_exhaustive_relations(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            if n * m > 16:
                continue
            DX = random_euclidean_metric(rng, n)
            DY = random_euclidean_metric(rng, m)
            got = brute_force_dgh(DX, DY)
            want = dgh_all_relations(DX, DY)
            assert abs(got - want) < 1e-9

    def test_singleton_gives_half_diameter(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            DX = random_euclidean_metric(rng, n)
            value = brute_force_dgh(DX, np.zeros((1, 1)))
            assert abs(value - DX.max() / 2.0) < 1e-9

    def test_two_point_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            d1, d2 = rng.uniform(0.5, 5.0, size=2)
            DX = np.array([[0.0, d1], [d1, 0.0]])
            DY = np.array([[0.0, d2], [d2, 0.0]])
            value = brute_force_dgh(DX, DY)
            assert abs(value - abs(d1 - d2) / 2.0) < 1e-9

    def test_pseudometric_triangle(self):
        rng = np.random.default_rng(17)
        spaces = [random_euclidean_metric(rng, int(rng.integers(2, 6)))
                  for _ in range(3)]
        d01 = brute_force_dgh(spaces[0], spaces[1])
        d02 = brute_force_dgh(spaces[0], spaces[2])
        d12 = brute_force_dgh(spaces[1], spaces[2])
        assert d02 <= d01 + d12 + 1e-9
        assert brute_force_dgh(spaces[0], spaces[0]) < 1e-9

    def test_pointed_at_least_unpointed(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            DX = random_euclidean_metric(rng, int(rng.integers(2, 6)))
            DY = random_euclidean_metric(rng, int(rng.integers(2, 6)))
            plain = brute_force_dgh(DX, DY)
            anchored, pairs = brute_force_dgh(DX, DY, pointed=(0, 0),
                                              witness=True)
            assert anchored >= plain - 1e-9
            for i, j in pairs:
                assert 0 <= i < DX.shape[0]
                assert 0 <= j < DY.shape[0]
            assert (0, 0) in pairs

    def test_witness_is_a_correspondence(self):
        rng = np.random.default_rng(23)
        DX = random_euclidean_metric(rng, 5)
        DY = random_euclidean_metric(rng, 4)
        _, pairs = brute_force_dgh(DX, DY, witness=True)
        left = {i for i, _ in pairs}
        right = {j for _, j in pairs}
        assert left == set(range(5))
        assert right == set(range(4))

    def test_size_cap(self):
        rng = np.random.default_rng(29)
        DX = random_euclidean_metric(rng, 8)
        DY = random_euclidean_metric(rng, 3)
        with pytest.raises(ValueError, match="too many points"):
            brute_force_dgh(DX, DY)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            brute_force_dgh(np.zeros((0, 0)), np.zeros((1, 1)))

    @pytest.mark.parametrize("bad, match", [
        (np.nan, "finite"), (np.inf, "finite"), (None, "square"),
    ], ids=["nan", "inf", "not-square"])
    @pytest.mark.parametrize("side", ["DX", "DY"])
    def test_rejects_bad_matrix(self, bad, match, side):
        D = random_euclidean_metric(np.random.default_rng(31), 3)
        if bad is None:
            D = D[:2]
        else:
            D[0, 1] = D[1, 0] = bad
        good = random_euclidean_metric(np.random.default_rng(37), 3)
        args = (D, good) if side == "DX" else (good, D)
        with pytest.raises(ValueError, match=match):
            brute_force_dgh(*args)

    @pytest.mark.parametrize("pointed", [
        (5, 0), (0, 5), (0, -1), (-1, 0), (True, 0), (0, False), (0.5, 0),
        ("0", 0), (0,), (0, 0, 0), 0,
    ])
    def test_rejects_bad_pointed(self, pointed):
        DX = np.array([[0.0, 1.0], [1.0, 0.0]])
        DY = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="pointed"):
            brute_force_dgh(DX, DY, pointed=pointed)

    def test_numpy_pointed_indices(self):
        rng = np.random.default_rng(41)
        DX, DY = random_euclidean_metric(rng, 4), random_euclidean_metric(rng, 3)
        assert brute_force_dgh(DX, DY, pointed=(np.int64(3), np.int32(1))) \
            == brute_force_dgh(DX, DY, pointed=(3, 1))

    @pytest.mark.parametrize("D, match", [
        ([[0.0, 1.0], [2.0, 0.0]], "symmetric"),
        ([[1.0, 1.0], [1.0, 0.0]], "zero diagonal"),
        ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
    ], ids=["asymmetric", "diagonal", "negative"])
    @pytest.mark.parametrize("side", ["DX", "DY"])
    def test_rejects_non_metric(self, D, match, side):
        # the asymmetric DX once gave 0.0 against DY = [[0, 2], [2, 0]]
        good = np.array([[0.0, 2.0], [2.0, 0.0]])
        args = (np.array(D), good) if side == "DX" else (good, np.array(D))
        with pytest.raises(ValueError, match=match):
            brute_force_dgh(*args)

    def test_noise_within_tolerance(self):
        # asymmetric by less than REL_TOL of the unit: accepted. Two related
        # pairs must be compatible in both orders, so the witness's
        # distortion, which reads both, is 2 * value; reading one order
        # gave a value 5e-13 too small here
        P = np.array([[2.0, 0.0], [0.0, 2.0]])
        Q = np.array([[1.0, 1.0], [0.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
        DX, DY = (np.sqrt(((Z[:, None] - Z[None]) ** 2).sum(-1)) for Z in (P, Q))
        DX[0, 1] -= 1e-12
        value, pairs = brute_force_dgh(DX, DY, witness=True)
        corr = Correspondence(left=(0, 1), right=(0, 1, 2, 3), DX=DX, DY=DY, pairs=pairs)
        assert corr.distortion == 2.0 * value
        # negative by less than the tolerance: accepted
        DZ = np.array([[0.0, 1.0, -1e-12], [1.0, 0.0, 1.0], [-1e-12, 1.0, 0.0]])
        assert brute_force_dgh(DZ, DZ) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(metric_pairs(max_points=7, max_product=16))
    def test_equals_all_relations(self, case):
        DX, DY, pointed = case
        assert brute_force_dgh(DX, DY, pointed=pointed) == \
            dgh_all_relations(DX, DY, pointed=pointed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(metric_pairs(max_points=7, max_product=12))
    def test_equals_function_pairs(self, case):
        DX, DY, _ = case
        assert brute_force_dgh(DX, DY) == dgh_function_pairs(DX, DY)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metric_pairs())
    def test_swap_sides(self, case):
        DX, DY, pointed = case
        swapped = None if pointed is None else pointed[::-1]
        assert brute_force_dgh(DY, DX, pointed=swapped) == \
            brute_force_dgh(DX, DY, pointed=pointed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metric_pairs(), st.randoms(use_true_random=False))
    def test_relabel(self, case, rnd):
        DX, DY, pointed = case
        sx, sy = list(range(len(DX))), list(range(len(DY)))
        rnd.shuffle(sx)
        rnd.shuffle(sy)
        moved = None if pointed is None else (sx.index(pointed[0]), sy.index(pointed[1]))
        assert brute_force_dgh(DX[np.ix_(sx, sx)], DY[np.ix_(sy, sy)], pointed=moved) \
            == brute_force_dgh(DX, DY, pointed=pointed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metric_pairs(), st.integers(-30, 30))
    def test_scaling(self, case, k):
        DX, DY, pointed = case
        s = 2.0 ** k
        assert brute_force_dgh(DX * s, DY * s, pointed=pointed) == \
            s * brute_force_dgh(DX, DY, pointed=pointed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(metric_pairs(max_points=7, max_product=49))
    def test_witness_distortion(self, case):
        DX, DY, pointed = case
        n, m = len(DX), len(DY)
        value, pairs = brute_force_dgh(DX, DY, pointed=pointed, witness=True)
        assert list(pairs) == sorted(set(pairs))
        assert pointed is None or tuple(pointed) in pairs
        corr = Correspondence(left=tuple(range(n)), right=tuple(range(m)),
                              DX=DX, DY=DY, pairs=pairs)
        assert corr.distortion == 2.0 * value

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(metric_pairs())
    def test_least_pointed_value(self, case):
        # every relation relates left point 0 to some right point
        DX, DY, _ = case
        assert brute_force_dgh(DX, DY) == \
            min(brute_force_dgh(DX, DY, pointed=(0, j)) for j in range(len(DY)))

    def test_seven_point_graph_nets(self):
        # 7-point nets of EnsembleSpec(seed=11, count=4) graphs 2 and 3: the
        # binary search starts 65 of 484 gaps below the value (130 pointed),
        # so the feasibility search has infeasible thresholds to refute
        spec = EnsembleSpec(seed=11, count=4)
        DX, DY = (_net_subset(random_graph(spec, i), 7) for i in (2, 3))
        plain, pairs = brute_force_dgh(DX, DY, witness=True)
        anchored = brute_force_dgh(DX, DY, pointed=(0, 0))
        assert plain == float.fromhex("0x1.75df859d8e06ap-1")
        assert anchored == float.fromhex("0x1.d6e53ba616499p-1")
        corr = Correspondence(left=tuple(range(7)), right=tuple(range(7)),
                              DX=DX, DY=DY, pairs=pairs)
        assert corr.distortion == 2.0 * plain
        assert plain == min(brute_force_dgh(DX, DY, pointed=(0, j)) for j in range(7))


@st.composite
def relations(draw):
    """Correspondences on metric_pairs' metrics whose pairs cover both
    sides, come in any order and hold duplicates and many-to-many pairs."""
    DX, DY, _ = draw(metric_pairs())
    n, m = len(DX), len(DY)
    i, j = st.integers(0, n - 1), st.integers(0, m - 1)
    pairs = [(a, draw(j)) for a in range(n)] + [(draw(i), b) for b in range(m)]
    pairs += draw(st.lists(st.tuples(i, j), max_size=2 * (n + m)))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return Correspondence(left=tuple(range(n)), right=tuple(range(m)), DX=DX, DY=DY,
                          pairs=tuple(draw(st.permutations(pairs))))


def gather_distortion(R) -> float:
    """The distortion as a gather of the k x k block over the k pairs."""
    P = np.asarray(R.pairs)
    px, py = P[:, 0], P[:, 1]
    return float(np.abs(R.DX[np.ix_(px, px)] - R.DY[np.ix_(py, py)]).max())


def gather_cost(R) -> np.ndarray:
    """r_extension's cost[i, j] = min over related (a, b) of DX[i, a] +
    DY[j, b], as an n x m x k gather."""
    P = np.asarray(R.pairs)
    pa, pb = P[:, 0], P[:, 1]
    return (R.DX[:, pa][:, None, :] + R.DY[:, pb][None, :, :]).min(axis=2)


class TestCorrespondence:
    def _corr(self, rng, n=4, m=3):
        DX = random_euclidean_metric(rng, n)
        DY = random_euclidean_metric(rng, m)
        pairs = [(i, i % m) for i in range(n)] + [(0, j) for j in range(m)]
        left = list(range(n))
        right = list(range(m))
        return Correspondence(left=tuple(left), right=tuple(right),
                              pairs=tuple(sorted(set(pairs))), DX=DX, DY=DY)

    def test_distortion_nonnegative(self):
        rng = np.random.default_rng(31)
        corr = self._corr(rng)
        assert corr.distortion >= 0.0

    def test_requires_cover(self):
        rng = np.random.default_rng(37)
        DX = random_euclidean_metric(rng, 3)
        DY = random_euclidean_metric(rng, 3)
        with pytest.raises(ValueError, match="cover"):
            Correspondence(left=(0, 1, 2), right=(0, 1, 2),
                           pairs=((0, 0), (1, 1)), DX=DX, DY=DY)

    def test_rejects_out_of_range_pair(self):
        rng = np.random.default_rng(41)
        DX = random_euclidean_metric(rng, 2)
        DY = random_euclidean_metric(rng, 2)
        with pytest.raises(ValueError, match="out of range"):
            Correspondence(left=(0, 1), right=(0, 1),
                           pairs=((0, 0), (1, 1), (5, 0)), DX=DX, DY=DY)

    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError, match="no pairs"):
            Correspondence(left=(), right=(), pairs=(),
                           DX=np.zeros((0, 0)), DY=np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["DX", "DY"])
    def test_rejects_non_finite(self, bad, side):
        D = random_euclidean_metric(np.random.default_rng(43), 2)
        bent = D.copy()
        bent[0, 1] = bent[1, 0] = bad
        DX, DY = (bent, D) if side == "DX" else (D, bent)
        with pytest.raises(ValueError, match="finite"):
            Correspondence(left=(0, 1), right=(0, 1),
                           pairs=((0, 0), (1, 1)), DX=DX, DY=DY)


    def test_identity_distortion_matches_gather(self):
        # the identity relation is read without a gather; listing its pairs
        # in another order takes the gather path over the same entries
        spec = EnsembleSpec(seed=5, count=4)
        for i in range(spec.count):
            G = random_graph(spec, i)
            DX = finite_metric(G, epsilon_net(G, diameter(G) / 8.0))
            n = len(DX)
            DY = np.round(DX, 1)
            ident = tuple((k, k) for k in range(n))
            R = Correspondence(left=tuple(range(n)), right=tuple(range(n)),
                               DX=DX, DY=DY, pairs=ident)
            shuffled = Correspondence(left=R.left, right=R.right, DX=DX, DY=DY,
                                      pairs=ident[::-1])
            assert R.distortion == shuffled.distortion
            assert R.distortion == four_point.relation_distortion(
                DX.tolist(), DY.tolist(), ident)

    def test_unsorted_and_duplicate_pairs(self):
        rng = np.random.default_rng(71)
        DX = random_euclidean_metric(rng, 3)
        DY = random_euclidean_metric(rng, 2)
        pairs = ((2, 1), (0, 0), (1, 1), (0, 0), (2, 1))
        R = Correspondence(left=(0, 1, 2), right=(0, 1), DX=DX, DY=DY, pairs=pairs)
        assert R.pairs == pairs
        assert R.distortion == four_point.relation_distortion(
            DX.tolist(), DY.tolist(), pairs)

    @pytest.mark.parametrize("pairs, message", [
        (((0, 0), (1, 1), (-1, 0), (5, 0)), "pair (-1, 0) is out of range"),
        (((0, 0), (1, 2), (1, 1)), "pair (1, 2) is out of range"),
        (((0, 0), (0, 1)), "correspondence must cover both point lists"),
        (((0, 1), (1, 1)), "correspondence must cover both point lists"),
        ((), "correspondence has no pairs"),
        (((0, 0, 1), (1, 1, 0)), "pairs must be (left index, right index) pairs"),
    ])
    def test_error_messages(self, pairs, message):
        D = random_euclidean_metric(np.random.default_rng(73), 2)
        with pytest.raises(ValueError) as err:
            Correspondence(left=(0, 1), right=(0, 1), DX=D, DY=D.copy(), pairs=pairs)
        assert str(err.value) == message

    @pytest.mark.parametrize("bent, message", [
        ([[5.0, 1.0], [1.0, 0.0]], "zero diagonal"),
        ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
        ([[0.0, 1.0], [3.0, 0.0]], "symmetric"),
    ], ids=["diagonal", "negative", "asymmetric"])
    @pytest.mark.parametrize("side", ["DX", "DY"])
    def test_rejects_non_metric(self, bent, message, side):
        # the identity relation once read distortions 5, 2 and 2 off these
        D, bent = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array(bent)
        DX, DY = (bent, D) if side == "DX" else (D, bent)
        with pytest.raises(ValueError, match=message):
            Correspondence(left=(0, 1), right=(0, 1),
                           pairs=((0, 0), (1, 1)), DX=DX, DY=DY)

    def test_nested_lists_and_int_matrix(self):
        # checked_distances takes these, so the correspondence does too
        p = GraphPoint(vertex="v")
        R = Correspondence(left=(p,), right=(p,), DX=[[0.0]], DY=[[0.0]], pairs=((0, 0),))
        assert R.distortion == 0.0
        R = Correspondence(left=(0, 1), right=(0, 1), DX=np.array([[0, 3], [3, 0]]),
                           DY=[[0, 1], [1, 0]], pairs=((0, 1), (1, 0)))
        assert R.DX.dtype == R.DY.dtype == np.float64
        assert R.distortion == 2.0
        assert r_extension(R, 0.5).pairs == ((0, 1), (1, 0))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(relations())
    def test_distortion_matches_gather(self, R):
        assert R.distortion == gather_distortion(R)

    def test_shape_message(self):
        D = random_euclidean_metric(np.random.default_rng(79), 3)
        with pytest.raises(ValueError) as err:
            Correspondence(left=(0, 1), right=(0, 1, 2), DX=D, DY=D, pairs=((0, 0),))
        assert str(err.value) == "distance matrices do not match the point lists"


def extension_pairs(corr, r):
    """r_extension's relation as a loop over all (i, j), with its sums."""
    return tuple((i, j) for i in range(len(corr.left)) for j in range(len(corr.right))
                 if min(corr.DX[i, a] + corr.DY[j, b] for (a, b) in corr.pairs) <= r + 1e-12)


class TestRExtension:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(relations(), st.data())
    def test_pairs_match_gather(self, R, data):
        # at every radius the old k-wide gather reaches, ties included
        cost = gather_cost(R)
        r = data.draw(st.sampled_from(sorted(set(cost.ravel().tolist()))))
        tol = REL_TOL * length_unit(max(r, float(np.abs(R.DX).max()), float(np.abs(R.DY).max())))
        assert r_extension(R, r).pairs == tuple(map(tuple, np.argwhere(cost <= r + tol).tolist()))

    def test_pairs_match_loop(self):
        # the inputs of the tests below
        rng = np.random.default_rng(53)
        cases = []
        for seed, n, m, pairs in [(43, 4, 4, tuple((i, i) for i in range(4))),
                                  (47, 4, 3, ((0, 0), (1, 1), (2, 2), (3, 0)))]:
            g = np.random.default_rng(seed)
            DX, DY = random_euclidean_metric(g, n), random_euclidean_metric(g, m)
            cases.append((DX, DY, pairs, (0.0, float(DX.max() + DY.max()))))
        for _ in range(6):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(3, 6))
            DX = random_euclidean_metric(rng, n)
            DY = random_euclidean_metric(rng, m)
            pairs = sorted({(i, int(rng.integers(0, m))) for i in range(n)}
                           | {(int(rng.integers(0, n)), j) for j in range(m)})
            cases.append((DX, DY, tuple(pairs), (0.0, 0.1, 0.5, 1.0)))
        for DX, DY, pairs, radii in cases:
            corr = Correspondence(left=tuple(range(len(DX))), right=tuple(range(len(DY))),
                                  pairs=pairs, DX=DX, DY=DY)
            for r in radii:
                out = r_extension(corr, r)
                assert out.pairs == extension_pairs(corr, r)
                assert all(type(k) is int for pair in out.pairs for k in pair)

    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(43)
        DX = random_euclidean_metric(rng, 4)
        DY = random_euclidean_metric(rng, 4)
        pairs = tuple((i, i) for i in range(4))
        corr = Correspondence(left=tuple(range(4)), right=tuple(range(4)),
                              pairs=pairs, DX=DX, DY=DY)
        out = r_extension(corr, 0.0)
        assert set(out.pairs) == set(pairs)

    def test_large_radius_is_complete(self):
        rng = np.random.default_rng(47)
        DX = random_euclidean_metric(rng, 4)
        DY = random_euclidean_metric(rng, 3)
        pairs = ((0, 0), (1, 1), (2, 2), (3, 0))
        corr = Correspondence(left=tuple(range(4)), right=tuple(range(3)),
                              pairs=pairs, DX=DX, DY=DY)
        big = float(DX.max() + DY.max())
        out = r_extension(corr, big)
        assert len(out.pairs) == 12

    def test_contains_original_and_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(3, 6))
            DX = random_euclidean_metric(rng, n)
            DY = random_euclidean_metric(rng, m)
            pairs = sorted({(i, int(rng.integers(0, m))) for i in range(n)}
                           | {(int(rng.integers(0, n)), j) for j in range(m)})
            corr = Correspondence(left=tuple(range(n)), right=tuple(range(m)),
                                  pairs=tuple(pairs), DX=DX, DY=DY)
            for r in (0.0, 0.1, 0.5, 1.0):
                out = r_extension(corr, r)
                assert set(corr.pairs) <= set(out.pairs)
                assert out.distortion <= corr.distortion + 2.0 * r + 1e-9

    def test_negative_radius_rejected(self):
        rng = np.random.default_rng(59)
        DX = random_euclidean_metric(rng, 2)
        corr = Correspondence(left=(0, 1), right=(0, 1),
                              pairs=((0, 0), (1, 1)), DX=DX, DY=DX.copy())
        with pytest.raises(ValueError, match=">= 0"):
            r_extension(corr, -0.5)


class TestHyperbolicity:
    def test_small_spaces_are_flat(self):
        rng = np.random.default_rng(61)
        for n in (0, 1, 2, 3):
            D = random_euclidean_metric(rng, n)
            assert hyperbolicity(D) == 0.0

    def test_plain_c12(self, c12):
        value, err = hyp_graph(c12, 0.1)
        assert 2.9 <= value <= 3.1
        assert err == pytest.approx(0.4)

    def test_tree_metric_is_flat(self):
        spec = EnsembleSpec(seed=67, count=3, beta1_range=(0, 0))
        for i in range(3):
            G = random_graph(spec, i)
            value, _ = hyp_graph(G, max(0.3, 0.1 * G.total_length))
            assert value <= 1e-7

    def test_mesh_cap(self, c12):
        with pytest.raises(ValueError, match="coarser mesh"):
            hyp_graph(c12, 0.005)

    @pytest.mark.parametrize("mesh", [None, 0.5])
    def test_one_vertex_graph(self, mesh):
        assert hyp_graph(MetricGraph(["a"], []), mesh) == (0.0, 0.0)

    def test_given_mesh_skips_diameter(self):
        spec = EnsembleSpec(seed=11, count=5)
        for i in range(spec.count):
            G = random_graph(spec, i)
            mesh = G.total_length / 40.0
            value, err = hyp_graph(G, mesh)
            assert memo_keys(G, diameter) == []
            assert (value, err) == (hyperbolicity(finite_metric(G, epsilon_net(G, mesh))),
                                    4.0 * mesh)
            default = 0.05 * diameter(G)
            assert hyp_graph(G) == (
                hyperbolicity(finite_metric(G, epsilon_net(G, default))), 4.0 * default)

    @pytest.mark.parametrize("shape", [(5, 3), (5,), (3, 5), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            hyperbolicity(np.ones(shape))

    @pytest.mark.parametrize("i, j, value, match", [
        (0, 1, -3.0, "nonnegative"),      # used to read 0.0
        (0, 0, 5.0, "zero diagonal"),     # used to read 0.0
        (2, 2, 1e-300, "zero diagonal"),
        (2, 3, 2.0, "symmetric"),         # only the upper triangle was read
    ])
    def test_rejects_non_metrics(self, i, j, value, match):
        # four points at distance 1, with one entry (and its mirror, off
        # the diagonal) changed; the lower triangle keeps 1 for (2, 3)
        D = np.ones((4, 4)) - np.eye(4)
        D[i, j] = value
        if (i, j) != (2, 3):
            D[j, i] = value
        with pytest.raises(ValueError, match=match):
            hyperbolicity(D)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [3, 5])
    def test_rejects_non_finite(self, bad, n):
        D = random_euclidean_metric(np.random.default_rng(83), n)
        D[0, 1] = D[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            hyperbolicity(D)


class TestBoundReport:
    def test_json_round_trip(self, c12_decorated):
        rep = delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"), mesh=0.1)
        blob = json.dumps(rep.to_json_obj())
        back = json.loads(blob)
        assert back["lower"] == pytest.approx(rep.lower)
        assert back["upper"] == pytest.approx(rep.upper)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(AssertionError):
            BoundReport(quantity="q", lowers=(("a", 2.0),), uppers=(("b", 1.0),))

    def test_interval_read_off_certificates(self):
        rep = BoundReport(quantity="q", lowers=(("a", 0.5), ("b", 1.0)),
                          uppers=(("c", 3.0), ("d", 2.0)), reported=(("e", 9.0),))
        assert (rep.lower, rep.upper) == (1.0, 2.0)
        assert rep.certificates == (("a", 0.5), ("b", 1.0), ("e", 9.0), ("c", 3.0), ("d", 2.0))
        with pytest.raises(AttributeError):
            rep.lower = 0.0

    def test_no_lower_reads_zero(self):
        assert BoundReport(quantity="q", lowers=(), uppers=(("c", 3.0),)).lower == 0.0

    def test_needs_an_upper(self):
        with pytest.raises(ValueError, match="no upper certificate for q"):
            BoundReport(quantity="q", lowers=(("a", 1.0),), uppers=())

    def test_delta_certificate_order(self, c12_decorated):
        # lowers, then reported values, then uppers
        rep = delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"), mesh=0.1)
        assert [name for name, _ in rep.certificates] == [
            "sequence entry / 4",
            "merge tree distortion / 2",
            "tree distortion / 6 (reported)",
            "linear formula in the sequence entry",
            "smoothing quotient correspondence",
            "merge tree distortion / 2 + 2*mesh"]
        assert [v for _, v in rep.certificates] == pytest.approx([1.0, 3.0, 1.0, 48.0, 3.2, 3.2])

    def test_dgh_certificate_order(self, c12):
        rep = dgh_bounds(c12, _c6())
        assert rep.certificates == (("diameter gap / 2", 1.5),
                                    ("persistence sequence gap / 4", 0.5),
                                    ("complete relation distortion / 2", 3.0))


class TestDeltaBounds:
    def test_decorated_cycle(self, c12_decorated):
        rep = delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"), mesh=0.1)
        assert rep.lower == pytest.approx(1.0)
        assert rep.upper == pytest.approx(3.2)
        names = dict(rep.certificates)
        assert names["sequence entry / 4"] == pytest.approx(1.0)
        assert names["tree distortion / 6 (reported)"] == pytest.approx(1.0)
        assert names["merge tree distortion / 2"] == pytest.approx(3.0)
        assert names["merge tree distortion / 2 + 2*mesh"] == pytest.approx(3.2)
        assert "smoothing quotient correspondence" in names

    def test_theta(self, theta):
        p = GraphPoint(vertex="u")
        rep0 = delta_n_bounds(theta, 0, p, mesh=0.05)
        assert rep0.lower == pytest.approx(1.0 / 3.0)
        assert rep0.upper == pytest.approx(1.1)
        rep1 = delta_n_bounds(theta, 1, p, mesh=0.05)
        assert rep1.lower == pytest.approx(0.25)
        assert rep1.lower <= rep1.upper

    def test_exhausted_once_beta_reached(self, theta):
        p = GraphPoint(vertex="u")
        for n in (2, 3, 5):
            rep = delta_n_bounds(theta, n, p, mesh=0.05)
            assert rep.lower == 0.0
            assert rep.upper == 0.0
            assert rep.certificates[0][0] == "first betti number already small"

    def test_chain_is_monotone(self, c12_decorated):
        p = GraphPoint(vertex="p")
        reports = [delta_n_bounds(c12_decorated, n, p, mesh=0.1)
                   for n in range(3)]
        for a, b in zip(reports, reports[1:]):
            assert b.lower <= a.upper + 1e-9

    def test_negative_index_rejected(self, theta):
        with pytest.raises(ValueError):
            delta_n_bounds(theta, -1, GraphPoint(vertex="u"), mesh=0.05)

    @pytest.mark.parametrize("n", [1.5, True, "1"])
    def test_non_integer_index_rejected(self, n):
        # theta(6, 6, 3) has beta = 2, so n = 1.5 once read a(2.5) = 0.0 and
        # returned the interval [0, 0]
        G = MetricGraph(["u", "v"], [("a", "u", "v", 6.0), ("b", "u", "v", 6.0),
                                     ("c", "u", "v", 3.0)])
        with pytest.raises(ValueError, match="integer"):
            delta_n_bounds(G, n, GraphPoint(vertex="u"), 0.5)

    def test_numpy_integer_index(self, theta):
        p = GraphPoint(vertex="u")
        assert delta_n_bounds(theta, np.int64(1), p, mesh=0.05) == \
            delta_n_bounds(theta, 1, p, mesh=0.05)

    def test_given_mesh_skips_diameter(self, c12_decorated, monkeypatch):
        # the exact diameter only picks the default mesh
        def no_diameter(G):
            raise AssertionError("diameter was computed")
        monkeypatch.setattr(gh_bounds, "diameter", no_diameter)
        rep = delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"), 0.1)
        assert rep.upper == pytest.approx(3.2)
        with pytest.raises(AssertionError, match="diameter"):
            delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_threshold_smoothing_certifies(self, data):
        # delta_n_bounds smooths once, at 1.5 a(n+1); the smoothing
        # certificate is dropped if that leaves beta > n
        spec = EnsembleSpec(seed=data.draw(st.integers(0, 10_000)), count=1,
                            vertex_range=(3, 20), beta1_range=(1, 8))
        G0 = random_graph(spec, 0)
        k = data.draw(st.sampled_from([-40, 0, 40]))
        G = MetricGraph(G0.vertices, [(e.id, e.u, e.v, e.length * 2.0 ** k) for e in G0.edges])
        if data.draw(st.booleans()):
            p = GraphPoint(vertex=data.draw(st.sampled_from(G.vertices)))
        else:
            e = data.draw(st.sampled_from(G.edges))
            p = GraphPoint(edge=e.id, offset=data.draw(st.floats(0.1, 0.9)) * e.length)
        n = data.draw(st.integers(0, G.betti1 - 1))
        rep = delta_n_bounds(G, n, p, mesh=diameter(G) / 4.0)
        assert "smoothing quotient correspondence" in dict(rep.certificates)

    def test_loop_finer_than_mesh(self):
        # the 0.6-loop hides under a 0.4-net, so the merge tree distortion
        # on the net is about 0; the upper bound must still cover a(1)/4
        G = MetricGraph(["a", "b"], [("s", "a", "b", 2.0), ("loop", "b", "b", 0.6)])
        rep = delta_n_bounds(G, 0, GraphPoint(vertex="a"), mesh=0.4)
        assert rep.lower == pytest.approx(0.05)
        assert rep.lower <= rep.upper
        assert dict(rep.certificates)["merge tree distortion / 2"] < rep.lower


class TestGraphDistanceBounds:
    def test_cycle_pair_diameter_gap(self, c12):
        lower = dgh_lower(c12, _c6())
        assert lower == pytest.approx(1.5)
        rep = dgh_bounds(c12, _c6())
        assert rep.lower == pytest.approx(1.5)
        assert rep.upper == pytest.approx(3.0)

    def test_self_distance_small(self, theta):
        assert dgh_lower(theta, theta) <= 1e-9

    def test_bounds_ordered_on_random_pairs(self):
        spec = EnsembleSpec(seed=71, count=8)
        for i in range(0, 8, 2):
            G, H = random_graph(spec, i), random_graph(spec, i + 1)
            rep = dgh_bounds(G, H)
            assert rep.lower <= rep.upper + 1e-9
            assert rep.lower >= 0.0

    def test_more_than_80_vertices(self):
        # a no-hang regression: graphs this large once made the lower
        # bound coarsen a net forever
        G = random_graph(EnsembleSpec(seed=5, vertex_range=(90, 90),
                                      beta1_range=(6, 6)), 0)
        H = random_graph(EnsembleSpec(seed=6, vertex_range=(20, 20),
                                      beta1_range=(3, 3)), 0)
        rep = dgh_bounds(G, H)
        assert 0.0 <= rep.lower <= rep.upper + 1e-9

    def test_lower_with_explicit_relation(self, c12):
        H = _c6()
        netG = epsilon_net(c12, 0.5)
        netH = epsilon_net(H, 0.5)
        DX = finite_metric(c12, netG)
        DY = finite_metric(H, netH)
        n, m = len(netG), len(netH)
        pairs = sorted({(i, (i * m) // n) for i in range(n)}
                       | {((j * n) // m, j) for j in range(m)})
        R = Correspondence(left=tuple(range(n)), right=tuple(range(m)),
                           pairs=tuple(pairs), DX=DX, DY=DY)
        rep = dghl_bounds(c12, H, R, mesh=0.5)
        assert rep.lower <= rep.upper + 1e-9
        assert rep.upper == pytest.approx(R.distortion + 1.0)


def _ensemble_pair(seed: int, n_v=(3, 8), beta=(0, 4)):
    spec = EnsembleSpec(seed=seed, count=2, vertex_range=n_v, beta1_range=beta)
    return random_graph(spec, 0), random_graph(spec, 1)


def _edge_tuples(G: MetricGraph):
    return [(e.id, e.u, e.v, e.length) for e in G.edges]


def _hyperbolicity_cert(G: MetricGraph, H: MetricGraph) -> float:
    """The "hyperbolicity gap / 4" certificate dgh_lower once offered, at
    its default meshes."""
    dG, dH = diameter(G), diameter(H)
    if not (dG > 0 and dH > 0):
        return 0.0
    hG, eG = hyp_graph(G, max(0.05 * dG, dG / 12.0))
    hH, eH = hyp_graph(H, max(0.05 * dH, dH / 12.0))
    return max(0.0, abs(hG - hH) / 4.0 - (eG + eH) / 4.0)


def _barcode_net(G: MetricGraph):
    """VR barcode of a net of at most 80 points (or of the vertex set) and
    its mesh, as the removed "net barcode bottleneck / 2" certificate built
    it; None past the VR point cap."""
    eps = max(0.05 * diameter(G), diameter(G) / 10.0)
    net = epsilon_net(G, eps)
    while len(net) > 80 and len(net) > len(G.vertices):
        eps *= 2.0
        net = epsilon_net(G, eps)
    if len(net) > _VR_MAX_POINTS:
        return None
    return vr_h1_barcode(finite_metric(G, net)), eps


def _net_barcode_cert(G: MetricGraph, H: MetricGraph) -> float:
    if not (diameter(G) > 0 and diameter(H) > 0):
        return 0.0
    netG, netH = _barcode_net(G), _barcode_net(H)
    if netG is None or netH is None:
        return 0.0
    (bG, eG), (bH, eH) = netG, netH
    return max(0.0, bottleneck_distance(bG, bH) / 2.0 - eG - eH)


class TestLowerBound:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_dominates_removed_certificates(self, seed):
        G, H = _ensemble_pair(seed)
        lower = dgh_lower(G, H)
        assert lower >= _hyperbolicity_cert(G, H)
        assert lower >= _net_barcode_cert(G, H)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_sound_against_exact_nets(self, seed):
        # d_GH(X, net) <= mesh, so by the triangle inequality d_GH(G, H) is
        # at most the exact distance between the nets plus meshG + meshH.
        # The mesh is halved while the net stays at 6 points or fewer.
        G, H = _ensemble_pair(seed, n_v=(2, 3), beta=(0, 2))
        D, mesh = [], []
        for X in (G, H):
            eps = X.total_length
            while len(epsilon_net(X, eps / 2.0)) <= 6:
                eps /= 2.0
            D.append(finite_metric(X, epsilon_net(X, eps)))
            mesh.append(eps)
        assert dgh_lower(G, H) <= brute_force_dgh(D[0], D[1]) + mesh[0] + mesh[1] + TOL

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_symmetric(self, seed):
        G, H = _ensemble_pair(seed)
        assert dgh_lower(G, H) == dgh_lower(H, G)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(-30, 30))
    # tiny scales once collapsed cycle weights onto an absolute 1e-9 grid,
    # large ones once dropped boundary candidates of the diameter
    @example(59, -30)
    @example(1, 23)
    def test_scaling(self, seed, k):
        s = 2.0 ** k
        G, H = _ensemble_pair(seed)
        Gs, Hs = (MetricGraph(list(X.vertices),
                              [(i, u, v, L * s) for (i, u, v, L) in _edge_tuples(X)])
                  for X in (G, H))
        assert dgh_lower(Gs, Hs) == s * dgh_lower(G, H)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    def test_relabel_and_reorder(self, seed, rnd):
        G, H = _ensemble_pair(seed)

        def shuffled(X: MetricGraph, tag: str) -> MetricGraph:
            names = list(X.vertices)
            rnd.shuffle(names)
            vmap = {v: f"{tag}{k}" for k, v in enumerate(names)}
            edges = [(f"{tag}e{k}", vmap[u], vmap[v], L)
                     for k, (_, u, v, L) in enumerate(_edge_tuples(X))]
            rnd.shuffle(edges)
            return MetricGraph(list(vmap.values()), edges)

        assert dgh_lower(shuffled(G, "x"), shuffled(H, "y")) == \
            pytest.approx(dgh_lower(G, H), rel=REL)

import json

import numpy as np
import pytest

from metricgraph import (
    BoundReport,
    Correspondence,
    GraphPoint,
    MetricGraph,
    brute_force_dgh,
    delta_n_bounds,
    dgh_bounds,
    dgh_lower,
    dghl_bounds,
    epsilon_net,
    finite_metric,
    hyp_graph,
    hyperbolicity,
    r_extension,
)
from metricgraph.harness import EnsembleSpec, random_graph

from oracles.dgh_exhaustive import dgh_all_relations

from conftest import random_euclidean_metric

TOL = 1e-9


def _c6():
    return MetricGraph(
        vertices=("a", "b"),
        edges=(("h1", "a", "b", 3.0), ("h2", "a", "b", 3.0)),
    )


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


class TestRExtension:
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


class TestBoundReport:
    def test_json_round_trip(self, c12_decorated):
        rep = delta_n_bounds(c12_decorated, 0, GraphPoint(vertex="p"), mesh=0.1)
        blob = json.dumps(rep.to_json_obj())
        back = json.loads(blob)
        assert back["lower"] == pytest.approx(rep.lower)
        assert back["upper"] == pytest.approx(rep.upper)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(AssertionError):
            BoundReport(quantity="q", lower=2.0, upper=1.0,
                        certificates=(("a", 2.0),))


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
        lower = dgh_lower(c12, _c6(), mesh=0.1)
        assert lower == pytest.approx(1.5)
        rep = dgh_bounds(c12, _c6(), mesh=0.1)
        assert rep.lower == pytest.approx(1.5)
        assert rep.upper == pytest.approx(3.0)

    def test_self_distance_small(self, theta):
        assert dgh_lower(theta, theta, mesh=0.05) <= 1e-9

    def test_bounds_ordered_on_random_pairs(self):
        spec = EnsembleSpec(seed=71, count=8)
        for i in range(0, 8, 2):
            G, H = random_graph(spec, i), random_graph(spec, i + 1)
            mesh = 0.08 * max(G.total_length, H.total_length)
            rep = dgh_bounds(G, H, mesh=mesh)
            assert rep.lower <= rep.upper + 1e-9
            assert rep.lower >= 0.0

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

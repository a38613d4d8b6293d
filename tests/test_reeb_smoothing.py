import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricgraph import (
    GraphPoint,
    MetricGraph,
    betti_after_smoothing,
    delta_n_bounds,
    diameter,
    epsilon_net,
    epsilon_smoothing,
    minimal_cycle_basis,
    persistence_sequence,
    quotient_correspondence,
    smoothed_distance,
)
from metricgraph.harness import EnsembleSpec, random_graph
from metricgraph import reeb_smoothing
from metricgraph.reeb_smoothing import _classes, _reps

from oracles import quotient_points, smoothing_levels, smoothing_slots

TOL = 1e-9


def class_names(S):
    """S's vertex and edge names in the order of their class codes."""
    return list(S.graph.vertices) + [e.id for e in S.graph.edges]


def point_at_level(S, eid, lvl):
    e = S.graph.edge(eid)
    off = abs(lvl - S.level[e.u])
    return S.graph.canonical(GraphPoint(edge=eid, offset=off))


class TestBettiProfiles:
    def test_decorated_c12_threshold(self, c12_decorated):
        p = GraphPoint(vertex="p")
        # the only cycle has length 12; it survives until eps = 6 inclusive
        for eps in (0.0, 1.0, 2.0, 5.0, 5.9, 5.999):
            assert betti_after_smoothing(c12_decorated, p, eps) == 1, eps
        for eps in (6.0, 6.5, 20.0):
            assert betti_after_smoothing(c12_decorated, p, eps) == 0, eps

    def test_theta_profile(self, theta):
        # basis cycles 3 and 4: drops at 1.5 x (4/3) = 2 and 1.5 x 1 = 1.5
        p = GraphPoint(vertex="u")
        for eps in (0.0, 0.5, 1.0, 1.4, 1.499):
            assert betti_after_smoothing(theta, p, eps) == 2, eps
        for eps in (1.5, 1.7, 1.9, 1.999):
            assert betti_after_smoothing(theta, p, eps) == 1, eps
        for eps in (2.0, 2.5, 4.0):
            assert betti_after_smoothing(theta, p, eps) == 0, eps

    def test_thresholds_match_sequence(self, theta, c12_decorated):
        # prop is sharp on these instances: betti < k exactly from 1.5 a_k on
        for G, p in ((theta, GraphPoint(vertex="u")),
                     (c12_decorated, GraphPoint(vertex="p"))):
            seq = persistence_sequence(G)
            for k in range(1, G.betti1 + 1):
                thr = 1.5 * seq.a(k)
                assert betti_after_smoothing(G, p, thr) <= k - 1
                assert betti_after_smoothing(G, p, thr - 1e-3) >= k


class TestSmoothedShape:
    def test_decorated_c12_eps2(self, c12_decorated):
        # band splits for t in (4, 8); pass-throughs at 2 and 10 dissolve;
        # the top class extends to max f + eps = 12
        S = epsilon_smoothing(c12_decorated, GraphPoint(vertex="p"), 2.0)
        assert S.graph.betti1 == 1
        assert minimal_cycle_basis(S.graph) == pytest.approx([8.0])
        levels = sorted(S.level.values())
        assert levels == pytest.approx([0.0, 4.0, 8.0, 12.0])

    def test_decorated_c12_near_collapse(self, c12_decorated):
        S = epsilon_smoothing(c12_decorated, GraphPoint(vertex="p"), 5.9)
        assert minimal_cycle_basis(S.graph) == pytest.approx([0.2], abs=1e-6)

    def test_plain_c12_collapses_to_segment(self, c12):
        S = epsilon_smoothing(c12, GraphPoint(vertex="p"), 6.0)
        assert S.graph.betti1 == 0
        assert abs(S.graph.total_length - 12.0) < 1e-6
        assert max(S.level.values()) == pytest.approx(12.0)

    def test_strand_points_meet_below(self, c12_decorated):
        # at eps=2 the cycle spans levels [4, 8]; level-5 classes on the two
        # strands connect through the level-4 split at cost 2 x (5 - 4)
        S = epsilon_smoothing(c12_decorated, GraphPoint(vertex="p"), 2.0)
        strands = [e.id for e in S.graph.edges
                   if {round(S.level[e.u], 9), round(S.level[e.v], 9)} == {4.0, 8.0}]
        assert len(strands) == 2
        x = point_at_level(S, strands[0], 5.0)
        y = point_at_level(S, strands[1], 5.0)
        assert abs(smoothed_distance(S, x, y) - 2.0) < 1e-6

    def test_edges_are_level_monotone(self, theta, c12_decorated):
        for G, p in ((theta, GraphPoint(vertex="u")),
                     (c12_decorated, GraphPoint(vertex="p"))):
            for eps in (0.0, 0.7, 1.5, 3.0):
                S = epsilon_smoothing(G, p, eps)
                for e in S.graph.edges:
                    assert abs(e.length - abs(S.level[e.u] - S.level[e.v])) < TOL
                assert S.level[S.base_class] == 0.0

    def test_single_vertex_graph(self):
        G = MetricGraph(vertices=["v"], edges=[])
        S = epsilon_smoothing(G, GraphPoint(vertex="v"), 1.5)
        assert S.graph.betti1 == 0
        assert abs(S.graph.total_length - 1.5) < TOL


class TestSmoothingInvariants:
    def test_eps_zero_is_isometric(self):
        spec = EnsembleSpec(seed=61, count=6)
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            S = epsilon_smoothing(G, p, 0.0)
            assert S.graph.betti1 == G.betti1
            corr = quotient_correspondence(G, S, max(0.25 * diameter(G), 0.1))
            assert corr.distortion < 1e-7

    def test_base_distance_equals_level(self):
        spec = EnsembleSpec(seed=67, count=5)
        rng = np.random.default_rng(4)
        for i in range(5):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[int(rng.integers(len(G.vertices)))])
            for eps in (0.0, 0.3 * diameter(G), diameter(G)):
                S = epsilon_smoothing(G, p, eps)
                base = GraphPoint(vertex=S.base_class)
                for v in S.graph.vertices:
                    got = smoothed_distance(S, base, GraphPoint(vertex=v))
                    assert abs(got - S.level[v]) < 1e-7

    def test_betti_never_increases(self):
        spec = EnsembleSpec(seed=71, count=6)
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            eps_grid = np.linspace(0.0, diameter(G), 7)
            bettis = [betti_after_smoothing(G, p, float(e)) for e in eps_grid]
            assert all(b <= G.betti1 for b in bettis)
            assert all(b1 <= b0 for b0, b1 in zip(bettis, bettis[1:]))

    def test_sequence_monotone_under_quotient(self):
        spec = EnsembleSpec(seed=73, count=6)
        for i in range(6):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            seq = persistence_sequence(G)
            for eps in (0.2 * diameter(G), 0.8 * diameter(G)):
                S = epsilon_smoothing(G, p, eps)
                seq_s = persistence_sequence(S.graph)
                for n in range(1, max(G.betti1, S.graph.betti1) + 1):
                    assert seq_s.a(n) <= seq.a(n) + TOL

    def test_quotient_distortion_bound(self):
        spec = EnsembleSpec(seed=79, count=5)
        for i in range(5):
            G = random_graph(spec, i)
            p = GraphPoint(vertex=G.vertices[0])
            beta = G.betti1
            mesh = max(0.05 * diameter(G), G.total_length / 150.0)
            for eps in (0.0, 0.4 * diameter(G), diameter(G)):
                S = epsilon_smoothing(G, p, eps)
                corr = quotient_correspondence(G, S, mesh)
                assert corr.distortion <= 2.0 * (4 * beta + 3) * eps + 4 * mesh + TOL


class TestErrors:
    def test_negative_eps(self, theta):
        with pytest.raises(ValueError, match=">= 0"):
            epsilon_smoothing(theta, GraphPoint(vertex="u"), -0.1)

    def test_mismatched_provenance(self, theta, c12):
        S = epsilon_smoothing(theta, GraphPoint(vertex="u"), 0.5)
        with pytest.raises(ValueError, match="provenance"):
            quotient_correspondence(c12, S, 0.5)

    def test_bad_mesh(self, theta):
        S = epsilon_smoothing(theta, GraphPoint(vertex="u"), 0.5)
        with pytest.raises(ValueError):
            quotient_correspondence(theta, S, 0.0)


@st.composite
def smoothing_cases(draw, max_vertices=12, max_beta=6):
    """(G, p, eps): an ensemble graph with at most max_vertices vertices and
    beta <= max_beta, a vertex or interior basepoint, and eps at 0, at
    random, or at or 1e-6 either side of a Betti-drop threshold 1.5 a(k)."""
    spec = EnsembleSpec(seed=draw(st.integers(0, 10_000)), count=1,
                        vertex_range=(2, max_vertices), beta1_range=(0, max_beta))
    G = random_graph(spec, 0)
    if G.edges and draw(st.booleans()):
        e = draw(st.sampled_from(G.edges))
        p = G.canonical(GraphPoint(edge=e.id, offset=draw(st.floats(0.05, 0.95)) * e.length))
    else:
        p = GraphPoint(vertex=draw(st.sampled_from(G.vertices)))
    choices = [st.just(0.0), st.floats(0.0, 1.2 * diameter(G))]
    if G.betti1:
        thr = 1.5 * persistence_sequence(G).a(draw(st.integers(1, G.betti1)))
        choices.append(st.sampled_from([thr, thr - 1e-6, thr + 1e-6]))
    return G, p, draw(st.one_of(*choices))


class TestBettiFromSweep:
    """betti_after_smoothing reads beta off the sweep without assembling S."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(smoothing_cases(max_vertices=60, max_beta=20))
    def test_matches_assembled_graph(self, case):
        G, p, eps = case
        assert betti_after_smoothing(G, p, eps) == epsilon_smoothing(G, p, eps).graph.betti1

    def test_builds_no_smoothing(self, c12_decorated, monkeypatch):
        def fail(*args):
            raise AssertionError("S assembled")
        # S is the only MetricGraph that reeb_smoothing builds itself
        monkeypatch.setattr(reeb_smoothing, "epsilon_smoothing", fail)
        monkeypatch.setattr(reeb_smoothing, "MetricGraph", fail)
        p = GraphPoint(vertex="p")
        assert [betti_after_smoothing(c12_decorated, p, eps)
                for eps in (0.0, 5.9, 6.0)] == [1, 1, 0]


class TestLevelOracle:
    """The slot sweep against the earlier per-level smoothing."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(smoothing_cases())
    def test_matches_per_level_smoothing(self, case):
        G, p, eps = case
        S = epsilon_smoothing(G, p, eps)
        T = smoothing_levels.epsilon_smoothing(G, p, eps)
        assert S.to_json_obj() == T.to_json_obj()
        mesh = max(0.1 * diameter(G), G.total_length / 100.0)
        corr = quotient_correspondence(G, S, mesh)
        left, right, DX, DY = smoothing_levels.correspondence_parts(G, T, mesh)
        assert list(corr.left) == left
        assert list(corr.right) == right
        assert np.array_equal(corr.DX, DX)
        assert np.array_equal(corr.DY, DY)


class TestSlotOracle:
    """The incremental sweep against the sweep that labels the whole band
    at every slot."""

    @staticmethod
    def assert_same(G, p, eps, mesh):
        S = epsilon_smoothing(G, p, eps)
        T = smoothing_slots.epsilon_smoothing(G, p, eps)
        assert S.to_json_obj() == T.to_json_obj()
        # every lookup at once on the array path, and one at a time by the
        # per-point oracle
        names = class_names(S)
        code = {name: k for k, name in enumerate(names)}
        elems, num = quotient_points.numbering(S)
        reps = list(T._rep.items())
        got = _reps(S, np.array([code[name] for (name, _), _ in reps], dtype=np.int64),
                    np.array([s for (_, s), _ in reps], dtype=np.int64))
        for ((name, s), x), k in zip(reps, got.tolist()):
            assert elems[k] == x, (name, s)
            assert quotient_points._rep_at(S, name, s) == x, (name, s)
        classes = [(s, x, name) for s, at in enumerate(T._name_of) for x, name in at.items()]
        got = _classes(S, np.array([num[x] for _, x, _ in classes], dtype=np.int64),
                       np.array([s for s, _, _ in classes], dtype=np.int64))
        for (s, x, name), c in zip(classes, got.tolist()):
            assert names[c] == name, (s, x)
            assert quotient_points._class(S, s, x) == name, (s, x)
        corr = quotient_correspondence(G, S, mesh)
        left, right, DX, DY = smoothing_slots.correspondence_parts(G, T, mesh)
        assert list(corr.left) == left
        assert list(corr.right) == right
        assert np.array_equal(corr.DX, DX)
        assert np.array_equal(corr.DY, DY)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(smoothing_cases(max_vertices=60, max_beta=20))
    def test_matches_whole_band_sweep(self, case):
        G, p, eps = case
        self.assert_same(G, p, eps, max(0.1 * diameter(G), G.total_length / 100.0))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cli_large_graph(self, seed):
        # the V=300, beta=40 graph and the eps and mesh of the cli-large
        # benchmark workload
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        eps = 1.5 * persistence_sequence(G).a(1)
        self.assert_same(G, GraphPoint(vertex=G.vertices[0]), eps, G.total_length / 150.0)

    def test_newborn_component_absorbs_older_one(self):
        # w (f = 2) and u (f = 2 + 5e-8) share a slot. u enters touching
        # nothing, and its three edges up make its new component larger than
        # the old one {aw, w}, so uw merges the old one into the new one:
        # a pass-through at eps = 0.5 whose class carries on the old S edge
        G = MetricGraph(["p", "a", "w", "u", "x1", "x2", "x3"],
                        [("pa", "p", "a", 1.0), ("aw", "a", "w", 1.0),
                         ("ux1", "u", "x1", 1.0), ("ux2", "u", "x2", 1.0),
                         ("ux3", "u", "x3", 1.0), ("uw", "u", "w", 5e-8)])
        for eps in (0.0, 0.5):
            self.assert_same(G, GraphPoint(vertex="p"), eps, 0.25)

    @pytest.mark.parametrize("k", [2.0 ** -40, 2.0 ** 40])
    def test_extreme_scales(self, k):
        # tolerances and slot merging are relative, so both sweeps see the
        # same slots far from unit scale
        spec = EnsembleSpec(seed=89, count=6, beta1_range=(1, 5))
        for i in range(6):
            G = scaled(random_graph(spec, i), k)
            seq = persistence_sequence(G)
            mesh = max(0.1 * diameter(G), G.total_length / 100.0)
            for eps in (0.0, 0.3 * diameter(G), 1.5 * seq.a(1), 1.5 * seq.a(1) + 1e-6 * k):
                self.assert_same(G, GraphPoint(vertex=G.vertices[0]), eps, mesh)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_breakpoints_are_output_sensitive(self, seed):
        # the class and representative lookups store breakpoints only where
        # a component or a class changes, not one entry per (slot, live
        # component): about 1,000 entries here, where per-slot tables held
        # 39,000-45,000
        spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
        G = random_graph(spec, 0)
        eps = 1.5 * persistence_sequence(G).a(1)
        S = epsilon_smoothing(G, GraphPoint(vertex=G.vertices[0]), eps)
        entries = (sum(len(slots) for slots, _ in S._names)
                   + sum(len(slots) for slots, _ in S._reps.values()))
        assert entries <= 2 * (len(S._model.graph.vertices) + len(S._model.graph.edges))


def located(G, S, mesh, x):
    """The class of point x of G's mesh-net in the quotient correspondence."""
    return quotient_correspondence(G, S, mesh).right[epsilon_net(G, mesh).index(x)]


class TestBuiltPointsAreCanonical:
    """The quotient path locates and represents points that may lie within
    tolerance of an edge end, and snaps them."""

    def test_locate_snaps_into_a_vertex(self):
        # S's longest edge is about 600, so its tolerance, 5.12e-7, is above
        # the slot gap of 1e-7 (100 x G's tolerance): w (f = 3e-7) has a
        # slot of its own, on S edge s0, but lies within S's tolerance of n0
        G = MetricGraph(["p", "w"] + [f"v{k}" for k in range(600)],
                        [("pw", "p", "w", 3e-7), ("wv", "w", "v0", 1.0)]
                        + [(f"e{k}", f"v{k - 1}", f"v{k}", 1.0) for k in range(1, 600)])
        S = epsilon_smoothing(G, GraphPoint(vertex="p"), 0.5)
        assert S.graph._tol > 100.0 * G._tol
        w = GraphPoint(vertex="w")
        assert quotient_points._locate(S, w) == GraphPoint(vertex="n0")
        assert located(G, S, 1.0, w) == GraphPoint(vertex="n0")

    def test_level_a_merge_gap_above_a_critical_snaps_to_it(self):
        # w lies exactly the merge gap (100 x G's tolerance) above p, so its
        # level joins p's slot and w is located at n0; S's tolerance is below
        # the gap, so the S edge above n0 would not snap back to it
        gap = 100.0 * 1e-9
        G = MetricGraph(["p", "w", "x"], [("pw", "p", "w", gap), ("wx", "w", "x", 1.0)])
        assert 100.0 * G._tol == gap
        S = epsilon_smoothing(G, GraphPoint(vertex="p"), 0.5)
        assert S.graph._tol < gap
        w = GraphPoint(vertex="w")
        assert quotient_points._locate(S, w) == GraphPoint(vertex="n0")
        assert located(G, S, 0.5, w) == GraphPoint(vertex="n0")

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.5])
    def test_located_and_represented_points(self, theta, c12_decorated, eps):
        # a representative clamped to the end of its model edge is that
        # end's vertex, not an edge point at offset 0
        for G, p in ((theta, GraphPoint(vertex="u")), (theta, GraphPoint(edge="e3", offset=0.75)),
                     (c12_decorated, GraphPoint(vertex="p"))):
            S = epsilon_smoothing(G, p, eps)
            corr = quotient_correspondence(G, S, 0.25)
            n = len(epsilon_net(G, 0.25))
            for y in corr.right[:n]:
                assert S.graph.canonical(y) == y
            for r in corr.left[n:]:
                assert G.canonical(r) == r
            left, right, _, _ = quotient_points.correspondence_parts(G, S, 0.25)
            assert list(corr.left) == left
            assert list(corr.right) == right


class TestQuotientPointsOracle:
    """The whole-net location and representation against the per-point
    path of tests/oracles/quotient_points.py, far from unit scale too."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(smoothing_cases(max_vertices=30, max_beta=10),
           st.sampled_from([2.0 ** -40, 1.0, 2.0 ** 40]))
    def test_matches_per_point_path(self, case, k):
        G, p, eps = case
        G, eps = scaled(G, k), eps * k
        if not p.is_vertex():
            p = GraphPoint(edge=p.edge, offset=p.offset * k)
        S = epsilon_smoothing(G, p, eps)
        mesh = max(0.1 * diameter(G), G.total_length / 100.0)
        corr = quotient_correspondence(G, S, mesh)
        left, right, DX, DY = quotient_points.correspondence_parts(G, S, mesh)
        assert list(corr.left) == left
        assert list(corr.right) == right
        assert np.array_equal(corr.DX, DX)
        assert np.array_equal(corr.DY, DY)


def scaled(G, k):
    return MetricGraph(G.vertices, [(e.id, e.u, e.v, e.length * k) for e in G.edges])


def assert_same_shape(S, T):
    assert S.graph.betti1 == T.graph.betti1
    assert sorted(S.level.values()) == pytest.approx(sorted(T.level.values()), rel=1e-12)
    assert (sorted(e.length for e in S.graph.edges)
            == pytest.approx(sorted(e.length for e in T.graph.edges), rel=1e-12))


class TestSmallScale:
    @pytest.mark.parametrize("k", [1e-6, 1e-9])
    def test_smoothing_and_delta_do_not_crash(self, k):
        # per-level float windows with absolute tolerances used to miss
        # model elements at these scales (KeyError in _locate, or an
        # interval component missing from a bounding band)
        for i in range(20):
            G = scaled(random_graph(EnsembleSpec(seed=0), i), k)
            p = GraphPoint(vertex=G.vertices[0])
            S = epsilon_smoothing(G, p, 0.3 * diameter(G))
            assert S.level[S.base_class] == 0.0
            rep = delta_n_bounds(G, 0, p)
            assert rep.lower <= rep.upper


class TestSmoothingShapeInvariance:
    """Betti number, levels and edge lengths of S do not depend on names,
    edge order or a subdivided edge."""

    @staticmethod
    def cases():
        spec = EnsembleSpec(seed=83, count=8, beta1_range=(1, 4))
        for i in range(8):
            G = random_graph(spec, i)
            seq = persistence_sequence(G)
            for eps in (0.0, 0.3 * diameter(G), 1.5 * seq.a(1) + 1e-6):
                yield G, eps

    def test_relabel_and_reorder(self):
        for G, eps in self.cases():
            vmap = {v: f"w{len(G.vertices) - k}" for k, v in enumerate(G.vertices)}
            emap = {e.id: f"f{len(G.edges) - k}" for k, e in enumerate(G.edges)}
            H = MetricGraph([vmap[v] for v in G.vertices],
                            [(emap[e.id], vmap[e.u], vmap[e.v], e.length)
                             for e in reversed(G.edges)])
            e = G.edges[0]
            p = GraphPoint(edge=e.id, offset=0.4 * e.length)
            q = GraphPoint(edge=emap[e.id], offset=0.4 * e.length)
            assert_same_shape(epsilon_smoothing(G, p, eps), epsilon_smoothing(H, q, eps))
            v = G.vertices[-1]
            assert_same_shape(epsilon_smoothing(G, GraphPoint(vertex=v), eps),
                              epsilon_smoothing(H, GraphPoint(vertex=vmap[v]), eps))

    def test_subdivide_edge(self):
        for G, eps in self.cases():
            e = G.edges[-1]
            H = MetricGraph(list(G.vertices) + ["mid"],
                            [x for x in ((d.id, d.u, d.v, d.length) for d in G.edges)
                             if x[0] != e.id]
                            + [("h1", e.u, "mid", e.length / 2.0),
                               ("h2", "mid", e.v, e.length / 2.0)])
            p = GraphPoint(vertex=G.vertices[0])
            assert_same_shape(epsilon_smoothing(G, p, eps), epsilon_smoothing(H, p, eps))

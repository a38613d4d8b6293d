import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from metricgraph import (
    Barcode,
    GraphPoint,
    MetricGraph,
    PersistenceSequence,
    bottleneck_distance,
    epsilon_net,
    finite_metric,
    minimal_cycle_basis,
    persistence_sequence,
    save_graph,
    seq_distance,
    vr_h1_barcode,
)
from metricgraph.harness import EnsembleSpec, random_graph
from metricgraph import cli, persistence
from metricgraph.persistence import _horton_candidates

from conftest import TINY_PARALLEL, memo_keys, pendant_graphs, tie_graphs
from oracles import (
    bottleneck_exhaustive,
    horton_walks,
    mcb_exhaustive,
    vr_columns,
    vr_reduction,
)

TOL = 1e-9


class TestBarcodeType:
    def test_rejects_bad_bars(self):
        with pytest.raises(ValueError):
            Barcode(bars=((2.0, 1.0),))
        with pytest.raises(ValueError):
            Barcode(bars=((0.0, float("inf")),))

    def test_sorts_bars(self):
        b = Barcode(bars=((1.0, 3.0), (0.0, 2.0)))
        assert b.bars[0] == (0.0, 2.0)

    def test_json_roundtrip(self):
        b = Barcode(bars=((1.0, 2.0), (0.5, 4.0)))
        assert Barcode.from_json_obj(b.to_json_obj()) == b


class TestSequenceType:
    def test_non_increasing_required(self):
        with pytest.raises(ValueError):
            PersistenceSequence(entries=(1.0, 2.0))
        with pytest.raises(ValueError):
            PersistenceSequence(entries=(1.0, 0.0))

    def test_accepts_numpy_numbers(self):
        s = PersistenceSequence(entries=(np.int64(3), np.float32(1.5), 1))
        assert s.entries == (3.0, 1.5, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.5"])
    def test_rejects_non_finite_and_bool(self, bad):
        for entries in ((bad,), (5.0, bad)):
            with pytest.raises(ValueError, match="finite numbers"):
                PersistenceSequence(entries=entries)
            with pytest.raises(ValueError, match="finite numbers"):
                PersistenceSequence.from_json_obj(
                    json.loads(json.dumps({"a": list(entries)})))

    def test_tail_reads_zero(self):
        s = PersistenceSequence(entries=(4.0,))
        assert s.a(1) == 4.0
        assert s.a(2) == 0.0
        with pytest.raises(ValueError):
            s.a(0)

    @pytest.mark.parametrize("n", [1.5, True, "1"])
    def test_rejects_non_integer_index(self, n):
        s = PersistenceSequence(entries=(4.0, 2.0))
        with pytest.raises(ValueError, match="integer"):
            s.a(n)

    def test_numpy_integer_index(self):
        s = PersistenceSequence(entries=(4.0, 2.0))
        assert s.a(np.int64(2)) == 2.0
        assert s.a(np.int32(3)) == 0.0


class TestVrBarcode:
    def test_filled_triangle(self):
        D = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert vr_h1_barcode(D).bars == ()

    def test_square_cycle(self):
        # 4 points of a circumference-4 circle: bar (1, 2)
        D = np.array([[0, 1, 2, 1],
                      [1, 0, 1, 2],
                      [2, 1, 0, 1],
                      [1, 2, 1, 0]], dtype=float)
        bc = vr_h1_barcode(D)
        assert len(bc.bars) == 1
        assert bc.bars[0] == pytest.approx((1.0, 2.0), abs=TOL)

    def test_c12_net_death_near_four(self, c12):
        pts = vr_reduction.circle_points(48, 12.0)
        D = np.asarray(pts)
        bc = vr_h1_barcode(D)
        assert len(bc.bars) == 1
        birth, death = bc.bars[0]
        assert 3.5 <= death <= 4.0

    def test_matches_independent_reduction(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            n = int(rng.integers(5, 9))
            P = rng.random((n, 2))
            D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
            np.fill_diagonal(D, 0.0)
            want = sorted(vr_reduction.h1_barcode(D))
            got = sorted(vr_h1_barcode(D).bars)
            assert len(want) == len(got)
            for (b1, d1), (b2, d2) in zip(want, got):
                assert abs(b1 - b2) < 1e-7 and abs(d1 - d2) < 1e-7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            vr_h1_barcode(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            vr_h1_barcode(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            vr_h1_barcode(bad)
        with pytest.raises(ValueError, match="zero diagonal"):
            vr_h1_barcode(np.array([[0.0, 1.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            vr_h1_barcode(D)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="too many points"):
            vr_h1_barcode(np.zeros((301, 301)))


def euclidean(seed: int, n: int, quarters: bool) -> np.ndarray:
    P = np.random.default_rng(seed).random((n, 2)) * 2.0
    D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    return np.round(D * 4.0) / 4.0 if quarters else D


@st.composite
def euclidean_metrics(draw):
    """0-25 points in the plane; one metric in three rounded to quarters,
    so that edge values tie."""
    return euclidean(draw(st.integers(0, 10_000)), draw(st.integers(0, 25)),
                     draw(st.integers(0, 2)) == 0)


class TestVrColumnOracle:
    """The coboundary reduction equals (==) the homology column reduction
    it replaced."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(euclidean_metrics())
    def test_euclidean(self, D):
        assert vr_h1_barcode(D) == vr_columns.h1_barcode(D)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(euclidean_metrics(), st.booleans())
    def test_asymmetric_by_one_ulp(self, D, lower):
        # only the upper triangle may be read: nudging either triangle by
        # an ulp must move both reductions alike
        n = D.shape[0]
        tri = np.tril_indices(n, -1) if lower else np.triu_indices(n, 1)
        D[tri] = np.nextafter(D[tri], np.inf)
        assert vr_h1_barcode(D) == vr_columns.h1_barcode(D)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(0, 4),
           st.floats(0.15, 0.6))
    def test_ensemble_graph_nets(self, seed, n_v, beta, frac):
        spec = EnsembleSpec(seed=seed, count=1, vertex_range=(n_v, n_v),
                            beta1_range=(beta, beta))
        G = random_graph(spec, 0)
        # fewer than 25 interior points, so at most 37 in all
        eps = max(frac * max(e.length for e in G.edges), G.total_length / 25.0)
        D = finite_metric(G, epsilon_net(G, eps))
        assert vr_h1_barcode(D) == vr_columns.h1_barcode(D)

    def test_large_ensemble_graph_net(self):
        spec = EnsembleSpec(seed=1, vertex_range=(60, 60), beta1_range=(10, 10))
        G = random_graph(spec, 0)
        D = finite_metric(G, epsilon_net(G, 1.0))
        assert D.shape[0] > 100
        assert vr_h1_barcode(D) == vr_columns.h1_barcode(D)
        # finite_metric is exactly symmetric; an ulp of asymmetry in the
        # lower triangle must still leave the barcode unchanged
        lower = np.tril_indices(D.shape[0], -1)
        D[lower] = np.nextafter(D[lower], np.inf)
        assert vr_h1_barcode(D) == vr_columns.h1_barcode(D)


def pivots_and_key_minima(D: np.ndarray, block: int = 2000):
    """The earliest cofacet key of every edge, from the apparent stage's
    helper and as the least entry of the edge's row of cofacet keys,
    blockwise over the edges."""
    _, R = persistence._edge_ranks(D)
    iu, ju = np.triu_indices(D.shape[0], k=1)
    got, want = [], []
    for s in range(0, len(iu), block):
        i, j = iu[s:s + block], ju[s:s + block]
        got.append(persistence._cofacet_pivots(R, i, j)[1])
        want.append(persistence._cofacet_keys(R, i, j).min(axis=1))
    return np.concatenate(got), np.concatenate(want)


def ensemble_net(seed: int, n_v: int, beta: int, mesh: float) -> np.ndarray:
    G = random_graph(EnsembleSpec(seed=seed, vertex_range=(n_v, n_v),
                                  beta1_range=(beta, beta)), 0)
    return finite_metric(G, epsilon_net(G, mesh))


class TestCofacetPivots:
    """The apparent stage's pivot, the first third vertex of least value,
    is the least key of the edge's cofacets."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(euclidean_metrics())
    @example(ensemble_net(3, 12, 3, 0.5))
    def test_pivot_is_least_key(self, D):
        # vr_h1_barcode forms no pivot below three points
        if D.shape[0] >= 3:
            got, want = pivots_and_key_minima(D)
            assert np.array_equal(got, want)

    def test_at_the_cap(self):
        # the gh-nets 100-vertex graph at mesh 0.55: 257-300 points, so
        # edge ranks run past int16
        mesh = 0.55
        G = random_graph(EnsembleSpec(seed=1, vertex_range=(100, 100),
                                      beta1_range=(15, 15)), 0)
        D = finite_metric(G, epsilon_net(G, mesh))
        assert 257 <= D.shape[0] <= persistence._VR_MAX_POINTS
        assert persistence._edge_ranks(D)[1].max() > 2 ** 15
        got, want = pivots_and_key_minima(D)
        assert np.array_equal(got, want)
        # VR stability with Virk's barcode of the graph, {(0, l_i / 3)}
        basis = Barcode(bars=tuple((0.0, a) for a in persistence_sequence(G).entries))
        assert bottleneck_distance(vr_h1_barcode(D), basis) <= 2.0 * mesh + TOL


class TestMinimalCycleBasis:
    def test_tree_empty(self):
        G = MetricGraph(vertices=["a", "b", "c"],
                        edges=[("e1", "a", "b", 1.0), ("e2", "b", "c", 2.0)])
        assert minimal_cycle_basis(G) == []

    def test_theta(self, theta):
        assert minimal_cycle_basis(theta) == pytest.approx([3.0, 4.0])

    def test_c12(self, c12):
        assert minimal_cycle_basis(c12) == pytest.approx([12.0])

    def test_matches_exhaustive_oracle(self):
        spec = EnsembleSpec(seed=101, count=10)
        for i in range(10):
            G = random_graph(spec, i)
            verts = list(G.vertices)
            edges = [(e.id, e.u, e.v, e.length) for e in G.edges]
            want = mcb_exhaustive.minimum_cycle_basis_lengths(verts, edges)
            got = minimal_cycle_basis(G)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tie_graphs())
    def test_tie_heavy_graphs_match_exhaustive_oracle(self, graph):
        verts, edges = graph
        want = mcb_exhaustive.minimum_cycle_basis_lengths(verts, edges)
        got = minimal_cycle_basis(MetricGraph(verts, edges))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_tiny_parallel_edges(self, k):
        s = 2.0 ** k
        verts, edges = TINY_PARALLEL
        edges = [(i, u, v, L * s) for (i, u, v, L) in edges]
        want = mcb_exhaustive.minimum_cycle_basis_lengths(verts, edges)
        got = minimal_cycle_basis(MetricGraph(verts, edges))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_graphs(), st.integers(-60, 60))
    @example(TINY_PARALLEL, 60)
    def test_scales_exactly(self, graph, k):
        verts, edges = graph
        s = 2.0 ** k
        scaled = MetricGraph(verts, [(i, u, v, L * s) for (i, u, v, L) in edges])
        want = [x * s for x in minimal_cycle_basis(MetricGraph(verts, edges))]
        assert minimal_cycle_basis(scaled) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_graphs(), st.randoms(use_true_random=False))
    def test_relabel_and_reorder(self, graph, rnd):
        verts, edges = graph
        names = list(verts)
        rnd.shuffle(names)
        vmap = {v: f"x{k}" for k, v in enumerate(names)}
        moved = [(f"f{k}", vmap[u], vmap[v], L) for k, (_, u, v, L) in enumerate(edges)]
        rnd.shuffle(moved)
        got = minimal_cycle_basis(MetricGraph(list(vmap.values()), moved))
        want = minimal_cycle_basis(MetricGraph(verts, edges))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def scaled(graph, k):
    verts, edges = graph
    return MetricGraph(verts, [(i, u, v, L * 2.0 ** k) for (i, u, v, L) in edges])


class TestHortonWalkOracle:
    """The index-based trees and the one-pass masks against the dict-keyed
    Dijkstra and the parent-chain walk they replaced, over the branch roots
    the oracle finds by peeling leaves by name."""

    @staticmethod
    def assert_same(G):
        names, eids = G.vertices, [e.id for e in G.edges]
        for r, root in enumerate(names):
            tree = G._sp_tree(r)
            dist, parent = horton_walks.sp_tree(G, root)
            assert dict(zip(names, tree.dist)) == dist
            assert {names[v]: (names[tree.parent[v]], eids[tree.via[v]])
                    for v in range(len(names)) if v != r} == parent
            # the core once, each vertex after its parent, and the root
            # first when it is on the core
            core = G._kernel().core
            assert sorted(tree.order) == core
            rank = {v: k for k, v in enumerate(tree.order)}
            assert tree.order[0] == r or r not in core
            assert all(rank[tree.parent[v]] < rank[v] for v in tree.order[1:])
        roots = horton_walks.branch_roots(G)
        assert _horton_candidates(G) == horton_walks.horton_candidates(G, roots)
        assert minimal_cycle_basis(G) == horton_walks.minimal_cycle_basis(G, roots)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_graphs(), st.integers(-60, 60))
    @example(TINY_PARALLEL, -60)
    @example(TINY_PARALLEL, 60)
    def test_tie_graphs(self, graph, k):
        self.assert_same(scaled(graph, k))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.integers(0, 20),
           st.sampled_from([-60, 0, 60]))
    def test_ensemble_graphs(self, seed, n_v, beta, k):
        spec = EnsembleSpec(seed=seed, count=1, vertex_range=(n_v, n_v),
                            beta1_range=(beta, beta))
        G = random_graph(spec, 0)
        self.assert_same(scaled((list(G.vertices),
                                 [(e.id, e.u, e.v, e.length) for e in G.edges]), k))

    def test_large_graph(self):
        spec = EnsembleSpec(seed=1, count=1, vertex_range=(300, 300), beta1_range=(40, 40))
        self.assert_same(random_graph(spec, 0))


# a triangle with two paths hanging on one of its vertices
TWO_AT_ONE = (["a", "b", "c", "x1", "x2", "y1", "y2", "y3"],
              [("ab", "a", "b", 1.0), ("bc", "b", "c", 1.0), ("ca", "c", "a", 1.0),
               ("x1", "a", "x1", 1.0), ("x2", "x1", "x2", 1.0),
               ("y1", "y1", "a", 1.0), ("y2", "y2", "y1", 1.0), ("y3", "y2", "y3", 1.0)])
# a bare 4-cycle with a path hanging on each of two opposite vertices
HANGING_PATHS = (["p", "q", "r", "s", "p1", "p2", "r1"],
                 [("pq", "p", "q", 0.3), ("qr", "q", "r", 0.1), ("rs", "r", "s", 0.2),
                  ("sp", "s", "p", 0.3), ("p1", "p", "p1", 0.1), ("p2", "p1", "p2", 0.2),
                  ("r1", "r1", "r", 0.3)])
# K4 with one edge doubled: no pendant vertex
NO_PENDANT = (list("abcd"), [("ab", "a", "b", 1.0), ("ac", "a", "c", 1.0),
                             ("ad", "a", "d", 1.0), ("bc", "b", "c", 1.0),
                             ("bd", "b", "d", 1.0), ("cd", "c", "d", 1.0),
                             ("cd'", "c", "d", 1.0)])
# a long path: a tree keeps one vertex as its core
LONG_PATH = ([f"v{k}" for k in range(9)],
             [(f"e{k}", f"v{k}", f"v{k + 1}", 0.1) for k in range(8)])


class TestPendantTrees:
    """Trees whose Dijkstra covers only the 2-core, with pendant trees
    walked and filled outside it, against the dict-keyed Dijkstra over the
    whole graph and the Horton walk."""

    @staticmethod
    def assert_split(G):
        # the core is the 2-core: every core vertex has two core edges (a
        # tree keeps one vertex), every pendant vertex hangs on its parent
        # by a bridge, and the pendant list runs outward from the core
        kernel = G._kernel()
        up, pendant = kernel.up, kernel.pendant
        core = [v for v in range(len(G.vertices)) if up[v] is None]
        assert kernel.core == core
        assert sorted(core + pendant) == list(range(len(G.vertices)))
        rank = {v: k for k, v in enumerate(pendant)}
        for v in pendant:
            u, length, k = up[v]
            assert up[u] is None or rank[u] < rank[v]
            assert (u, length, k) in G._iadj[v]
            assert sum(w == u for (w, _, _) in G._iadj[v]) == 1
        coreset = set(core)
        if len(core) > 1 or G.betti1:
            assert all(sum(w in coreset for (w, _, _) in G._iadj[v]) >= 2 for v in core)
            # the 2-core is unique, and so are its branch vertices
            assert kernel.roots == [G._vidx[v] for v in horton_walks.branch_roots(G)]
        else:
            # a tree keeps one vertex, whichever the peel reaches last
            assert len(core) == 1 and kernel.roots == core
        # the core edges: both ends on the core
        vidx = G._vidx
        assert kernel.edges.tolist() == [k for k, e in enumerate(G.edges)
                                         if up[vidx[e.u]] is None and up[vidx[e.v]] is None]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pendant_graphs(), st.sampled_from([-60, 0, 60]))
    @example(TWO_AT_ONE, 0)
    @example(TWO_AT_ONE, 60)
    @example(HANGING_PATHS, -60)
    @example(HANGING_PATHS, 0)
    @example(NO_PENDANT, 0)
    @example(LONG_PATH, 60)
    @example((["v0"], []), 0)
    @example((["v0"], [("l", "v0", "v0", 1.0)]), -60)
    def test_pendant_graphs(self, graph, k):
        G = scaled(graph, k)
        self.assert_split(G)
        TestHortonWalkOracle.assert_same(G)

    def test_examples_have_their_shape(self):
        # the pinned examples hang where they say they do
        for graph, pendant in ((TWO_AT_ONE, 5), (HANGING_PATHS, 3), (NO_PENDANT, 0),
                               (LONG_PATH, 8)):
            G = MetricGraph(*graph)
            assert len(G._kernel().pendant) == pendant
        G = MetricGraph(*TWO_AT_ONE)
        # from the deepest root the walk reaches the core at a, at distance 3
        tree = G._sp_tree(G._vidx["y3"])
        a = G._vidx["a"]
        up = G._kernel().up
        assert [up[G._vidx[v]][0] for v in ("x1", "y1")] == [a, a]
        # the order holds the core alone, from where the walk reaches it
        assert tree.order[0] == a and sorted(tree.order) == G._kernel().core
        assert tree.dist[a] == 3.0

    def test_large_graphs(self):
        # the cli-large graphs: a 2-core of under half their vertices
        for seed in (1, 2):
            spec = EnsembleSpec(seed=seed, vertex_range=(300, 300), beta1_range=(40, 40))
            G = random_graph(spec, 0)
            TestHortonWalkOracle.assert_same(G)
            assert len(G._kernel().pendant) > len(G.vertices) // 2


# a tie the branch roots break otherwise than every root: the triangle
# through e1 sums to 0.6000000000000001 in construction order, the one
# through e3 to 0.6, and only v0's tree (v0 has two core-edge ends) closes it
TIE_06 = (["v0", "v1", "v2"], [("e0", "v0", "v1", 0.3), ("e1", "v1", "v2", 0.1),
                               ("e2", "v0", "v2", 0.2), ("e3", "v1", "v2", 0.1)])
# a triangle with a loop at a, and a loop at d on a stem from c: d has 3
# core-edge ends only if its loop counts twice
LOOPS = (["a", "b", "c", "d"], [("ab", "a", "b", 1.0), ("bc", "b", "c", 1.0),
                                ("ca", "c", "a", 1.0), ("la", "a", "a", 2.0),
                                ("cd", "c", "d", 1.0), ("ld", "d", "d", 3.0)])


def edge_tuples(G):
    return [(e.id, e.u, e.v, e.length) for e in G.edges]


def sp_tree_roots(G):
    """The roots of the shortest-path trees G has built, ascending."""
    return sorted(r for (r,) in memo_keys(G, MetricGraph._sp_tree))


class TestBranchRoots:
    """Horton candidates from the branch vertices only against those from
    every vertex (the oracle's default roots)."""

    @staticmethod
    def assert_bounded(G):
        # each length is at least the exact one and at most every root's
        # plus the trees' slack; mcb_exhaustive weighs G's own (split)
        # edges in construction order, as _mask_weight does
        got = minimal_cycle_basis(G)
        every = horton_walks.minimal_cycle_basis(G)
        exact = mcb_exhaustive.minimum_cycle_basis_lengths(list(G.vertices), edge_tuples(G))
        slack = 2 * (len(G.vertices) - 1) * 1e-15 * G._unit
        assert len(got) == len(every) == len(exact) == G.betti1
        assert all(x <= y + slack for x, y in zip(got, every))
        assert all(x >= y for x, y in zip(got, exact))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_graphs(), st.sampled_from([-60, 0, 60]))
    @example(TIE_06, 0)
    @example(TIE_06, -60)
    @example(LOOPS, 60)
    def test_tie_graphs(self, graph, k):
        self.assert_bounded(scaled(graph, k))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pendant_graphs(), st.sampled_from([-60, 0, 60]))
    def test_pendant_graphs(self, graph, k):
        self.assert_bounded(scaled(graph, k))

    def test_tie_broken_otherwise(self):
        # not == to every root on tie graphs, but within the bound
        G = MetricGraph(*TIE_06)
        assert horton_walks.branch_roots(G) == ["v1", "v2"]
        assert minimal_cycle_basis(G) == [0.2, 0.6000000000000001]
        assert horton_walks.minimal_cycle_basis(G) == [0.2, 0.6]
        assert mcb_exhaustive.minimum_cycle_basis_lengths(*TIE_06) == [0.2, 0.6]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.integers(0, 20),
           st.sampled_from([-60, 0, 60]))
    def test_ensemble_graphs(self, seed, n_v, beta, k):
        spec = EnsembleSpec(seed=seed, count=1, vertex_range=(n_v, n_v),
                            beta1_range=(beta, beta))
        H = random_graph(spec, 0)
        G = scaled((list(H.vertices), edge_tuples(H)), k)
        assert minimal_cycle_basis(G) == horton_walks.minimal_cycle_basis(G)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cli_large_graphs(self, seed):
        G = random_graph(EnsembleSpec(seed=seed, vertex_range=(300, 300),
                                      beta1_range=(40, 40)), 0)
        assert minimal_cycle_basis(G) == horton_walks.minimal_cycle_basis(G)


class TestBranchRootTrees:
    """One shortest-path tree per branch vertex, at most 2 beta - 2 in all."""

    @staticmethod
    def assert_trees(G):
        want = [G._vidx[v] for v in horton_walks.branch_roots(G)]
        assert sp_tree_roots(G) == want
        assert len(want) <= 2 * G.betti1 - 2

    @pytest.mark.parametrize("seed, n_v, beta", [(1, 300, 40), (2, 300, 40), (1, 1000, 100)])
    def test_ensemble_graphs(self, seed, n_v, beta):
        G = random_graph(EnsembleSpec(seed=seed, vertex_range=(n_v, n_v),
                                      beta1_range=(beta, beta)), 0)
        minimal_cycle_basis(G)
        self.assert_trees(G)

    def test_loops_count_twice(self):
        G = MetricGraph(*LOOPS)
        assert minimal_cycle_basis(G) == [2.0, 3.0, 3.0]
        assert horton_walks.branch_roots(G) == ["a", "c", "d"]
        self.assert_trees(G)

    def test_seq_command(self, tmp_path, monkeypatch):
        G = random_graph(EnsembleSpec(seed=1, vertex_range=(300, 300),
                                      beta1_range=(40, 40)), 0)
        path = tmp_path / "g300.json"
        save_graph(G, str(path))
        loaded, load = [], cli.load_graph
        monkeypatch.setattr(cli, "load_graph", lambda p: loaded.append(load(p)) or loaded[0])
        result = CliRunner().invoke(cli.main, ["seq", "--graph", str(path)])
        assert result.exit_code == 0, result.output
        self.assert_trees(loaded[0])


class TestCycleBasisCache:
    """One Horton run per graph, whichever of minimal_cycle_basis and
    persistence_sequence asks first."""

    @staticmethod
    def once(monkeypatch):
        real, calls = persistence._horton_candidates, []

        def horton(G):
            if calls:
                raise AssertionError("Horton candidates built twice")
            calls.append(G)
            return real(G)

        monkeypatch.setattr(persistence, "_horton_candidates", horton)
        return calls

    def test_basis_then_sequence(self, monkeypatch, theta):
        calls = self.once(monkeypatch)
        first = minimal_cycle_basis(theta)
        assert first == [3.0, 4.0]
        assert persistence_sequence(theta).entries == (4.0 / 3.0, 1.0)
        again = minimal_cycle_basis(theta)
        assert again == first and again is not first
        again.append(0.0)  # a caller's list is its own
        assert minimal_cycle_basis(theta) == first
        assert len(calls) == 1

    def test_sequence_then_basis(self, monkeypatch):
        calls = self.once(monkeypatch)
        G = random_graph(EnsembleSpec(seed=5, count=1, vertex_range=(40, 40),
                                      beta1_range=(6, 6)), 0)
        seq = persistence_sequence(G)
        lens = minimal_cycle_basis(G)
        assert tuple(x / 3.0 for x in reversed(lens)) == seq.entries
        assert lens == horton_walks.minimal_cycle_basis(G)
        assert len(calls) == 1

    def test_tree_runs_no_horton(self, monkeypatch):
        calls = self.once(monkeypatch)
        G = MetricGraph(*LONG_PATH)
        assert minimal_cycle_basis(G) == []
        assert persistence_sequence(G).entries == ()
        assert calls == []


class TestPersistenceSequence:
    def test_tree_zero(self):
        G = MetricGraph(vertices=["a", "b"], edges=[("e", "a", "b", 1.0)])
        s = persistence_sequence(G)
        assert s.entries == ()
        assert s.a(1) == 0.0

    def test_c12(self, c12):
        assert persistence_sequence(c12).entries == pytest.approx((4.0,))

    def test_theta(self, theta):
        s = persistence_sequence(theta)
        assert s.entries == pytest.approx((4.0 / 3.0, 1.0))

    def test_built_once_per_graph(self, theta):
        first = persistence_sequence(theta)
        assert persistence_sequence(theta) is first

    def test_at_most_betti_entries(self):
        spec = EnsembleSpec(seed=131, count=10)
        for i in range(10):
            G = random_graph(spec, i)
            assert len(persistence_sequence(G).entries) <= G.betti1

    def test_agrees_with_net_vr(self, theta):
        # sampled VR persistence approximates the sequence within net slack
        mesh = 0.05
        D = finite_metric(theta, epsilon_net(theta, mesh))
        bc = vr_h1_barcode(D)
        lengths = sorted((d - b for b, d in bc.bars), reverse=True)
        seq = persistence_sequence(theta)
        assert len(lengths) == len(seq.entries)
        for got, want in zip(lengths, seq.entries):
            assert abs(got - want) <= 2 * mesh


class TestBottleneck:
    def test_identity(self):
        b = Barcode(bars=((0.0, 4.0), (1.0, 2.0)))
        assert bottleneck_distance(b, b) == 0.0

    def test_unmatched_half_length(self):
        assert abs(bottleneck_distance(Barcode(bars=((0.0, 4.0),)),
                                       Barcode(bars=())) - 2.0) < TOL

    def test_match_beats_unmatching(self):
        d = bottleneck_distance(Barcode(bars=((0.0, 4.0),)),
                                Barcode(bars=((0.0, 3.0),)))
        assert abs(d - 1.0) < TOL

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            def rand_bars(k):
                out = []
                for _ in range(k):
                    b = float(rng.uniform(0, 2))
                    out.append((b, b + float(rng.uniform(0.1, 2))))
                return tuple(out)
            b1 = Barcode(bars=rand_bars(int(rng.integers(0, 4))))
            b2 = Barcode(bars=rand_bars(int(rng.integers(0, 4))))
            want = bottleneck_exhaustive.bottleneck(list(b1.bars), list(b2.bars))
            assert abs(bottleneck_distance(b1, b2) - want) < 1e-9

    def test_pseudometric(self):
        rng = np.random.default_rng(29)
        bars = []
        for _ in range(3):
            k = int(rng.integers(1, 4))
            bs = []
            for _ in range(k):
                b = float(rng.uniform(0, 2))
                bs.append((b, b + float(rng.uniform(0.1, 2))))
            bars.append(Barcode(bars=tuple(bs)))
        d01 = bottleneck_distance(bars[0], bars[1])
        d12 = bottleneck_distance(bars[1], bars[2])
        d02 = bottleneck_distance(bars[0], bars[2])
        assert abs(d01 - bottleneck_distance(bars[1], bars[0])) < TOL
        assert d02 <= d01 + d12 + TOL


class TestSeqDistance:
    def test_equal(self):
        s = PersistenceSequence(entries=(4.0,))
        assert seq_distance(s, s) == 0.0

    def test_tail_zeros(self):
        assert seq_distance(PersistenceSequence(entries=(4.0,)),
                            PersistenceSequence()) == 4.0

    def test_elementwise(self):
        a = PersistenceSequence(entries=(4.0 / 3.0, 1.0))
        b = PersistenceSequence(entries=(4.0,))
        assert abs(seq_distance(a, b) - 8.0 / 3.0) < TOL

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from metricgraph import GraphPoint, MetricGraph, metric_graph, reeb_smoothing
from metricgraph.harness import EnsembleSpec


@pytest.fixture
def theta():
    # two vertices joined by parallel edges of lengths 1, 2, 3
    return MetricGraph(
        vertices=["u", "v"],
        edges=[("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0), ("e3", "u", "v", 3.0)])


@pytest.fixture
def c12():
    # plain circle of circumference 12; p and q are antipodal
    return MetricGraph(
        vertices=["p", "q"],
        edges=[("arc1", "p", "q", 6.0), ("arc2", "p", "q", 6.0)])


@pytest.fixture
def c12_decorated():
    # stem (2) + cycle (12) + tail (2): the worked example for delta bounds
    return MetricGraph(
        vertices=["p", "a", "b", "q"],
        edges=[("stem", "p", "a", 2.0),
               ("c1", "a", "b", 6.0),
               ("c2", "a", "b", 6.0),
               ("tail", "b", "q", 2.0)])


# the gh-nets 100-vertex graph: at mesh 0.02 its net has 6,891 points, and
# a δ call on it once died of a MemoryError under a 1 GiB address space
BUDGET_SPEC = EnsembleSpec(seed=1, vertex_range=(100, 100), beta1_range=(15, 15))


def forbid_net_work(monkeypatch):
    """Make laying out a net's points, building the vertex trees of its
    block and the exit kernel fail, in each module that reads them."""
    def fail(*args, **kwargs):
        raise AssertionError("net work done past the budget")

    for name in ("_net_at", "_vd_sym", "_exit_block"):
        monkeypatch.setattr(metric_graph, name, fail)
    monkeypatch.setattr(reeb_smoothing, "_vd_sym", fail)


def memo_keys(G: MetricGraph, builder) -> list:
    """The keys under which G's memo holds results of the memoised
    ``builder``, in the order they were built."""
    return [k[1:] for k in G._memo if k[0] is builder.__wrapped__]


def random_euclidean_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    P = rng.random((n, 3))
    D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    return D


def random_point(G: MetricGraph, rng: np.random.Generator) -> GraphPoint:
    if rng.random() < 0.5:
        return GraphPoint(vertex=G.vertices[int(rng.integers(len(G.vertices)))])
    e = G.edges[int(rng.integers(len(G.edges)))]
    return G.canonical(GraphPoint(edge=e.id, offset=float(rng.uniform(0, e.length))))


# three parallel edges far shorter than any absolute tolerance, as
# (vertices, edges): the shortest-path trees must still hang y on edge b
TINY_PARALLEL = (["x", "y"], [("a", "x", "y", 3e-17), ("b", "x", "y", 1e-17),
                              ("c", "x", "y", 2e-17)])

# graphs outside the float window, as (vertices, edges): every length is a
# positive finite float, but the total length is too large for the lengths
# formed from it to stay finite, or the tolerance is not a normal float
OUTSIDE_FLOAT_WINDOW = {
    "triangle-1e308": (["a", "b", "c"], [("ab", "a", "b", 1e308), ("bc", "b", "c", 1e308),
                                         ("ca", "c", "a", 1e308)]),
    "path-1e308": (["a", "b", "c", "d"], [("ab", "a", "b", 1e308), ("bc", "b", "c", 1e308),
                                          ("cd", "c", "d", 1e308)]),
    "parallel-1e-320": (["a", "b"], [("e1", "a", "b", 1e-320), ("e2", "a", "b", 1e-320)]),
    # a finite total length, but a net point's length * k would overflow
    "triangle-5e307": (["a", "b", "c"], [("ab", "a", "b", 5e307), ("bc", "b", "c", 5e307),
                                         ("ca", "c", "a", 5e307)]),
}


@st.composite
def tie_graphs(draw, max_beta=10):
    """Small connected multigraphs with many equal-length cycles, as
    (vertices, edges) with (id, u, v, length) edges: lengths all 1, or all
    from {0.1, 0.2, 0.3}, or random; a random tree or a complete graph
    K3..K6, plus extra edges (self-loops among them) and equal-length
    parallel twins, up to max_beta independent cycles."""
    length = draw(st.sampled_from([st.just(1.0), st.sampled_from([0.1, 0.2, 0.3]),
                                   st.floats(0.25, 2.0)]))
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        pairs = list(itertools.combinations(range(n), 2))
    else:
        n = draw(st.integers(1, 7))
        pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex),
                           max_size=max_beta - (len(pairs) - n + 1)))
    edges = [(f"e{k}", f"v{u}", f"v{v}", draw(length)) for k, (u, v) in enumerate(pairs)]
    room = max_beta - (len(edges) - n + 1)
    if edges and room:
        twins = draw(st.lists(st.sampled_from(edges), max_size=room))
        edges += [(f"t{k}", u, v, L) for k, (_, u, v, L) in enumerate(twins)]
    return [f"v{k}" for k in range(n)], edges


@st.composite
def trees(draw, max_v=40, scales=(-60, 0, 60)):
    """Trees as (vertices, edges) with (id, u, v, length) edges: decoded
    from a Prüfer sequence, or a path, a star or a caterpillar. Lengths are
    all equal or random, times 2^k for k in ``scales``. Vertex names are
    shuffled, edge ends swapped and edges reordered, so vertex index order
    has nothing to do with the tree's shape."""
    n = draw(st.integers(1, max_v))
    shape = draw(st.sampled_from(["pruefer", "path", "star", "caterpillar"]))
    if shape == "pruefer" and n >= 3:
        code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        degree = [1 + code.count(v) for v in range(n)]
        pairs = []
        for v in code:
            leaf = min(w for w in range(n) if degree[w] == 1)
            pairs.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        pairs.append(tuple(w for w in range(n) if degree[w] == 1))
    elif shape == "star":
        pairs = [(0, k) for k in range(1, n)]
    elif shape == "caterpillar":
        spine = draw(st.integers(1, n))
        pairs = [(k - 1, k) for k in range(1, spine)]
        pairs += [(draw(st.integers(0, spine - 1)), k) for k in range(spine, n)]
    else:
        pairs = [(k - 1, k) for k in range(1, n)]
    scale = 2.0 ** draw(st.sampled_from(scales))
    if draw(st.booleans()):
        lengths = [draw(st.sampled_from([1.0, 0.1, 0.3]))] * len(pairs)
    else:
        lengths = draw(st.lists(st.floats(0.1, 10.0), min_size=len(pairs), max_size=len(pairs)))
    names = draw(st.permutations([f"v{k}" for k in range(n)]))
    edges = [(f"e{k}", names[u], names[v], L * scale) if draw(st.booleans())
             else (f"e{k}", names[v], names[u], L * scale)
             for k, ((u, v), L) in enumerate(zip(pairs, lengths))]
    return names, draw(st.permutations(edges))


@st.composite
def pendant_graphs(draw, max_v=30):
    """``trees()`` plus 1 to 4 chords (self-loops among them) and up to two
    equal-length parallel twins, as (vertices, edges): a 2-core with
    pendant trees hanging on it, so roots sit deep inside pendant trees and
    several pendant trees can hang on one vertex. Chords take the tree's
    length when its lengths are all equal, so ties abound; otherwise they
    are random. Lengths are at unit scale."""
    names, edges = draw(trees(max_v=max_v, scales=(0,)))
    lengths = {L for (_, _, _, L) in edges}
    length = st.just(lengths.pop()) if len(lengths) == 1 else st.floats(0.1, 10.0)
    vertex = st.sampled_from(names)
    chords = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    edges = list(edges) + [(f"c{k}", u, v, draw(length)) for k, (u, v) in enumerate(chords)]
    twins = draw(st.lists(st.sampled_from(edges), max_size=2))
    return names, edges + [(f"t{k}", u, v, L) for k, (_, u, v, L) in enumerate(twins)]

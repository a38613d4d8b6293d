"""Shortest-path trees keyed by vertex name, and the Horton candidates
built by walking each root's tree path back to a vertex already seen.

``sp_tree`` is the library's earlier Dijkstra: dicts keyed by vertex name,
the heap ordered by (distance, insertion counter), each vertex relaxing its
incident edges in construction order, and an improvement counted only when
it exceeds 1e-15 of the graph's length unit. ``horton_candidates`` closes
every edge with the tree of each root, every vertex by default; a vertex's
GF(2) edge mask is its parent's mask plus its tree edge, found by a
memoised walk up the parent chain (``pmask``). ``minimal_cycle_basis`` runs
the greedy selection over those candidates in (weight, mask) order, with
each weight summed over the mask's edges in construction order.
``branch_roots`` peels leaves by name down to the 2-core and lists its
vertices with at least 3 core-edge ends, or its first vertex when there is
none.

The index-based trees of ``metricgraph.metric_graph.MetricGraph._sp_tree``
must give the same distances and parents, and the library's candidates and
sorted cycle-basis lengths must be ``==`` to these over ``branch_roots``.

Run as a script, it checks itself against the exhaustive oracle
``mcb_exhaustive`` and against hand-computed trees and bases, over every
vertex and over the branch roots.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from metricgraph.metric_graph import MetricGraph


def sp_tree(G: MetricGraph, source: str) -> Tuple[Dict[str, float], Dict[str, Tuple[str, str]]]:
    """(dist, parent): each vertex's distance from source, and for each
    vertex but source the (vertex, edge id) it is reached through."""
    slack = 1e-15 * G._unit
    dist: Dict[str, float] = {source: 0.0}
    parent: Dict[str, Tuple[str, str]] = {}
    done = set()
    heap: List[Tuple[float, int, str]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for eid in G.incident(v):
            e = G.edge(eid)
            w = e.v if e.u == v else e.u
            nd = d + e.length
            if w not in dist or nd < dist[w] - slack:
                dist[w] = nd
                parent[w] = (v, eid)
                heapq.heappush(heap, (nd, counter, w))
                counter += 1
    return dist, parent


def branch_roots(G: MetricGraph) -> List[str]:
    """The 2-core's vertices with at least 3 core-edge ends (each parallel
    edge counts, and so do both halves of a loop), in vertex order, or the
    core's first vertex when there is none. Leaves, vertices with one
    unpeeled edge end, are peeled one at a time until none is left; a tree
    keeps one vertex."""
    ends: Dict[str, List[str]] = {v: [] for v in G.vertices}
    for e in G.edges:
        ends[e.u].append(e.v)
        ends[e.v].append(e.u)
    peeled = set()

    def core_ends(v: str) -> int:
        return sum(w not in peeled for w in ends[v])

    leaves = [v for v in G.vertices if core_ends(v) == 1]
    while leaves:
        v = leaves.pop()
        if v not in peeled and core_ends(v) == 1:
            peeled.add(v)
            leaves.extend(w for w in ends[v] if w not in peeled and core_ends(w) == 1)
    core = [v for v in G.vertices if v not in peeled]
    return [v for v in core if core_ends(v) >= 3] or core[:1]


def horton_candidates(G: MetricGraph, roots: Optional[Sequence[str]] = None) -> List[int]:
    """Each edge closed by the tree of each root (every vertex by
    default), as GF(2) edge bitmasks in construction order; tree edges
    close nothing."""
    idx = {e.id: k for k, e in enumerate(G.edges)}
    cands: List[int] = []
    for root in G.vertices if roots is None else roots:
        parent = sp_tree(G, root)[1]
        masks = {root: 0}

        def pmask(v: str) -> int:
            path = []
            while v not in masks:
                path.append(v)
                v = parent[v][0]
            m = masks[v]
            for w in reversed(path):
                m ^= 1 << idx[parent[w][1]]
                masks[w] = m
            return m

        for e in G.edges:
            m = pmask(e.u) ^ pmask(e.v) ^ (1 << idx[e.id])
            if m:
                cands.append(m)
    return cands


def mask_weight(G: MetricGraph, mask: int) -> float:
    """The lengths of the mask's edges, summed in construction order."""
    return sum((e.length for k, e in enumerate(G.edges) if mask >> k & 1), 0.0)


def minimal_cycle_basis(G: MetricGraph, roots: Optional[Sequence[str]] = None) -> List[float]:
    """Sorted lengths of the greedy basis over the Horton candidates of the
    roots (every vertex by default)."""
    beta = G.betti1
    chosen: List[float] = []
    pivots: Dict[int, int] = {}
    for (w, mask) in sorted((mask_weight(G, m), m) for m in set(horton_candidates(G, roots))):
        if len(chosen) == beta:
            break
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                chosen.append(w)
                break
            mask ^= pivots[top]
    return sorted(chosen)


if __name__ == "__main__":
    import mcb_exhaustive

    theta = (["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                          ("e3", "u", "v", 3.0)])
    k4 = (list("abcd"), [("ab", "a", "b", 1.0), ("ac", "a", "c", 1.0), ("ad", "a", "d", 1.0),
                         ("bc", "b", "c", 1.0), ("bd", "b", "d", 1.0), ("cd", "c", "d", 1.0)])
    decorated = (["p", "a", "b", "q"], [("stem", "p", "a", 2.0), ("c1", "a", "b", 6.0),
                                        ("c2", "a", "b", 6.0), ("tail", "b", "q", 2.0)])
    square = (list("wxyz"), [("wx", "w", "x", 1.0), ("xy", "x", "y", 1.0),
                             ("yz", "y", "z", 1.0), ("zw", "z", "w", 1.0),
                             ("wy", "w", "y", 2.0), ("loop", "x", "x", 3.0)])
    for verts, edges in (theta, k4, decorated, square):
        G = MetricGraph(verts, edges)
        got = minimal_cycle_basis(G)
        assert got == mcb_exhaustive.minimum_cycle_basis_lengths(verts, edges), verts
        assert minimal_cycle_basis(G, branch_roots(G)) == got, verts
        print(f"{verts}: basis {got}, roots {branch_roots(G)}")

    # the branch roots of the examples: theta's two ends, every vertex of
    # K4, the decorated cycle's first core vertex (its core is one cycle),
    # and x, whose loop counts twice, with w and y
    assert [branch_roots(MetricGraph(*g)) for g in (theta, k4, decorated, square)] == [
        ["u", "v"], list("abcd"), ["a"], ["w", "x", "y"]]
    # a tie the branch roots break otherwise than every root: the triangle
    # through e1 sums to 0.6000000000000001 in construction order, the one
    # through e3 to 0.6, and only the tree of v0 (degree 2) closes the
    # latter. Both are within 2 (V - 1) 1e-15 units of the exact basis.
    tie = (["v0", "v1", "v2"], [("e0", "v0", "v1", 0.3), ("e1", "v1", "v2", 0.1),
                                ("e2", "v0", "v2", 0.2), ("e3", "v1", "v2", 0.1)])
    G = MetricGraph(*tie)
    exact = mcb_exhaustive.minimum_cycle_basis_lengths(*tie)
    assert branch_roots(G) == ["v1", "v2"]
    assert minimal_cycle_basis(G) == exact == [0.2, 0.6]
    got = minimal_cycle_basis(G, branch_roots(G))
    assert got == [0.2, 0.6000000000000001]
    bound = 2 * (len(G.vertices) - 1) * 1e-15 * G._unit
    assert all(0.0 <= g - x <= bound for g, x in zip(got, exact))
    print(f"tie graph: basis {got} from the branch roots, {exact} exact")

    # theta from u: e1 reaches v first and is the only tree edge, so e2
    # and e3 each close a cycle with it
    G = MetricGraph(*theta)
    assert sp_tree(G, "u") == ({"u": 0.0, "v": 1.0}, {"v": ("u", "e1")})
    assert sorted(horton_candidates(G)) == [0b011, 0b011, 0b101, 0b101]
    assert minimal_cycle_basis(G) == [3.0, 4.0]
    # the decorated 12-cycle from p: c1 comes first in construction order,
    # so it wins the tie and c2 closes the cycle
    G = MetricGraph(*decorated)
    dist, parent = sp_tree(G, "p")
    assert dist == {"p": 0.0, "a": 2.0, "b": 8.0, "q": 10.0}
    assert parent == {"a": ("p", "stem"), "b": ("a", "c1"), "q": ("b", "tail")}
    assert minimal_cycle_basis(G) == [12.0]
    # a tie closer than the slack keeps the first relaxation: y hangs on
    # the shortest of three parallel edges far below any absolute tolerance
    G = MetricGraph(["x", "y"], [("a", "x", "y", 3e-17), ("b", "x", "y", 1e-17),
                                 ("c", "x", "y", 2e-17)])
    assert sp_tree(G, "x")[1] == {"y": ("x", "b")}
    print("expected values: ok")

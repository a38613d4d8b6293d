"""Finite metric graphs with shortest-path geometry.

Vertices are opaque string ids. Edges carry their own ids, so parallel edges
are unambiguous. A self-loop is split at its midpoint on construction; this
changes nothing metrically but keeps both endpoints of every stored edge
distinct, which the sweep algorithms downstream rely on.

Points of the geodesic space are either vertices or interior positions
(edge id, offset from the edge's u endpoint). A point is canonical when no
offset lies within the graph's tolerance of an edge end. Public functions
canonicalise each point argument once and ``epsilon_net`` returns canonical
points; a helper (leading underscore) takes canonical points and snaps only
a point it builds whose offset may lie within tolerance of an edge end.

Tolerances are relative: a float comparison allows REL_TOL of the length
unit of its input, the power of two given by ``length_unit``. A graph's
unit comes from its longest edge, so scaling every length by 2^k scales
every tolerance, and every result, by exactly 2^k. A graph must lie in the
float window: its total length at most the largest float over
max(1e9, 64 E) for E edges, so that every length the library forms from
it stays finite, and its tolerance a normal float.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

REL_TOL = 1e-9


def length_unit(x: float) -> float:
    """The power of two 2^e with 2^e <= |x| < 2^(e + 1), or 1 for x = 0.
    Multiplying by it is exact, so a tolerance of REL_TOL * length_unit(x)
    scales exactly with x."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1) if x else 1.0


def checked_distances(D) -> np.ndarray:
    """D as a float array, if it is square and finite with a zero diagonal,
    and symmetric and nonnegative to REL_TOL of the length unit of its
    largest entry."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(D).all():
        raise ValueError("distance matrix must be finite")
    tol = REL_TOL * length_unit(float(np.abs(D).max(initial=0.0)))
    if np.abs(D - D.T).max(initial=0.0) > tol:
        raise ValueError("distance matrix must be symmetric")
    if D.min(initial=0.0) < -tol:
        raise ValueError("distance matrix must be nonnegative")
    if np.diagonal(D).any():
        raise ValueError("distance matrix must have a zero diagonal")
    return D


def is_index(x) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for a real number, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_positive(name: str, x) -> None:
    """Raise ValueError unless x is a real number > 0 (inf included) and
    not a bool."""
    if not is_real(x) or not x > 0:
        raise ValueError(f"{name} must be > 0, not {x!r}")


def per_graph(build):
    """Memoise ``build(G, *key)`` in ``G._memo[(build, *key)]``: it runs on
    the first call for a (G, key), and every later call shares its result.
    The graph is immutable, so a result never goes stale; no caller may
    mutate one (``_vd_rows`` and ``_vd_sym`` alone fill the rows of the
    vertex table). Unlike ``functools.lru_cache``, the memo does not keep
    a graph alive."""

    @functools.wraps(build)
    def memoised(G, *key):
        memo, k = G._memo, (build, *key)
        if k not in memo:
            memo[k] = build(G, *key)
        return memo[k]

    return memoised


class _Tree(NamedTuple):
    """A shortest-path tree on vertex indices (see ``MetricGraph._sp_tree``)."""

    dist: List[float]   # per vertex, its distance from the root
    parent: List[int]   # per vertex, the vertex it is reached from (-1 at the root)
    via: List[int]      # per vertex, the index of its tree edge (-1 at the root)
    order: List[int]    # every vertex once, root first, each after its parent


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class GraphPoint:
    """A point of the graph: a vertex, or an interior position on an edge.

    Exactly one of ``vertex`` / ``edge`` is set. Offsets are measured from
    the edge's u endpoint. Instances compare exactly (they are dict keys);
    use points_equal() for tolerance-aware comparison of canonical forms.
    """

    vertex: Optional[str] = None
    edge: Optional[str] = None
    offset: float = 0.0

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("a point is either a vertex or an edge position")

    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.vertex is not None:
            return f"GraphPoint({self.vertex!r})"
        return f"GraphPoint({self.edge!r}@{self.offset:.6g})"


@dataclass(frozen=True)
class EdgePath:
    """An ordered walk through edges.

    Each step is (edge id, from-offset, to-offset) in the edge's own
    coordinates; a full traversal runs 0 -> length or length -> 0. Partial
    steps are allowed at the two ends of the path. Consecutive steps join at
    a shared vertex, or at a shared interior coordinate when both steps lie
    on the same edge.

    An empty path is a constant path; ``anchor`` then records where it sits.
    """

    steps: Tuple[Tuple[str, float, float], ...] = ()
    anchor: Optional[GraphPoint] = None


class MetricGraph:
    """Immutable connected multigraph with positive edge lengths."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Tuple[str, str, str, float]]):
        names = list(map(str, vertices))
        vset: Set[str] = set(names)
        if len(vset) < len(names):
            dup = next(v for v, k in collections.Counter(names).items() if k > 1)
            raise ValueError(f"duplicate vertex name: {dup}")
        edef: List[Edge] = []
        ids: Set[str] = set()
        for (eid, u, v, length) in edges:
            eid, u, v = str(eid), str(u), str(v)
            if eid in ids:
                raise ValueError(f"duplicate edge id: {eid}")
            ids.add(eid)
            for w in (u, v):
                if w not in vset:
                    raise ValueError(f"edge {eid}: unknown endpoint {w}")
            if not (is_real(length) and 0 < length < math.inf):
                raise ValueError(f"edge {eid}: length must be > 0, not {length!r}")
            edef.append(Edge(eid, u, v, float(length)))

        # split self-loops at the midpoint so every stored edge has two
        # distinct endpoints
        final: List[Edge] = []
        for e in edef:
            if e.u != e.v:
                final.append(e)
                continue
            mid, a, b = e.id + "|m", e.id + "|a", e.id + "|b"
            for name in (a, b):
                if name in ids:
                    raise ValueError(f"generated edge id {name} already in use")
                ids.add(name)
            if mid in vset:
                raise ValueError(f"generated vertex id {mid} already in use")
            vset.add(mid)
            final.append(Edge(a, e.u, mid, e.length / 2.0))
            final.append(Edge(b, mid, e.v, e.length / 2.0))

        if not vset:
            raise ValueError("graph must have at least one vertex")

        self._vertices: Tuple[str, ...] = tuple(sorted(vset))
        self._vidx: Dict[str, int] = {v: k for k, v in enumerate(self._vertices)}
        self._edges: Dict[str, Edge] = {e.id: e for e in final}
        self._edge_tuple: Tuple[Edge, ...] = tuple(final)
        self._eidx: Dict[str, int] = {e.id: k for k, e in enumerate(final)}
        # the length unit of the longest edge, and the graph's tolerance
        self._unit = length_unit(max((e.length for e in final), default=1.0))
        self._tol = REL_TOL * self._unit
        # every length the library forms must stay finite, and every
        # tolerance comparison must have room below it. The largest factors
        # it applies to the total length: a net point's length * k, with
        # k below the net budget _NET_POINTS, on an edge shorter than 2
        # units; verify's (16 beta + 12) x an upper bound below 3 total
        # lengths, with beta < E; and the exit kernel's sum of two distances
        total = sum(e.length for e in final)
        top = sys.float_info.max / max(1e9, 64.0 * len(final))
        if not (total <= top and self._tol >= sys.float_info.min):
            raise ValueError(f"edge lengths outside the float window: the total length "
                             f"{total!r} must be at most {top:.6g} and the tolerance "
                             f"{self._tol!r} at least {sys.float_info.min!r}")
        # per edge index, its ends' vertex indices and its length
        self._ends = np.array([(self._vidx[e.u], self._vidx[e.v]) for e in final],
                              dtype=np.int64).reshape(-1, 2)
        self._lengths = np.array([e.length for e in final], dtype=np.float64)
        # per vertex index, (neighbour index, length, edge index) of each
        # incident edge, in edge order
        iadj: List[List[Tuple[int, float, int]]] = [[] for _ in self._vertices]
        for k, e in enumerate(final):
            a, b = self._vidx[e.u], self._vidx[e.v]
            iadj[a].append((b, e.length, k))
            iadj[b].append((a, e.length, k))
        self._iadj = iadj
        self._check_connected()
        # everything derived from the graph, keyed by builder; see per_graph
        self._memo: Dict[tuple, object] = {}

    def _check_connected(self):
        seen = [False] * len(self._vertices)
        seen[0] = True
        stack = [0]
        while stack:
            for (w, _, _) in self._iadj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            raise ValueError("graph not connected")

    # -- read access -------------------------------------------------------

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edge_tuple

    def edge(self, eid: str) -> Edge:
        if eid not in self._edges:
            raise ValueError(f"unknown edge: {eid}")
        return self._edges[eid]

    def incident(self, vertex: str) -> Tuple[str, ...]:
        if vertex not in self._vidx:
            raise ValueError(f"unknown vertex: {vertex}")
        return tuple(self._edge_tuple[k].id for (_, _, k) in self._iadj[self._vidx[vertex]])

    @property
    def betti1(self) -> int:
        return len(self._edges) - len(self._vertices) + 1

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self._edges.values())

    # -- points ------------------------------------------------------------

    def canonical(self, pt: GraphPoint) -> GraphPoint:
        """Normalize a point: offsets within the graph's tolerance of an
        endpoint become the nearer endpoint. Validates the reference."""
        if pt.vertex is not None:
            if pt.vertex not in self._vidx:
                raise ValueError(f"unknown vertex: {pt.vertex}")
            return pt if pt.offset == 0.0 else GraphPoint(vertex=pt.vertex)
        e = self.edge(pt.edge)
        t, tol = pt.offset, self._tol
        if type(t) is float and tol < t < e.length - tol:
            return pt  # already canonical
        if isinstance(t, bool):
            raise ValueError(f"offset on edge {e.id} must be a number, not a bool")
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"offset {t} on edge {e.id} is not finite")
        if t < -tol or t > e.length + tol:
            raise ValueError(f"offset {t} outside edge {e.id} of length {e.length}")
        if t <= tol or t >= e.length - tol:
            # an edge shorter than 2 tol has both ends in reach
            return GraphPoint(vertex=e.u if t <= e.length - t else e.v)
        return GraphPoint(edge=e.id, offset=t)

    # -- shortest paths ----------------------------------------------------

    @per_graph
    def _peel(self) -> Tuple[List[Optional[Tuple[int, float, int]]], List[int], List[float]]:
        """The 2-core and the pendant trees, split by peeling leaves (degree 1,
        parallel edges counted), as (up, pendant, dist0). ``up[v]`` is
        (u, length, k) for a pendant vertex v that hangs on u by edge k, and
        None on the core; ``pendant`` lists the pendant vertices outward
        from the core, each after the vertex it hangs on. A tree keeps its
        last vertex as its core. ``dist0`` is a tree's starting distances:
        inf on the core, -inf on the pendant trees, so Dijkstra never
        reaches a pendant vertex (no length improves on -inf)."""
        iadj = self._iadj
        deg = list(map(len, iadj))
        up: List[Optional[Tuple[int, float, int]]] = [None] * len(deg)
        dist0 = [math.inf] * len(deg)
        peeled: List[int] = []
        leaves = [v for v, d in enumerate(deg) if d == 1]
        for v in leaves:  # grows as vertices become leaves
            if deg[v] != 1:  # the last vertex of a tree
                continue
            for (u, length, k) in iadj[v]:
                if up[u] is None:  # its one neighbour not yet peeled
                    break
            up[v] = (u, length, k)
            dist0[v] = -math.inf
            peeled.append(v)
            deg[v] = 0
            deg[u] -= 1
            if deg[u] == 1:
                leaves.append(u)
        peeled.reverse()
        return up, peeled, dist0

    def _branch_roots(self) -> List[int]:
        """The core's branch vertices, those with at least 3 core-edge ends
        as ``_iadj`` lists them (each parallel edge and both halves of a
        loop), or its first vertex when the core is one cycle. The cycle
        candidates and the vertex table read only these roots' trees."""
        up, iadj = self._peel()[0], self._iadj
        core = [v for v in range(len(up)) if up[v] is None]
        return [v for v in core if sum(up[w] is None for (w, _, _) in iadj[v]) >= 3] or core[:1]

    @per_graph
    def _sp_tree(self, root: int) -> _Tree:
        """Shortest-path tree rooted at vertex index ``root``: per vertex
        index its distance, parent and tree edge, and the settle order. Ties go to the first relaxation, in heap order
        (distance, insertion counter), and an improvement counts only when
        it exceeds 1e-15 units (``_unit``), so the tree scales exactly with
        G. Distances, geodesics and the Horton cycle candidates all read
        this one tree; ``_vertex_dists`` reads it by vertex name.

        Dijkstra runs on the core only (see ``_peel``), on the integer
        adjacency list ``_iadj``, each vertex relaxing its edges in
        construction order. A root in a pendant tree first walks up to the
        core, and Dijkstra starts at the vertex it reaches with the distance
        the walk gave it. Every other pendant vertex is then set to its
        parent's distance plus its edge, in one pass outward from the core.
        This is the tree a Dijkstra over the whole graph builds: a pendant
        vertex has one path from the root, so it is set once, from its
        parent (float sums are monotone, so no longer route improves it),
        and its heap entries relax no core vertex. Leaving them out changes
        the counters but not the order of the core's entries, so every
        ``dist``, ``parent`` and ``via`` is ``==`` to the full run's; only
        ``order`` differs, still root first and each vertex after its
        parent: the walk, then the core, then the other pendant vertices."""
        up, pendant, dist0 = self._peel()
        slack = 1e-15 * self._unit
        n = len(self._vertices)
        dist = dist0.copy()
        parent = [-1] * n
        via = [-1] * n
        order: List[int] = []
        v, d = root, 0.0
        while up[v] is not None:
            order.append(v)
            dist[v] = d
            u, length, k = up[v]
            d += length
            parent[u], via[u] = v, k
            v = u
        adj, pop, push = self._iadj, heapq.heappop, heapq.heappush
        dist[v] = d
        heap: List[Tuple[float, int, int]] = [(d, 0, v)]
        counter = 1
        while heap:
            d, _, v = pop(heap)
            # each push lowers dist[v] to the pushed value, and a settled
            # vertex is never improved, so an entry is stale iff d > dist[v]
            if d > dist[v]:
                continue
            order.append(v)
            for (w, length, k) in adj[v]:
                nd = d + length
                # an unreached w has dist inf, and inf - slack is inf
                if nd < dist[w] - slack:
                    dist[w] = nd
                    parent[w] = v
                    via[w] = k
                    push(heap, (nd, counter, w))
                    counter += 1
        unset = -math.inf
        for w in pendant:
            if dist[w] == unset:  # not on the root's walk
                u, length, k = up[w]
                dist[w] = dist[u] + length
                parent[w] = u
                via[w] = k
                order.append(w)
        return _Tree(dist, parent, via, order)

    def _vertex_dists(self, source: str) -> Dict[str, float]:
        """The distances of ``source``'s tree, keyed by vertex name."""
        return dict(zip(self._vertices, self._sp_tree(self._vidx[source]).dist))

    @per_graph
    def _vd_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The V x V vertex-distance table and its mask of filled rows, row
        by row by ``_vd_rows`` or whole by ``_vd_sym``."""
        n = len(self._vertices)
        return np.empty((n, n)), np.zeros(n, dtype=bool)

    def _vd_rows(self, rows: np.ndarray) -> np.ndarray:
        """The V x V vertex-distance table, with row k (the ``_sp_tree``
        distances from vertex k, in vertex order) filled for every k in
        ``rows``. Rows come from ``_sp_tree`` on first use and are kept, so
        only the requested roots' trees are built. A tree's Dijkstra covers
        only the 2-core, and its pendant entries are the sums from the root
        outward, so every row is ``==`` to a Dijkstra over the whole graph.
        The raw rows are not exactly symmetric: two roots' trees can sum
        one path in different orders."""
        vd, filled = self._vd_table()
        for k in rows[~filled[rows]].tolist():
            vd[k] = self._sp_tree(k).dist
            filled[k] = True
        return vd

    def _exits(self, pt: GraphPoint) -> List[Tuple[str, float]]:
        """(vertex, cost to reach it) pairs through which geodesics from pt
        leave its carrier."""
        if pt.vertex is not None:
            return [(pt.vertex, 0.0)]
        e = self.edge(pt.edge)
        return [(e.u, pt.offset), (e.v, e.length - pt.offset)]


def points_equal(G: MetricGraph, a: GraphPoint, b: GraphPoint) -> bool:
    return _same_point(G, G.canonical(a), G.canonical(b))


def _same_point(G: MetricGraph, ca: GraphPoint, cb: GraphPoint) -> bool:
    """Whether two canonical points are one, up to G's tolerance."""
    if ca.vertex is not None or cb.vertex is not None:
        return ca.vertex == cb.vertex
    return ca.edge == cb.edge and abs(ca.offset - cb.offset) <= G._tol


def _best_route(G: MetricGraph, ca: GraphPoint,
                cb: GraphPoint) -> Tuple[float, Optional[str], Optional[str]]:
    """Shortest route between two canonical points, as (length, exit vertex
    of ca, entry vertex of cb); the vertices are None for the direct route
    along a shared edge. Ties go to the first candidate."""
    best: Tuple[float, Optional[str], Optional[str]] = (math.inf, None, None)
    if not ca.is_vertex() and not cb.is_vertex() and ca.edge == cb.edge:
        best = (abs(ca.offset - cb.offset), None, None)
    vidx = G._vidx
    for (va, costa) in G._exits(ca):
        dv = G._sp_tree(vidx[va]).dist
        for (vb, costb) in G._exits(cb):
            cand = costa + dv[vidx[vb]] + costb
            if cand < best[0]:
                best = (cand, va, vb)
    return best


def distance(G: MetricGraph, a: GraphPoint, b: GraphPoint) -> float:
    """Geodesic distance between two points."""
    return _best_route(G, G.canonical(a), G.canonical(b))[0]


def f_values(G: MetricGraph, p: GraphPoint) -> Dict[str, float]:
    """Distance from p to every vertex."""
    cp = G.canonical(p)
    if cp.is_vertex():
        return G._vertex_dists(cp.vertex)
    e = G.edge(cp.edge)
    du = G._sp_tree(G._vidx[e.u]).dist
    dv = G._sp_tree(G._vidx[e.v]).dist
    t = cp.offset
    return {w: min(t + du[k], e.length - t + dv[k]) for k, w in enumerate(G.vertices)}


class _Exits(NamedTuple):
    """Points as the exit kernel reads them. A point leaves its carrier
    through two exits (vertex, cost): the ends of its edge, or its own
    vertex twice at cost 0."""

    v: np.ndarray   # (n, 2) exit vertex indices
    c: np.ndarray   # (n, 2) their costs: (offset, length - offset) on an edge
    on: np.ndarray  # (n,) the index of the point's edge, -1 at a vertex


def _canonical_at(G: MetricGraph, vert: np.ndarray, edge: np.ndarray,
                  off: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``canonical`` of points given as arrays: vertex index ``vert``, or
    where that is -1, offset ``off`` on edge index ``edge`` (a vertex's
    offset is 0). An offset within G's tolerance of an end becomes the
    nearer end; with none, the arrays are returned as they are."""
    i = np.flatnonzero(vert < 0)
    e, t = edge[i], off[i]
    length = G._lengths[e]
    snap = (t <= G._tol) | (t >= length - G._tol)
    if not snap.any():
        return vert, edge, off
    i, e, t, length = i[snap], e[snap], t[snap], length[snap]
    vert, edge, off = vert.copy(), edge.copy(), off.copy()
    vert[i] = np.where(t <= length - t, G._ends[e, 0], G._ends[e, 1])
    edge[i], off[i] = -1, 0.0
    return vert, edge, off


def _exits_at(G: MetricGraph, vert: np.ndarray, edge: np.ndarray, off: np.ndarray) -> _Exits:
    """The exit arrays of canonical points given as in ``_canonical_at``."""
    i = np.flatnonzero(vert < 0)
    v = np.repeat(vert[:, None], 2, axis=1)
    v[i] = G._ends[edge[i]]
    c = np.zeros((len(vert), 2))
    c[i, 0] = off[i]
    c[i, 1] = G._lengths[edge[i]] - off[i]
    return _Exits(v, c, edge)


def _points_at(G: MetricGraph, vert: np.ndarray, edge: np.ndarray,
               off: np.ndarray) -> List[GraphPoint]:
    """The points given as in ``_canonical_at``, as they are. Each is a
    vertex or an edge position by construction, so its fields are set
    without GraphPoint's check, at a quarter of the cost: every point of a
    net and of a quotient correspondence is made here."""
    V, E, new = G._vertices, G._edge_tuple, object.__new__
    pts = []
    for k, j, t in zip(vert.tolist(), edge.tolist(), off.tolist()):
        p = new(GraphPoint)
        fields = p.__dict__
        if k >= 0:
            fields["vertex"], fields["edge"], fields["offset"] = V[k], None, 0.0
        else:
            fields["vertex"], fields["edge"], fields["offset"] = None, E[j].id, t
        pts.append(p)
    return pts


def _exit_arrays(G: MetricGraph, pts: Sequence[GraphPoint]) -> _Exits:
    """The exit arrays of canonical points."""
    vidx, eidx = G._vidx, G._eidx
    vert = np.array([-1 if p.vertex is None else vidx[p.vertex] for p in pts], dtype=np.int64)
    edge = np.array([-1 if p.vertex is not None else eidx[p.edge] for p in pts], dtype=np.int64)
    return _exits_at(G, vert, edge, np.array([p.offset for p in pts], dtype=np.float64))


def _symmetric(vd: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The vertex distances among ``rows`` (ascending) with VD[a, b] read
    from the row of the lower-index root of the two, so exactly symmetric."""
    W = vd[rows[:, None], rows]
    return np.where(rows[:, None] > rows, W.T, W)


@per_graph
def _vd_sym(G: MetricGraph) -> np.ndarray:
    """``_symmetric`` over every vertex, for points that include every
    vertex, as nets do. The whole table is filled by ``_replay_table``,
    which builds only the branch roots' trees (and those of rows it cannot
    certify)."""
    vd, filled = G._vd_table()
    if not filled.all():
        filled[:] = False  # until the replay has rewritten every row
        _replay_table(G, vd)
        filled[:] = True
    rows = np.arange(len(G.vertices))
    return np.where(rows[:, None] > rows, vd.T, vd)  # _symmetric, without its gather


_CERT_BLOCK = 1 << 20  # row x directed-edge entries per certificate block


def _replay_table(G: MetricGraph, vd: np.ndarray) -> None:
    """Fill every row of vd, each ``==`` to ``_sp_tree(root).dist``, from
    the trees of the branch roots (``MetricGraph._branch_roots``) alone. A
    tree is a graph whose core is one vertex with no edges.

    Root r's Dijkstra starts on the core at s with value d: s = r and d =
    0.0 on the core, else s ends r's walk up its pendant tree and d is the
    walk's sum. A root's row keeps its tree's row. For any other r, s lies
    on a chain of degree-2 core vertices between two roots a and b (or is
    a root), and the candidate row R is the elementwise min of the chain
    values summed from d left to right, as Dijkstra sums them, and of a's
    and b's trees replayed from the values reached at a and b: X[a] = that
    value, then X[w] = X[parent(w)] + length(via(w)) level by level of the
    tree, for all rows that read it at once.

    Only the certificate (``_certified``) carries exactness. R with R[s]
    = d is Dijkstra's core row if (1) every core edge (v, w, l) gives nd
    = R[v] + l with nd == R[w] or R[w] < nd - slack (Dijkstra's own
    test, slack 1e-15 units), and (2) each core w != s has such an edge
    with nd == R[w] and R[v] < R[w]. By (1) each offer to w is R[w] or
    more than the slack above it, so dist[w] never falls below R[w],
    never leaves it and never refuses it. By induction on the pops, each
    vertex is popped at its R: when w is popped, take the first unpopped
    vertex z on the chain of (2)'s parents from s to w. Its parent was
    popped at its R and offered R[z], so dist[z] = R[z], and R[z] < R[w]
    <= dist[w] unless z = w; so z = w. The certificate is sufficient, not
    necessary (Dijkstra's row may hold an offer within the slack below a
    value); a row that fails is rebuilt by ``_sp_tree``.

    The pendant columns are ``_sp_tree``'s walk and pendant pass for all
    rows at once, in two sweeps over the rows taken in a DFS preorder of
    the pendant forest after the core, where each pendant vertex v's
    subtree is a run of rows. Each row in subtree(v) reaches v's parent u
    through v, and every other row reaches v through u; the bottom-up
    sweep (which also gives each walk's d) and the top-down sweep add the
    edge uv to the near end's value, as the tree does, so both are ``==``
    to it."""
    up, pendant, _ = G._peel()
    iadj, n = G._iadj, len(G.vertices)
    roots = G._branch_roots()
    branch = set(roots)
    core = [v for v in range(n) if up[v] is None]
    nc = len(core)

    # the rows: the core, then the pendant forest in DFS preorder, so each
    # pendant vertex's subtree is a run of rows; pos[v] is v's row, and
    # each row starts at its own core row or at its pendant tree's
    kids: List[List[int]] = [[] for _ in range(n)]
    for w in pendant:
        kids[up[w][0]].append(w)
    order, stack = core.copy(), [w for v in core for w in kids[v]]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += kids[v]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    spos, size = list(range(n)), [1] * n
    for v in order[nc:]:
        spos[pos[v]] = spos[pos[up[v][0]]]
    for v in reversed(order[nc:]):
        size[pos[up[v][0]]] += size[pos[v]]
    runs = [(i, pos[up[v][0]], i + size[i], up[v][1]) for i, v in enumerate(order[nc:], nc)]
    # the pendant leaves, whose runs are their own rows, are swept at once
    inner = [run for run in runs if size[run[0]] > 1]
    li, lq, ll = ([run[k] for run in runs if size[run[0]] == 1] for k in (0, 1, 3))

    # B[x, i]: the distance from row i's root to row x's vertex, kept in
    # vd's memory until the last step puts it in vertex order. Bottom-up,
    # each row in subtree(v) reaches v's parent u through v: the walks,
    # whose sums at the start are the offsets d
    B = vd
    B.flat[::n + 1] = 0.0  # the diagonal
    B[lq, li] = B[li, li] + ll
    for (i, q, j, length) in reversed(inner):
        B[q, i:j] = B[i, i:j] + length
    starts, every = np.array(spos), np.arange(n)
    offset = B[starts, every].tolist()

    # the chains between roots: per core vertex off the roots, its chain
    # (the vertices c0 .. ck, c0 and ck roots, and the k lengths) and place
    chain_at: Dict[int, Tuple[List[int], List[float], int]] = {}
    used: Set[int] = set()
    for a in roots:
        for (w, length, k) in iadj[a]:
            if up[w] is not None or k in used:
                continue
            verts, lengths = [a], [length]
            used.add(k)
            while w not in branch:
                verts.append(w)
                for (x, length, j) in iadj[w]:
                    if j != k and up[x] is None:
                        break
                lengths.append(length)
                used.add(j)
                w, k = x, j
            verts.append(w)
            for i in range(1, len(verts) - 1):
                chain_at[verts[i]] = (verts, lengths, i)

    # the chain values, and per root a the (row, value reached at a) pairs
    # of the rows that read a's tree
    direct_r, direct_c, direct_d = [], [], []
    reads: Dict[int, Dict[int, float]] = {a: {} for a in roots}
    for r in range(n):
        if order[r] in branch:
            continue
        s, d = core[spos[r]], offset[r]
        if s not in chain_at:  # s is a root
            reads[s][r] = d
            continue
        verts, lengths, i = chain_at[s]
        for step in (-1, 1):
            x, j = d, i
            while True:
                x += lengths[j if step > 0 else j - 1]
                j += step
                if not 0 < j < len(verts) - 1:
                    break
                direct_r.append(r)
                direct_c.append(pos[verts[j]])
                direct_d.append(x)
            a = verts[j]
            reads[a][r] = min(x, reads[a].get(r, math.inf))

    # the candidates: C[r, i] is row r's value at core vertex core[i]
    C = np.full((n, nc), math.inf)
    C[direct_r, direct_c] = direct_d
    for a, rows_of in reads.items():
        if rows_of:
            rows = np.array(list(rows_of))
            X = np.empty((nc, len(rows)))
            X[pos[a]] = list(rows_of.values())
            for w, p, length in _tree_levels(G, a, pos, nc):
                X[w] = X[p] + length
            C[rows] = np.minimum(C[rows], X.T)
    C[every, starts] = offset
    bad = [order[r] for r in _certified(G, C, starts) if order[r] not in branch]
    B[:nc] = C.T
    del C

    # top-down, every row outside subtree(v) reaches v through u; a
    # leaf's row is read by no other pendant vertex, so the leaves go last
    for (i, q, j, length) in inner:
        B[i, :i] = B[q, :i] + length
        B[i, j:] = B[q, j:] + length
    B[li] = B[lq] + np.array(ll)[:, None]
    B[li, li] = 0.0
    at = np.array(pos)
    vd[:] = B[at[:, None], at].T  # the gather copies B first
    for r in roots + bad:
        vd[r] = G._sp_tree(r).dist


def _certified(G: MetricGraph, C: np.ndarray, s: Sequence[int]) -> List[int]:
    """The rows of C that ``_replay_table``'s certificate does not pass,
    where C holds candidate core rows (one column per core vertex, in
    vertex order) that start at core positions s. It is checked for blocks
    of about _CERT_BLOCK rows x directed core edges (v, w, l), sorted by w.
    A core with no edges is one vertex, every row's start: it has nothing
    to check, and no block."""
    up, iadj = G._peel()[0], G._iadj
    core = [v for v in range(len(up)) if up[v] is None]
    cpos = {v: i for i, v in enumerate(core)}
    src, lens, count = [], [], []
    for w in core:
        ends = [(cpos[v], length) for (v, length, _) in iadj[w] if up[v] is None]
        src += [v for v, _ in ends]
        lens += [length for _, length in ends]
        count.append(len(ends))
    src, lens = np.array(src, dtype=np.int64), np.array(lens)
    dst = np.repeat(np.arange(len(core)), count)
    first = np.cumsum(count) - count
    slack = 1e-15 * G._unit
    s = np.asarray(s)
    bad: List[int] = []
    blocks = min(len(C), -(-len(C) * len(src) // _CERT_BLOCK))
    for k in range(blocks):
        b0, b1 = k * len(C) // blocks, (k + 1) * len(C) // blocks
        R = C[b0:b1]
        Rv, Rw = R[:, src], R[:, dst]
        nd = Rv + lens
        eq = nd == Rw
        parent = np.logical_or.reduceat(eq & (Rv < Rw), first, axis=1)
        parent[range(len(R)), s[b0:b1]] = True
        ok = (eq | (Rw < nd - slack)).all(axis=1) & parent.all(axis=1)
        bad += (np.flatnonzero(~ok) + b0).tolist()
    return bad


def _tree_levels(G: MetricGraph, a: int, cpos: List[int], nc: int) -> List[Tuple[np.ndarray, ...]]:
    """Root a's tree on the core below a, level by level: per depth, the
    vertices' and their parents' core positions (``cpos``), and their tree
    edges' lengths as a column. The tree settles the core (``nc``
    vertices) first, each vertex after its parent, so depths appear in
    order."""
    tree = G._sp_tree(a)
    parent, via = tree.parent, tree.via
    depth = [0] * len(parent)
    levels: List[List[int]] = []
    for v in tree.order[1:nc]:
        d = depth[v] = depth[parent[v]] + 1
        if d > len(levels):
            levels.append([])
        levels[d - 1].append(v)
    flat = [v for level in levels for v in level]
    w = np.array([cpos[v] for v in flat])
    p = np.array([cpos[parent[v]] for v in flat])
    length = G._lengths[[via[v] for v in flat]][:, None]
    cuts = np.cumsum([0] + [len(level) for level in levels]).tolist()
    return [(w[i:j], p[i:j], length[i:j]) for i, j in zip(cuts, cuts[1:])]


def _exit_block(W: np.ndarray, a: _Exits, b: _Exits) -> np.ndarray:
    """The exit kernel: D[i, j], the distance from point i of a to point j
    of b, where the exits index the symmetric vertex distances W (see
    ``_symmetric``). P[i, w] = min_k (c_ik + W[exit_ik, w]) over the
    vertices w, and D[i, j] = min_k (P[i, exit_jk] + c_jk). Rounding is
    monotone, so this is the min over the four exit routes summed left to
    right; the routes are summed from both ends, and the two can differ by
    an ulp, so D takes the min of both. D[i, j] depends on points i and j
    alone, so any block of a point list's matrix is ``==`` to that block of
    the whole.
    """
    def routes(x: _Exits, y: _Exits) -> np.ndarray:
        P = np.minimum(x.c[:, :1] + W[x.v[:, 0]], x.c[:, 1:] + W[x.v[:, 1]])
        return np.minimum(P[:, y.v[:, 0]] + y.c[:, 0], P[:, y.v[:, 1]] + y.c[:, 1])

    D = routes(a, b)
    D = np.minimum(D, D.T if b is a else routes(b, a).T)
    # direct along a shared edge can beat every exit route
    np.minimum(D, np.abs(a.c[:, :1] - b.c[:, 0]), out=D,
               where=(a.on[:, None] == b.on) & (a.on >= 0)[:, None])
    return D


def _metric(W: np.ndarray, ex: _Exits) -> np.ndarray:
    """The distance matrix of the points with exit arrays ex into W."""
    D = _exit_block(W, ex, ex)
    np.fill_diagonal(D, 0.0)
    return D


def finite_metric(G: MetricGraph, points: Sequence[GraphPoint]):
    """Pairwise distance matrix of the given points (numpy array), from the
    exit kernel (``_exit_block``). Duplicate points are fine; the result is
    then a pseudometric. Only the exit vertices' trees are built."""
    ex = _exit_arrays(G, [G.canonical(p) for p in points])
    # the exit vertices, ascending, and each exit's index among them
    used = np.zeros(len(G._vidx), dtype=bool)
    used[ex.v] = True
    need = np.flatnonzero(used)
    rank = np.cumsum(used) - 1
    return _metric(_symmetric(G._vd_rows(need), need), _Exits(rank[ex.v], ex.c, ex.on))


def _extended(W: np.ndarray, D: np.ndarray, a: _Exits, b: _Exits) -> np.ndarray:
    """The distance matrix of the points a followed by the points b, given
    D, that of a: only the rows of b are computed, and the matrix is ``==``
    to the whole one."""
    n, N = len(D), len(D) + len(b.on)
    C = _exit_block(W, _Exits(*map(np.concatenate, zip(a, b))), b)
    M = np.empty((N, N))
    M[:n, :n], M[:, n:], M[n:, :n] = D, C, C[:n].T
    np.fill_diagonal(M, 0.0)
    return M


# -- diameter (exact) ------------------------------------------------------

_DIAM_BLOCK = 2048  # edge pairs per vectorised block; bounds the temporaries
_LANDMARKS = 4      # farthest-point rows that bound every vertex pair in diameter


def _max_min_block(funcs, corners):
    """Maximum over a convex polygon of the pointwise min of affine functions
    a*s + b*t + c, for every polygon of a block at once.

    The slopes a, b are floats shared by the block; each c and each corner
    coordinate is an array over the block (c may also be a float). Corners
    are CCW. Candidates: corners, switch-line crossings with the boundary,
    and pairwise switch-line intersections, each kind formed in one
    broadcast over (lines or line pairs) x (sides) x block. Each float
    expression has the same operands in the same order as the loop over one
    polygon in tests/oracles/diameter_pairs.py, so the two agree bit for
    bit; the oracle's skip of a pair of parallel switch lines is a mask.
    """
    n = len(corners[0][0])
    ab = np.array([(a, b) for (a, b, _) in funcs])
    c = np.array([np.broadcast_to(f[2], n) for f in funcs])
    # the switch lines A*s + B*t + C = 0, one per pair of functions
    f1, f2 = np.triu_indices(len(funcs), 1)
    A, B = (ab[f1] - ab[f2]).T
    C = c[f1] - c[f2]
    x0 = np.array([x for (x, _) in corners])
    y0 = np.array([y for (_, y) in corners])
    dx, dy = np.roll(x0, -1, axis=0) - x0, np.roll(y0, -1, axis=0) - y0
    # every line with every side (x0, y0) + lam * (dx, dy)
    A3, B3 = A[:, None, None], B[:, None, None]
    den = A3 * dx + B3 * dy
    lam = -(A3 * x0 + B3 * y0 + C[:, None]) / den
    on_side = (np.abs(den) >= 1e-15) & (lam >= -1e-9) & (lam <= 1 + 1e-9)
    # every pair of lines that cross (slopes are shared, so det is a float)
    h1, h2 = np.triu_indices(len(A), 1)
    det = A[h1] * B[h2] - A[h2] * B[h1]
    cross = np.abs(det) >= 1e-15
    h1, h2, det = h1[cross], h2[cross], det[cross, None]
    X = np.concatenate([x0, (x0 + lam * dx).reshape(-1, n),
                        (-C[h1] * B[h2, None] + C[h2] * B[h1, None]) / det])
    Y = np.concatenate([y0, (y0 + lam * dy).reshape(-1, n),
                        (-A[h1, None] * C[h2] + A[h2, None] * C[h1]) / det])
    ok = np.concatenate([np.ones(x0.shape, dtype=bool), on_side.reshape(-1, n),
                         np.ones((len(det), n), dtype=bool)])

    # polygon membership via half-planes
    slack = -1e-9 * (1 + np.abs(X) + np.abs(Y))
    ok &= (dx[:, None] * (Y - y0[:, None]) - dy[:, None] * (X - x0[:, None]) >= slack).all(axis=0)
    val = (ab[:, :1, None] * X + ab[:, 1:, None] * Y + c[:, None]).min(axis=0)
    return np.where(ok, val, -np.inf).max(axis=0)


@per_graph
def diameter(G: MetricGraph) -> float:
    """Exact diameter of the geodesic space: the max over edge pairs of the
    min of four affine functions, the routes between a point on each edge.
    A pair is evaluated only when its bound reaches the running maximum,
    which is always a value the kernel forms, so the result is ``==`` to
    evaluating every pair. Trees are built only for the landmarks below and
    for the ends of the lower-index edge of each pair that U cannot rule
    out (``routes`` reads those two rows).

    Table bound. For a pair of distinct edges, f1 = s + t + c1 and
    f4 = -s - t + c4 have opposite slopes, as have f2 and f3, so at every
    (s, t) the min of the four routes is at most

        b = min(c1 + c4, c2 + c3) / 2.

    The kernel forms f1 = fl(w + c1) and f4 = fl(-w + c4) with w = fl(s + t),
    and when both are positive their sum is c1 + c4 to a relative 2^-53, so
    their min is at most b (1 + 2^-53) / (1 - 2^-53) < b + 3 ulps of b; the
    margin is 4 ulps of b.

    Landmark bound. _LANDMARKS rows r, taken farthest-point first from
    vertex 0, bound every vertex pair by U[x, y] = min_r row_r[x] + row_r[y],
    and b fed with U for the table entries, b_U, bounds b. Its margin: on
    lengths divided by the unit, with u = 2^-53, a row is a float sum along
    a path each step of which skips improvements of at most 1e-15, so along
    a shortest path of at most V - 1 edges row_x[y] <= d(x, y) (1 + 2V u) +
    V 1e-15, while row_r[x] >= d(r, x) (1 - V u). With d(x, y) <= d(r, x) +
    d(r, y) and the folds of U, the c's and b_U (a few u each), the kernel's
    value on the pair is below b_U (1 + (3V + 8) u) + V 1e-15, up to terms
    in u^2. The margin V 2^-48 b_U + 2V 1e-15 = 32V u b_U + 2V 1e-15 covers
    that with room for its own rounding; a wider margin only keeps more
    pairs. With one landmark r for all four entries, b_U is at most
    (S_r(i) + S_r(j)) / 2, where S_r(e) sums e's length and its ends'
    row_r entries, so an edge whose S_r plus the largest S_r falls short
    for some r is in no surviving pair, and U is formed only among the
    other edges.

    Pairs (e, e). On the triangles s <= t and s >= t, with the direct route
    |s - t| as a fifth function, c1 = 0 and c4 = 2l exactly, so at every
    candidate, inside the triangle or within the kernel's 1e-9 slack
    outside it, min(f1, f4) = min(w, fl(2l - w)) <= l, as fl is monotone
    and l is a float: a pair (e, e) is evaluated only when l reaches the
    running maximum, and that bound needs no margin.

    The running maximum starts at the min of the four routes at the corner
    that joins the two ends of the largest landmark entry, a value the
    kernel forms when it evaluates that pair. Bounds and kernel calls run
    block by block, so memory stays O(_DIAM_BLOCK), and only filled rows of
    the table are read.
    """
    if not G._edge_tuple:
        return 0.0
    # the kernel's tolerances are set for lengths near 1, so it runs on
    # lengths divided by G._unit; the result then scales exactly with G
    unit, n = G._unit, len(G.vertices)
    eu, ev = G._ends.T
    L = G._lengths / unit
    lm, near = [], np.full(n, np.inf)
    for _ in range(_LANDMARKS):
        lm.append(int(near.argmax()))  # vertex 0 first: every entry is inf
        vd = G._vd_rows(np.array(lm[-1:]))
        near = np.minimum(near, vd[lm[-1]])
    R = vd[lm] / unit

    def routes(i, j):
        # d(s on e_i, t on e_j) through each pair of endpoints; reads the
        # rows eu[i] and ev[i], which must be filled
        l1, l2 = L[i], L[j]
        return [
            (1.0, 1.0, vd[eu[i], eu[j]] / unit),
            (1.0, -1.0, vd[eu[i], ev[j]] / unit + l2),
            (-1.0, 1.0, vd[ev[i], eu[j]] / unit + l1),
            (-1.0, -1.0, vd[ev[i], ev[j]] / unit + l1 + l2),
        ]

    def margined(b):
        return b + (b * n * 2.0 ** -48 + 2 * n * 1e-15)

    best = 0.0
    # the corner of a pair (i, j), i < j, at the two ends x, y of the
    # largest landmark entry: the kernel forms this value there
    r, y = divmod(int(R.argmax()), n)
    (i, x), (j, y) = sorted((G._iadj[z][0][2], z) for z in (lm[r], y))
    if i != j:
        G._vd_rows(G._ends[i])
        s = 0.0 if eu[i] == x else L[i]
        t = 0.0 if eu[j] == y else L[j]
        best = max(best, float(min(sa * s + sb * t + c for (sa, sb, c) in routes(i, j))))
    with np.errstate(divide="ignore", invalid="ignore"):
        ee = np.flatnonzero(L >= best)
        G._vd_rows(G._ends[ee].ravel())
        for k0 in range(0, len(ee), _DIAM_BLOCK):
            i = ee[k0:k0 + _DIAM_BLOCK]
            funcs, l1, zero = routes(i, i), L[i], np.zeros(len(i))
            # a pair (e, e): the triangles s <= t and s >= t, with the
            # direct route |s - t| as a fifth function
            lo = _max_min_block(funcs + [(1.0, -1.0, 0.0)],
                                [(zero, zero), (l1, zero), (l1, l1)])
            hi = _max_min_block(funcs + [(-1.0, 1.0, 0.0)],
                                [(zero, zero), (l1, l1), (zero, l1)])
            best = max(best, float(lo.max()), float(hi.max()))
        # distinct pairs: the edges that pass every single-landmark bound,
        # then b_U among them, in bands of rows of about 64 _DIAM_BLOCK pairs
        Ru, Rv = R[:, eu], R[:, ev]
        S = Ru + Rv + L
        reach = margined((S + S.max(axis=1, keepdims=True)) / 2.0) >= best
        cand = np.flatnonzero(reach.all(axis=0))
        band = max(1, 64 * _DIAM_BLOCK // max(len(cand), 1))
        pairs = [np.zeros((0, 2), dtype=np.int64)]
        for k0 in range(0, len(cand), band):
            i, j = cand[k0:k0 + band, None], cand[k0:]
            uu, uv, vu, vv = ((P[:, i] + Q[:, None, j]).min(axis=0)
                              for P in (Ru, Rv) for Q in (Ru, Rv))
            bound = np.minimum(uu + (vv + L[i] + L[j]), (uv + L[j]) + (vu + L[i])) / 2.0
            a, b = np.nonzero((margined(bound) >= best) & (i < j))
            pairs.append(np.column_stack([i[a, 0], j[b]]))
        pi, pj = np.concatenate(pairs).T
        G._vd_rows(G._ends[pi].ravel())
        for k0 in range(0, len(pi), _DIAM_BLOCK):
            i, j = pi[k0:k0 + _DIAM_BLOCK], pj[k0:k0 + _DIAM_BLOCK]
            funcs = routes(i, j)
            c1, c2, c3, c4 = (c for (_, _, c) in funcs)
            bound = np.minimum(c1 + c4, c2 + c3) / 2.0
            keep = bound + 4.0 * np.spacing(bound) >= best
            if keep.any():
                i, j = i[keep], j[keep]
                l1, l2, zero = L[i], L[j], np.zeros(len(i))
                val = _max_min_block([(sa, sb, c[keep]) for (sa, sb, c) in funcs],
                                     [(zero, zero), (l1, zero), (l1, l2), (zero, l2)])
                best = max(best, float(val.max()))
    return best * unit


# -- nets -------------------------------------------------------------------

def default_mesh(diam: float) -> float:
    """The mesh used where none is given, from the graph's diameter: 0.05 x
    the diameter, or 1.0 for a graph with no edges (diameter 0)."""
    return 0.05 * diam if diam > 0 else 1.0


_NET_POINTS = 5000  # the net budget: a δ call holds about a dozen n x n float64 blocks


def _check_points(what: str, n, most: int) -> None:
    """Refuse n points for ``what`` past its cap, before anything is built."""
    if n > most:
        raise ValueError(f"too many points for {what}: {n:g} > {most}; use a coarser mesh")


def _net_at(G: MetricGraph, m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of a net given as in ``_canonical_at``: edge j gets m[j]
    intervals (see ``_net``), so its points lie at length * k / m for
    k = 1 .. m - 1."""
    count = np.maximum(m - 1, 0)
    edge = np.repeat(np.arange(len(m)), count)
    k = np.arange(1, len(edge) + 1) - np.repeat(np.cumsum(count) - count, count)
    V = len(G.vertices)
    return (np.concatenate([np.arange(V), np.full(len(edge), -1)]),
            np.concatenate([np.full(V, -1), edge]),
            np.concatenate([np.zeros(V), G._lengths[edge] * k / m[edge]]))


def epsilon_net(G: MetricGraph, eps: float) -> List[GraphPoint]:
    """Vertices plus equally spaced interior points at spacing <= eps.

    Deterministic: vertices in sorted order, then edges in construction
    order with ascending offsets. Covering radius is at most eps/2 along
    each edge, so at most eps in the graph. At most _NET_POINTS points (see
    ``_net``). The points are canonical: the longest edge gets fewer than
    _NET_POINTS intervals, so eps > 1/_NET_POINTS length units, and each
    interior point lies at least eps/2 inside its edge, far beyond the
    tolerance of 1e-9 units. A net that G's memo holds is read from it;
    any other is built without being filed, so a search over many meshes
    leaves nothing behind.
    """
    check_positive("eps", eps)
    net = G._memo.get((_net.__wrapped__, float(eps)))  # see per_graph
    if net is None:
        net = _net.__wrapped__(G, float(eps))
    return list(net.points)


class _Net(NamedTuple):
    """An epsilon-net with the exit arrays of its points."""

    points: Tuple[GraphPoint, ...]
    exits: _Exits


@per_graph
def _net(G: MetricGraph, mesh: float) -> _Net:
    """``epsilon_net(G, mesh)`` for a checked mesh, built once per (G,
    float(mesh)). Its points are counted, and refused past _NET_POINTS,
    before any is laid out; at a tiny mesh m is inf, not an overflow."""
    with np.errstate(over="ignore"):
        m = np.ceil(G._lengths / mesh - 1e-12)
    _check_points("an epsilon-net", len(G.vertices) + np.maximum(m - 1, 0).sum(), _NET_POINTS)
    at = _net_at(G, m.astype(np.int64))
    return _Net(tuple(_points_at(G, *at)), _exits_at(G, *at))


@per_graph
def _net_metric(G: MetricGraph, mesh: float) -> np.ndarray:
    """The distance matrix of ``_net(G, mesh)``, built once and read-only."""
    net = _net(G, mesh)  # the budget, before any vertex tree
    D = _metric(_vd_sym(G), net.exits)
    D.setflags(write=False)
    return D


# -- edge paths --------------------------------------------------------------

def validate_path(G: MetricGraph, path: EdgePath):
    if not path.steps:
        if path.anchor is None:
            raise ValueError("empty path needs an anchor point")
        G.canonical(path.anchor)
        return
    n = len(path.steps)
    tol = G._tol
    for idx, (eid, a, b) in enumerate(path.steps):
        e = G.edge(eid)
        for c in (a, b):
            if c < -tol or c > e.length + tol:
                raise ValueError(f"step {idx}: coordinate {c} outside edge {eid}")
        # a full traversal is a step whatever its length
        if abs(b - a) <= tol and {a, b} != {0.0, e.length}:
            raise ValueError(f"step {idx}: zero-length step on edge {eid}")
        if 0 < idx < n - 1:
            full = (abs(a) <= tol and abs(b - e.length) <= tol) or \
                   (abs(b) <= tol and abs(a - e.length) <= tol)
            if not full:
                # interior coordinates are allowed mid-path only where two
                # consecutive steps sit on one edge and meet exactly
                prev_ok = path.steps[idx - 1][0] == eid and \
                    abs(path.steps[idx - 1][2] - a) <= tol
                next_ok = path.steps[idx + 1][0] == eid and \
                    abs(path.steps[idx + 1][1] - b) <= tol
                start_v = abs(a) <= tol or abs(a - e.length) <= tol
                end_v = abs(b) <= tol or abs(b - e.length) <= tol
                if not ((start_v or prev_ok) and (end_v or next_ok)):
                    raise ValueError(f"step {idx}: partial traversal inside the path")
    for idx in range(n - 1):
        p_end = _step_point(G, path.steps[idx], "end")
        p_start = _step_point(G, path.steps[idx + 1], "start")
        if not _same_point(G, p_end, p_start):
            raise ValueError(f"steps {idx} and {idx + 1} do not meet")


def _step_point(G: MetricGraph, step: Tuple[str, float, float], which: str) -> GraphPoint:
    eid, a, b = step
    return G.canonical(GraphPoint(edge=eid, offset=a if which == "start" else b))


def path_start(G: MetricGraph, path: EdgePath) -> GraphPoint:
    if not path.steps:
        return G.canonical(path.anchor)
    return _step_point(G, path.steps[0], "start")


def path_end(G: MetricGraph, path: EdgePath) -> GraphPoint:
    if not path.steps:
        return G.canonical(path.anchor)
    return _step_point(G, path.steps[-1], "end")


def path_length(G: MetricGraph, path: EdgePath) -> float:
    return sum(abs(b - a) for (_, a, b) in path.steps)


def path_from_traversals(G: MetricGraph, start_vertex: str, edge_ids: Sequence[str]) -> EdgePath:
    """Build a full-traversal path from a start vertex through named edges."""
    if start_vertex not in G._vidx:
        raise ValueError(f"unknown vertex: {start_vertex}")
    at = start_vertex
    steps: List[Tuple[str, float, float]] = []
    for eid in edge_ids:
        e = G.edge(eid)
        if e.u == at:
            steps.append((eid, 0.0, e.length))
            at = e.v
        elif e.v == at:
            steps.append((eid, e.length, 0.0))
            at = e.u
        else:
            raise ValueError(f"edge {eid} is not incident to {at}")
    if not steps:
        return EdgePath(steps=(), anchor=GraphPoint(vertex=start_vertex))
    return EdgePath(steps=tuple(steps))


# simple paths ---------------------------------------------------------------

def _point_key(G: MetricGraph, c: GraphPoint):
    if c.is_vertex():
        return ("v", c.vertex)
    return ("e", c.edge, round(c.offset / G._tol))


def _occurrences(G: MetricGraph, steps: List[Tuple[str, float, float]], c: GraphPoint) -> List[float]:
    """Arclength positions at which the path passes through c."""
    tol = G._tol
    pos: List[float] = []
    acc = 0.0
    for (eid, a, b) in steps:
        if c.is_vertex():
            e = G.edge(eid)
            for (coord, vtx) in ((0.0, e.u), (e.length, e.v)):
                if vtx == c.vertex and min(a, b) - tol <= coord <= max(a, b) + tol:
                    pos.append(acc + abs(coord - a))
        elif c.edge == eid and min(a, b) - tol <= c.offset <= max(a, b) + tol:
            pos.append(acc + abs(c.offset - a))
        acc += abs(b - a)
    # merge positions that coincide (step junctions)
    pos.sort()
    merged: List[float] = []
    for x in pos:
        if not merged or x - merged[-1] > tol:
            merged.append(x)
    return merged


def _repeat_candidates(G: MetricGraph, steps: List[Tuple[str, float, float]]) -> List[GraphPoint]:
    pts: List[GraphPoint] = []
    seen = set()

    def add(pt: GraphPoint):
        c = G.canonical(pt)
        k = _point_key(G, c)
        if k not in seen:
            seen.add(k)
            pts.append(c)

    for (eid, a, b) in steps:
        add(GraphPoint(edge=eid, offset=a))
        add(GraphPoint(edge=eid, offset=b))
    # same-edge interval overlaps contribute their extreme points
    n = len(steps)
    for i in range(n):
        ei, ai, bi = steps[i]
        lo_i, hi_i = min(ai, bi), max(ai, bi)
        for j in range(i + 1, n):
            ej, aj, bj = steps[j]
            if ej != ei:
                continue
            lo = max(lo_i, min(aj, bj))
            hi = min(hi_i, max(aj, bj))
            if hi - lo >= -G._tol:
                add(GraphPoint(edge=ei, offset=lo))
                add(GraphPoint(edge=ei, offset=hi))
    return pts


def is_simple_path(G: MetricGraph, path: EdgePath) -> bool:
    """Injective, except that start == end (a simple loop) is allowed."""
    validate_path(G, path)
    steps = list(path.steps)
    if not steps:
        return True
    total = sum(abs(b - a) for (_, a, b) in steps)
    for pt in _repeat_candidates(G, steps):
        occ = _occurrences(G, steps, pt)
        if len(occ) >= 2:
            if len(occ) == 2 and occ[0] <= G._tol and occ[-1] >= total - G._tol:
                continue  # simple loop closure
            return False
    return True


# -- monotone subdivision ----------------------------------------------------

@dataclass(frozen=True)
class MonotoneModel:
    """Subdivision of a graph on which d(p, .) is affine with slope +-1
    along every edge.

    Built once per (graph, canonical basepoint) in the graph's memo, so
    every caller shares one instance: it and its dicts must not be mutated.
    """

    graph: MetricGraph
    f: Dict[str, float]
    p_vertex: str
    # host edge id -> ordered segments (host_lo, host_hi, model edge id);
    # the model edge's u end sits at host_lo
    host_segments: Dict[str, Tuple[Tuple[float, float, str], ...]]
    new_vertices: Dict[str, Tuple[str, float]]
    # model edge id -> (host edge id, host_lo of its segment)
    host_of: Dict[str, Tuple[str, float]]


def _build_from_cuts(G: MetricGraph, cuts: Dict[str, List[Tuple[float, str]]]) -> Tuple[MetricGraph, Dict[str, Tuple], Dict[str, Tuple[str, float]], Dict[str, Tuple[str, float]]]:
    verts = list(G.vertices)
    new_vertices: Dict[str, Tuple[str, float]] = {}
    edges: List[Tuple[str, str, str, float]] = []
    host: Dict[str, Tuple] = {}
    host_of: Dict[str, Tuple[str, float]] = {}
    for e in G.edges:
        cl = sorted(cuts.get(e.id, []))
        segs = []
        prev_off, prev_v = 0.0, e.u
        pieces = []
        for (off, vid) in cl:
            if vid in G._vidx or vid in new_vertices:
                raise ValueError(f"generated vertex id {vid} already in use")
            verts.append(vid)
            new_vertices[vid] = (e.id, off)
            pieces.append((prev_off, off, prev_v, vid))
            prev_off, prev_v = off, vid
        pieces.append((prev_off, e.length, prev_v, e.v))
        if len(pieces) == 1:
            edges.append((e.id, e.u, e.v, e.length))
            segs.append((0.0, e.length, e.id))
        else:
            for k, (a, b, uu, vv) in enumerate(pieces):
                mid = f"{e.id}|{k}"
                edges.append((mid, uu, vv, b - a))
                segs.append((a, b, mid))
        host[e.id] = tuple(segs)
        for seg in segs:
            host_of[seg[2]] = (e.id, seg[0])
    return MetricGraph(verts, edges), host, new_vertices, host_of


def _monotone_model(G: MetricGraph, p: GraphPoint) -> MonotoneModel:
    """The monotone subdivision of (G, p), memoised under canonical p."""
    return _build_monotone_model(G, G.canonical(p))


@per_graph
def _build_monotone_model(G: MetricGraph, cp: GraphPoint) -> MonotoneModel:
    cuts: Dict[str, List[Tuple[float, str]]] = {}
    if not cp.is_vertex():
        cuts[cp.edge] = [(cp.offset, f"{cp.edge}|p")]
    G0, _, _, host0 = _build_from_cuts(G, cuts)
    p0 = f"{cp.edge}|p" if not cp.is_vertex() else cp.vertex
    f0 = G0._vertex_dists(p0)

    # split each edge at the interior point farthest from p along it
    tol = G._tol
    for e0 in G0.edges:
        tstar = (e0.length + f0[e0.v] - f0[e0.u]) / 2.0
        if tol < tstar < e0.length - tol:
            heid, a = host0[e0.id]  # back to host coordinates
            counter = len(cuts.setdefault(heid, []))
            cuts[heid].append((a + tstar, f"{heid}|t{counter}"))

    H, host, newv, host_of = _build_from_cuts(G, cuts)
    f = H._vertex_dists(p0)
    # slopes must be +-1 now, up to the 2 tol of a split left out above and
    # the rounding of f
    for e in H.edges:
        if abs(abs(f[e.u] - f[e.v]) - e.length) > 5.0 * tol:
            raise AssertionError(f"edge {e.id} is not monotone after subdivision")
    return MonotoneModel(graph=H, f=f, p_vertex=p0, host_segments=host,
                         new_vertices=newv, host_of=host_of)


def monotone_subdivision(G: MetricGraph, p: GraphPoint) -> Tuple[MetricGraph, Dict[str, Tuple[str, float]]]:
    """Subdivide so that distance-from-p is monotone along every edge.

    Returns the subdivided graph and a map from each new vertex to its
    (host edge, offset) position on G.
    """
    model = _monotone_model(G, p)
    return model.graph, dict(model.new_vertices)


def _to_model_point(model: MonotoneModel, pt: GraphPoint) -> GraphPoint:
    """The model's canonical point at canonical point pt of G; an interior
    point within the model's tolerance of a cut is snapped to it."""
    if pt.vertex is not None:
        return pt
    H = model.graph
    for (a, b, mid) in model.host_segments[pt.edge]:
        if a - H._tol <= pt.offset <= b + H._tol:
            return H.canonical(GraphPoint(edge=mid, offset=pt.offset - a))
    raise ValueError(f"point {pt} not covered by the subdivision")


def _model_f(model: MonotoneModel, mp: GraphPoint) -> float:
    """d(p, .) at a canonical point of the model, interpolated on edges."""
    if mp.is_vertex():
        return model.f[mp.vertex]
    e = model.graph.edge(mp.edge)
    sgn = 1.0 if model.f[e.v] >= model.f[e.u] else -1.0
    return model.f[e.u] + sgn * mp.offset


def _from_model_point(model: MonotoneModel, c: GraphPoint) -> GraphPoint:
    """The point of G at canonical point c of the model."""
    if c.is_vertex():
        if c.vertex in model.new_vertices:
            eid, off = model.new_vertices[c.vertex]
            return GraphPoint(edge=eid, offset=off)
        return c
    heid, lo = model.host_of[c.edge]
    return GraphPoint(edge=heid, offset=lo + c.offset)


class _ModelArrays(NamedTuple):
    """The monotone model of (G, cp) as arrays over its vertex and edge
    indices. Its elements are numbered in sorted order: the edges by id,
    then the vertices in index order (their names sort). The model edges
    of one edge of G are consecutive, in order along it."""

    f: np.ndarray          # per model vertex, its level d(p, .)
    num: np.ndarray        # per model edge, its element number
    edge_of: np.ndarray    # per element number below the edge count, its model edge
    vertex_of: np.ndarray  # per vertex of G, its model vertex
    first: np.ndarray      # per edge of G, its first model edge
    count: np.ndarray      # per edge of G, its number of model edges
    host: np.ndarray       # per model edge, its edge of G
    lo: np.ndarray         # per model edge, where its u end sits on its host
    hi: np.ndarray         # per model edge, where its v end sits on its host
    # per model vertex, the point of G it is: a vertex, or a cut on an edge
    vert: np.ndarray
    cut_edge: np.ndarray
    cut_off: np.ndarray


@per_graph
def _model_arrays(G: MetricGraph, cp: GraphPoint) -> _ModelArrays:
    model = _build_monotone_model(G, cp)
    H = model.graph
    ids = [e.id for e in H.edges]
    edge_of = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    num = np.empty_like(edge_of)
    num[edge_of] = np.arange(len(ids))
    segs = [model.host_segments[e.id] for e in G.edges]
    count = np.array([len(s) for s in segs], dtype=np.int64)
    cuts = [model.new_vertices.get(v, (None, 0.0)) for v in H.vertices]
    return _ModelArrays(
        np.array([model.f[v] for v in H.vertices]), num, edge_of,
        np.array([H._vidx[v] for v in G.vertices], dtype=np.int64),
        np.cumsum(count) - count, count, np.repeat(np.arange(len(segs)), count),
        np.array([a for s in segs for (a, _, _) in s]),
        np.array([b for s in segs for (_, b, _) in s]),
        np.array([G._vidx.get(v, -1) for v in H.vertices], dtype=np.int64),
        np.array([-1 if h is None else G._eidx[h] for (h, _) in cuts], dtype=np.int64),
        np.array([t for (_, t) in cuts]))


@per_graph
def _net_places(G: MetricGraph, cp: GraphPoint, mesh: float) -> Tuple[np.ndarray, np.ndarray]:
    """The number of each mesh-net point's model element and its level: the
    model point of the first model edge of its host that holds it within
    the model's tolerance, snapped to an end within it, and f there."""
    M, H = _model_arrays(G, cp), _build_monotone_model(G, cp).graph
    v, c, on = _net(G, mesh).exits
    i = np.flatnonzero(on >= 0)
    t, first, count = c[i, 0], M.first[on[i]], M.count[on[i]]
    # the model edges of a host are consecutive, so the first that holds t
    # follows those that end more than the tolerance below it
    k = first.copy()
    for j in range(1, int(count.max(initial=1))):
        k += (j < count) & (M.hi[np.minimum(first + j - 1, len(M.hi) - 1)] + H._tol < t)
    hv, he, ho = M.vertex_of[v[:, 0]], np.full(len(on), -1), np.zeros(len(on))
    hv[i], he[i], ho[i] = -1, k, t - M.lo[k]
    hv, he, ho = _canonical_at(H, hv, he, ho)
    j = np.flatnonzero(hv < 0)
    fu, fv = M.f[H._ends[he[j], 0]], M.f[H._ends[he[j], 1]]
    elem, lvl = len(M.num) + hv, M.f[hv]
    elem[j] = M.num[he[j]]
    lvl[j] = fu + np.where(fv >= fu, 1.0, -1.0) * ho[j]
    return elem, lvl


def _path_to_model(model: MonotoneModel, path: EdgePath) -> List[Tuple[str, float, float]]:
    """Transfer a path on the host graph to steps on the model graph. A
    segment the step covers whole is kept whatever its length; of the rest,
    overlaps within the model's tolerance are dropped."""
    tol = model.graph._tol
    out: List[Tuple[str, float, float]] = []
    for (eid, a, b) in path.steps:
        segs = model.host_segments[eid]
        order = segs if a <= b else tuple(reversed(segs))
        lo, hi = min(a, b), max(a, b)
        for (sa, sb, mid) in order:
            ov_lo, ov_hi = max(sa, lo), min(sb, hi)
            if ov_hi - ov_lo <= tol and (ov_lo, ov_hi) != (sa, sb):
                continue
            if a <= b:
                out.append((mid, ov_lo - sa, ov_hi - sa))
            else:
                out.append((mid, ov_hi - sa, ov_lo - sa))
    return out


def monotone_decomposition(G: MetricGraph, p: GraphPoint, path: EdgePath) -> List[EdgePath]:
    """Split a simple path into maximal pieces on which distance-from-p is
    strictly monotone. Piece boundaries can sit at interior points of G's
    edges (the turning points), so pieces may start or end mid-edge. A step
    too short to move distance-from-p in floating point joins its
    neighbouring piece."""
    if not is_simple_path(G, path):
        raise ValueError("path is not simple")
    if not path.steps:
        return []
    model = _monotone_model(G, p)
    msteps = _path_to_model(model, path)
    f, H = model.f, model.graph

    runs: List[List[Tuple[str, float, float]]] = []
    signs: List[int] = []
    for (mid, a, b) in msteps:
        e = H.edge(mid)
        up = f[e.v] - f[e.u]  # +-length
        delta = up * (b - a) / e.length
        sgn = (delta > 0) - (delta < 0)
        if signs and (sgn == 0 or signs[-1] in (0, sgn)):
            runs[-1].append((mid, a, b))
            signs[-1] = signs[-1] or sgn
        else:
            runs.append([(mid, a, b)])
            signs.append(sgn)

    def host_coord(mid: str, off: float) -> float:
        # a piece end within the model's tolerance of a cut is at the cut
        hp = _from_model_point(model, H.canonical(GraphPoint(edge=mid, offset=off)))
        return model.host_of[mid][1] + off if hp.is_vertex() else hp.offset

    segments: List[EdgePath] = []
    for run in runs:
        gsteps: List[Tuple[str, float, float]] = []
        for (mid, a, b) in run:
            ca, cb = host_coord(mid, a), host_coord(mid, b)
            heid = model.host_of[mid][0]
            if gsteps and gsteps[-1][0] == heid and abs(gsteps[-1][2] - ca) <= G._tol:
                gsteps[-1] = (heid, gsteps[-1][1], cb)
            else:
                gsteps.append((heid, ca, cb))
        segments.append(EdgePath(steps=tuple(gsteps)))
    return segments


def f_variation(G: MetricGraph, p: GraphPoint, path: EdgePath) -> float:
    """Total variation of distance-from-p along the path. Because the
    distance function has slope +-1 on each piece of the monotone
    subdivision, this equals the geometric length of the path."""
    validate_path(G, path)
    if not path.steps:
        return 0.0
    model = _monotone_model(G, p)
    msteps = _path_to_model(model, path)
    f, H = model.f, model.graph
    total = 0.0
    for (mid, a, b) in msteps:
        e = H.edge(mid)
        up = f[e.v] - f[e.u]
        total += abs(up * (b - a) / e.length)
    return total


def shortest_path(G: MetricGraph, a: GraphPoint, b: GraphPoint) -> EdgePath:
    """One geodesic from a to b as an edge path."""
    ca, cb = G.canonical(a), G.canonical(b)
    if _same_point(G, ca, cb):
        return EdgePath(steps=(), anchor=ca)

    _, depart, arrive = _best_route(G, ca, cb)
    if depart is None:  # direct along the shared edge
        return EdgePath(steps=((ca.edge, ca.offset, cb.offset),))

    vidx = G._vidx
    root = vidx[depart]
    tree = G._sp_tree(root)
    chain: List[Tuple[str, float, float]] = []
    v = vidx[arrive]
    while v != root:
        pv, e = tree.parent[v], G._edge_tuple[tree.via[v]]
        if vidx[e.u] == pv:
            chain.append((e.id, 0.0, e.length))
        else:
            chain.append((e.id, e.length, 0.0))
        v = pv
    chain.reverse()

    steps: List[Tuple[str, float, float]] = []
    if not ca.is_vertex():
        e = G.edge(ca.edge)
        steps.append((ca.edge, ca.offset, 0.0 if depart == e.u else e.length))
    steps.extend(chain)
    if not cb.is_vertex():
        e = G.edge(cb.edge)
        steps.append((cb.edge, 0.0 if arrive == e.u else e.length, cb.offset))
    # canonical interior points lie more than tol inside their edges, so
    # only a full traversal can be short, and it stays a step
    return EdgePath(steps=tuple(steps))


# -- serialization -----------------------------------------------------------

def graph_to_json_obj(G: MetricGraph) -> dict:
    # emit original self-loops back as loops? the split is part of the
    # graph's identity once constructed, so serialize what we have
    return {
        "vertices": list(G.vertices),
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "length": e.length}
                  for e in G.edges],
    }


def graph_from_json_obj(obj: dict) -> MetricGraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError("graph json needs 'vertices' and 'edges'")
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise ValueError("graph json 'vertices' and 'edges' must be lists")
    for v in obj["vertices"]:
        if not isinstance(v, str):
            raise ValueError(f"vertex name must be a string, not {v!r}")
    edges = []
    for e in obj["edges"]:
        if not isinstance(e, dict):
            raise ValueError(f"edge entry must be an object, not {e!r}")
        for k in ("id", "u", "v", "length"):
            if k not in e:
                raise ValueError(f"edge entry missing '{k}'")
        for k in ("id", "u", "v"):
            if not isinstance(e[k], str):
                raise ValueError(f"edge {k} must be a string, not {e[k]!r}")
        edges.append((e["id"], e["u"], e["v"], e["length"]))
    return MetricGraph(obj["vertices"], edges)


def point_to_json_obj(pt: GraphPoint) -> dict:
    if pt.vertex is not None:
        return {"vertex": pt.vertex}
    return {"edge": pt.edge, "offset": pt.offset}


def point_from_json_obj(obj: dict) -> GraphPoint:
    if not isinstance(obj, dict):
        raise ValueError(f"point json must be an object, not {obj!r}")
    for key in ("vertex", "edge"):
        if key in obj and not isinstance(obj[key], str):
            raise ValueError(f"point {key} must be a string id, not {obj[key]!r}")
    if "vertex" in obj:
        return GraphPoint(vertex=obj["vertex"])
    if "edge" in obj:
        offset = obj.get("offset", 0.0)
        if isinstance(offset, bool):
            raise ValueError("point offset must be a number, not a bool")
        if not isinstance(offset, (int, float)):
            raise ValueError(f"point offset must be a number, not {offset!r}")
        return GraphPoint(edge=obj["edge"], offset=float(offset))
    raise ValueError("point json needs 'vertex' or 'edge'")

"""Degree-1 persistence: Vietoris-Rips barcodes, minimal cycle bases, the
persistence sequence of a graph, and distances between the resulting
invariants.

The persistence sequence of a graph lists the lengths of a minimum-weight
GF(2) cycle basis in non-increasing order, each divided by 3. Entries past
the first Betti number read as zero.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .metric_graph import (REL_TOL, MetricGraph, _check_points, checked_distances, is_index,
                           length_unit, per_graph)

_VR_MAX_POINTS = 300


@dataclass(frozen=True)
class Barcode:
    """Finite multiset of (birth, death) intervals in one degree."""

    degree: int = 1
    bars: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        for (b, d) in self.bars:
            if not (math.isfinite(b) and math.isfinite(d)):
                raise ValueError("bars must be finite intervals")
            if d <= b:
                raise ValueError(f"bar ({b}, {d}) has death <= birth")
        object.__setattr__(self, "bars", tuple(sorted(self.bars)))

    def to_json_obj(self) -> dict:
        return {"degree": self.degree,
                "bars": [{"birth": b, "death": d} for (b, d) in self.bars]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Barcode":
        return Barcode(degree=int(obj.get("degree", 1)),
                       bars=tuple((float(x["birth"]), float(x["death"]))
                                  for x in obj.get("bars", ())))


@dataclass(frozen=True)
class PersistenceSequence:
    """Non-increasing, finite, positive entries; a(n) for n past the end
    is 0. Order is checked to the tolerance of the first entry's unit."""

    entries: Tuple[float, ...] = ()

    def __post_init__(self):
        for x in self.entries:
            if isinstance(x, bool) or not isinstance(x, numbers.Real) \
                    or not math.isfinite(x):
                raise ValueError(f"sequence entries must be finite numbers, not {x!r}")
            if x <= 0:
                raise ValueError("sequence entries must be positive")
        object.__setattr__(self, "entries", tuple(float(x) for x in self.entries))
        tol = REL_TOL * length_unit(self.entries[0]) if self.entries else 0.0
        for i in range(len(self.entries) - 1):
            if self.entries[i] < self.entries[i + 1] - tol:
                raise ValueError("sequence must be non-increasing")

    def a(self, n: int) -> float:
        """1-indexed accessor; zero beyond the stored entries."""
        if not is_index(n):
            raise ValueError(f"index must be an integer, not {n!r}")
        if n < 1:
            raise ValueError("index is 1-based")
        return self.entries[n - 1] if n <= len(self.entries) else 0.0

    def to_json_obj(self) -> dict:
        return {"a": list(self.entries)}

    @staticmethod
    def from_json_obj(obj: dict) -> "PersistenceSequence":
        return PersistenceSequence(entries=tuple(obj["a"]))


def seq_distance(s1: PersistenceSequence, s2: PersistenceSequence) -> float:
    """Sup-distance between two sequences (implicit zero tails)."""
    n = max(len(s1.entries), len(s2.entries))
    return max((abs(s1.a(i) - s2.a(i)) for i in range(1, n + 1)), default=0.0)


# -- Vietoris-Rips H1 --------------------------------------------------------

_NO_COFACET = np.iinfo(np.int64).max
_NO_VALUE = np.iinfo(np.int32).max


def _triangle_key(value, n: int, i, j, k):
    """Filtration key of the triangle {i, j, k} for an edge i < j and a
    third vertex k (broadcast): it orders triangles by (value rank, a, b, c)
    for the sorted vertices a < b < c, in int64."""
    a, c = np.minimum(k, i), np.maximum(k, j)
    return ((np.asarray(value, dtype=np.int64) * n + a) * n + (i + j + k - a - c)) * n + c


def _edge_ranks(D: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct upper-triangle values of D, ascending, and R, where
    R[x, y] is the rank of D[min(x, y), max(x, y)] among them (0 on the
    diagonal). Ranks are below C(300, 2) at the point cap, so R is int32."""
    n = D.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    values, rank = np.unique(D[iu, ju], return_inverse=True)
    R = np.zeros((n, n), dtype=np.int32)
    R[iu, ju] = rank
    R += R.T
    return values, R


def _cofacet_keys(R: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Filtration keys of the triangles {i, j, k}, one row per edge (i, j)
    with i < j and one column per k; the columns k = i and k = j hold
    _NO_COFACET."""
    ii, jj = i[:, None], j[:, None]
    k = np.arange(R.shape[0])
    value = np.maximum(np.maximum(R[i], R[j]), R[i, j][:, None])
    keys = _triangle_key(value, R.shape[0], ii, jj, k)
    keys[(k == ii) | (k == jj)] = _NO_COFACET
    return keys


def _cofacet_pivots(R: np.ndarray, i: np.ndarray, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each edge's earliest cofacet: its third vertex k and its key, the
    least entry of the edge's row of _cofacet_keys. Cofacets of equal value
    sort as (k, i, j) for k < i, (i, k, j) for i < k < j and (i, j, k) for
    k > j, a triple that grows with k, so the earliest is the first k of
    least value, and only its key is formed."""
    rows = np.arange(len(i))
    V = np.maximum(R[i], R[j])
    np.maximum(V, R[i, j][:, None], out=V)
    V[rows, i] = V[rows, j] = _NO_VALUE
    k = V.argmin(axis=1)
    return k, _triangle_key(V[rows, k], R.shape[0], i, j, k)


def vr_h1_barcode(D) -> Barcode:
    """H1 barcode of the Vietoris-Rips filtration of a finite pseudometric.

    Uses the 2-skeleton with closed grading: a simplex is present at scale r
    when its diameter is <= r. All births and deaths are entries of D. Bars
    no longer than REL_TOL of the length unit of D's largest entry are
    discarded; the same tolerance checks symmetry and signs.

    Only the upper triangle of D is read: edge (i, j) with i < j has value
    D[i, j], and edges are ordered by (D[i, j], i, j), triangles by (largest
    edge value, i, j, k). The pairs come from reducing the coboundary matrix
    (Bauer's Ripser scheme), which pairs exactly as reducing the boundary
    matrix does: columns are edges in reverse filtration order, and a
    column's pivot is its earliest cofacet. The n - 1 edges of the H0
    spanning tree (union-find over the edge order) have no pivot and are
    skipped.

    An edge whose earliest cofacet t has it as its latest facet is an
    apparent pair (e, t) and needs no reduction. The earliest cofacet is
    found on int32 value ranks as the first third vertex of least value
    (see ``_cofacet_pivots``), which is the least cofacet key. The other
    columns are reduced implicitly: a column is the set of edges whose
    coboundaries it sums, and its entries are merged lazily from their
    sorted coboundaries on a heap, where equal heads cancel in pairs and
    the least survivor is the pivot. A reduced column is stored as its edge
    set, an apparent one is its own edge. The pivot p is popped off the
    heap, and the column added to clear it enters from above p: its entries
    below p sum to zero, and its p cancels the popped one. These are the
    GF(2) additions of an explicit reduction, in the same order, so every
    pivot, every pair and the barcode are the same.
    """
    D = checked_distances(D)
    n = D.shape[0]
    _check_points("VR persistence", n, _VR_MAX_POINTS)
    tol = REL_TOL * length_unit(float(np.abs(D).max(initial=0.0)))
    if n < 3:
        return Barcode(degree=1, bars=())

    values, R = _edge_ranks(D)
    iu, ju = np.triu_indices(n, k=1)
    birth = D[iu, ju]
    ar = np.arange(n)
    EK = (R.astype(np.int64) * n + np.minimum.outer(ar, ar)) * n + np.maximum.outer(ar, ar)
    ekey = EK[iu, ju]
    order = np.argsort(ekey)

    # clearing: the spanning-tree edges of the edge order
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = np.zeros(len(ekey), dtype=bool)
    joined = 0
    for e, a, b in zip(order.tolist(), iu[order].tolist(), ju[order].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree[e] = True
            joined += 1
            if joined == n - 1:
                break
    cols = order[~tree[order]]

    # apparent pairs, blockwise over the (edges x n) cofacet values
    pivot = np.empty(len(cols), dtype=np.int64)
    apparent = np.empty(len(cols), dtype=bool)
    # 2^16 int32 entries a block: larger fresh blocks cost more in page
    # faults than in arithmetic
    step = max(1, (1 << 16) // n)
    for s in range(0, len(cols), step):
        blk = cols[s:s + step]
        i, j = iu[blk], ju[blk]
        k, pivot[s:s + step] = _cofacet_pivots(R, i, j)
        apparent[s:s + step] = (EK[i, k] < ekey[blk]) & (EK[j, k] < ekey[blk])

    pivot_of: Dict[int, int] = dict(zip(pivot[apparent].tolist(),
                                        cols[apparent].tolist()))
    reduced: Dict[int, Tuple[int, ...]] = {}
    cob: Dict[int, List[int]] = {}

    def merge(heap: list, e: int, after: int) -> None:
        """Put e's coboundary entries with keys above ``after`` on the heap."""
        keys = cob.get(e)
        if keys is None:
            keys = cob[e] = np.sort(_cofacet_keys(R, iu[e:e + 1], ju[e:e + 1])[0])[:-2].tolist()
        at = bisect_right(keys, after)
        if at < len(keys):
            heapq.heappush(heap, (keys[at], e, at))

    def pop(heap: list) -> int:
        """Pop the least entry, putting the next of its coboundary in."""
        key, e, at = heap[0]
        keys = cob[e]
        if at + 1 < len(keys):
            heapq.heapreplace(heap, (keys[at + 1], e, at + 1))
        else:
            heapq.heappop(heap)
        return key

    def pop_pivot(heap: list) -> int:
        """Pop equal entries in pairs, which cancel, up to the least one
        left over, the pivot."""
        while heap:
            key = pop(heap)
            if not heap or heap[0][0] != key:
                return key
            pop(heap)
        # the complete 2-skeleton has no H1 left at the top
        raise AssertionError("VR reduction left unkilled cycles")

    for e in cols[~apparent][::-1].tolist():
        heap: List[Tuple[int, int, int]] = []
        merge(heap, e, -1)
        edges = {e}
        while True:
            p = pop_pivot(heap)
            other = pivot_of.get(p)
            if other is None:
                break
            added = reduced.get(other, (other,))
            for f in added:
                merge(heap, f, p)
            edges.symmetric_difference_update(added)
        pivot_of[p] = e
        reduced[e] = tuple(edges)

    paired = np.fromiter(pivot_of.values(), dtype=np.int64, count=len(pivot_of))
    death = values[np.fromiter(pivot_of, dtype=np.int64, count=len(pivot_of))
                   // n ** 3]
    keep = death - birth[paired] > tol
    return Barcode(degree=1, bars=tuple(zip(birth[paired][keep].tolist(),
                                            death[keep].tolist())))


# -- cycle bases -------------------------------------------------------------

def _mask_weight(lengths: List[float], mask: int) -> float:
    """The lengths of the mask's edges, summed over its set bits in
    ascending index order."""
    total = 0.0
    while mask:
        low = mask & -mask
        total += lengths[low.bit_length() - 1]
        mask ^= low
    return total


def _greedy_basis(G: MetricGraph, candidates: List[int], beta: int) -> List[float]:
    """Pick a minimum-weight independent subset, ties broken by mask, and
    return its weights, ascending."""
    lengths = [e.length for e in G.edges]
    dec = sorted((_mask_weight(lengths, m), m) for m in set(candidates))
    chosen: List[float] = []
    pivots: Dict[int, int] = {}
    for (w, m) in dec:
        cur = m
        while cur:
            low = cur.bit_length() - 1
            if low in pivots:
                cur ^= pivots[low]
            else:
                pivots[low] = cur
                chosen.append(w)
                break
        if len(chosen) == beta:
            break
    return chosen


def _horton_candidates(G: MetricGraph) -> List[int]:
    """Each edge closed by the shortest-path tree of each root, as GF(2)
    edge bitmasks in construction order. The roots are the core's branch
    vertices, or its first vertex when the core is one cycle (see
    ``minimal_cycle_basis`` and ``MetricGraph._kernel``). Pendant edges
    are bridges, so they are in every tree and close nothing: only the
    core's edges are closed, and only the core's vertices get masks. A
    root's tree settles the core alone, each parent before its children,
    so one pass builds every mask, a core vertex's tree path from the
    root: its parent's mask plus its tree edge."""
    kernel = G._kernel()
    bits = [1 << k for k in range(len(G.edges))]
    closable = list(zip(kernel.edges.tolist(), G._ends[kernel.edges].tolist()))
    masks = [0] * len(G.vertices)
    cands: List[int] = []
    for root in kernel.roots:
        tree = G._sp_tree(root)
        parent, via = tree.parent, tree.via
        for v in tree.order[1:]:
            masks[v] = masks[parent[v]] ^ bits[via[v]]
        cands.extend(masks[a] ^ masks[b] ^ bits[k]
                     for (k, (a, b)) in closable if via[a] != k and via[b] != k)
    return cands


def minimal_cycle_basis(G: MetricGraph) -> List[float]:
    """Lengths of a minimum-weight GF(2) cycle basis, ascending. Built once
    per graph; each call returns a new list.

    Horton's theorem (Horton, SIAM J. Comput. 1987), with the roots
    restricted to a feedback vertex set (Kavitha, Liebchen, Mehlhorn,
    Michail, Rizzi, Ueckerdt and Zweig, "Cycle bases in graphs", Comput.
    Sci. Rev. 2009): for a root r and an edge xy, let C(r, xy) be xy plus
    the tree paths from r to x and to y in a shortest-path tree rooted at
    r (shared steps cancel mod 2). A minimum basis consists of simple
    cycles, which run in the 2-core. For β ≥ 2 each one passes through a
    branch vertex, a core vertex with at least 3 core-edge ends: a simple
    cycle through vertices of 2 ends only would be a whole component of the
    core, which is connected and holds β ≥ 2 cycles. For β = 1 the core is
    the one cycle. So each cycle C of a minimum basis passes through a root
    r of ``_horton_candidates``, and whatever the trees' tie-breaking, the
    C(r, e) over the edges e of C sum to C, and each weighs at most w(C),
    since x and y are each reached within their arc of C away from e. The
    cycle space is a matroid, so the greedy selection over the candidates
    in ascending weight finds a minimum basis, and every minimum basis has
    the same sorted weights. The trees skip improvements of at most 1e-15
    of G's length unit (``MetricGraph._sp_tree``), so a tree path is
    longer than a shortest path by at most (V - 1) 1e-15 units, and each
    returned length is within 2 (V - 1) 1e-15 units of the exact one. The
    unit scales with G, so the result scales exactly. Each candidate is
    weighed over its edges in index order.
    """
    return list(_cycle_lengths(G))


@per_graph
def _cycle_lengths(G: MetricGraph) -> Tuple[float, ...]:
    beta = G.betti1
    weights = _greedy_basis(G, _horton_candidates(G), beta) if beta else []
    if len(weights) != beta:
        raise AssertionError("cycle basis selection is incomplete")
    return tuple(weights)


@per_graph
def persistence_sequence(G: MetricGraph) -> PersistenceSequence:
    """Cycle-basis lengths, non-increasing, each divided by 3. Built once
    per graph."""
    lens = minimal_cycle_basis(G)
    return PersistenceSequence(entries=tuple(x / 3.0 for x in reversed(lens)))


# -- bottleneck distance -----------------------------------------------------

def _linf(b1: Tuple[float, float], b2: Tuple[float, float]) -> float:
    return max(abs(b1[0] - b2[0]), abs(b1[1] - b2[1]))


def _feasible(bars1, bars2, t: float) -> bool:
    """Perfect matching test: every bar matched to a bar of the other
    diagram at L-inf cost <= t, or to the diagonal at half its length."""
    n, m = len(bars1), len(bars2)
    size = n + m
    adj: List[List[int]] = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < n and j < m:
                ok = _linf(bars1[i], bars2[j]) <= t
            elif i < n:
                ok = (bars1[i][1] - bars1[i][0]) / 2.0 <= t
            elif j < m:
                ok = (bars2[j][1] - bars2[j][0]) / 2.0 <= t
            else:
                ok = True
            if ok:
                row.append(j)
        adj.append(row)

    match_r: List[Optional[int]] = [None] * size

    def augment(i: int, seen: List[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_r[j] is None or augment(match_r[j], seen):
                    match_r[j] = i
                    return True
        return False

    count = 0
    for i in range(size):
        if augment(i, [False] * size):
            count += 1
    return count == size


def bottleneck_distance(b1: Barcode, b2: Barcode) -> float:
    """Exact bottleneck distance between two finite barcodes.

    Binary search over candidate thresholds: all pairwise endpoint gaps and
    all half-lengths. The optimum is always one of these. Costs are compared
    to the tolerance of the length unit of the largest endpoint.
    """
    bars1, bars2 = list(b1.bars), list(b2.bars)
    tol = REL_TOL * length_unit(max((abs(x) for bar in bars1 + bars2 for x in bar),
                                    default=0.0))
    cands = {0.0}
    for bar in bars1:
        cands.add((bar[1] - bar[0]) / 2.0)
    for bar in bars2:
        cands.add((bar[1] - bar[0]) / 2.0)
    for x in bars1:
        for y in bars2:
            cands.add(_linf(x, y))
    ordered = sorted(cands)
    lo, hi = 0, len(ordered) - 1
    if _feasible(bars1, bars2, ordered[0] + tol):
        return ordered[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(bars1, bars2, ordered[mid] + tol):
            hi = mid
        else:
            lo = mid
    return ordered[hi]

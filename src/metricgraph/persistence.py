"""Degree-1 persistence: Vietoris-Rips barcodes, minimal cycle bases, the
persistence sequence of a graph, and distances between the resulting
invariants.

The persistence sequence of a graph lists the lengths of a minimum-weight
GF(2) cycle basis in non-increasing order, each divided by 3. Entries past
the first Betti number read as zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metric_graph import TOL, MetricGraph

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
    """Non-increasing positive entries; a(n) for n past the end is 0."""

    entries: Tuple[float, ...] = ()

    def __post_init__(self):
        for x in self.entries:
            if x <= 0:
                raise ValueError("sequence entries must be positive")
        for i in range(len(self.entries) - 1):
            if self.entries[i] < self.entries[i + 1] - TOL:
                raise ValueError("sequence must be non-increasing")

    def a(self, n: int) -> float:
        """1-indexed accessor; zero beyond the stored entries."""
        if n < 1:
            raise ValueError("index is 1-based")
        return self.entries[n - 1] if n <= len(self.entries) else 0.0

    def to_json_obj(self) -> dict:
        return {"a": list(self.entries)}

    @staticmethod
    def from_json_obj(obj: dict) -> "PersistenceSequence":
        return PersistenceSequence(entries=tuple(float(x) for x in obj["a"]))


def seq_distance(s1: PersistenceSequence, s2: PersistenceSequence) -> float:
    """Sup-distance between two sequences (implicit zero tails)."""
    n = max(len(s1.entries), len(s2.entries))
    return max((abs(s1.a(i) - s2.a(i)) for i in range(1, n + 1)), default=0.0)


# -- Vietoris-Rips H1 --------------------------------------------------------

def vr_h1_barcode(D) -> Barcode:
    """H1 barcode of the Vietoris-Rips filtration of a finite pseudometric.

    Uses the 2-skeleton with closed grading: a simplex is present at scale r
    when its diameter is <= r. All births and deaths are entries of D. Bars
    shorter than 1e-9 are discarded.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    n = D.shape[0]
    if n > _VR_MAX_POINTS:
        raise ValueError(f"too many points for VR persistence: {n} > {_VR_MAX_POINTS}")
    if n and np.max(np.abs(D - D.T)) > TOL:
        raise ValueError("distance matrix must be symmetric")
    if n and np.min(D) < -TOL:
        raise ValueError("distance matrix must be nonnegative")
    if n < 3:
        return Barcode(degree=1, bars=())

    edges = sorted(((D[i, j], i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda t: (t[0], t[1], t[2]))
    eidx = {(i, j): k for k, (_, i, j) in enumerate(edges)}

    tris = sorted(((max(D[i, j], D[i, k], D[j, k]), i, j, k)
                   for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)),
                  key=lambda t: (t[0], t[1], t[2], t[3]))

    pivots: Dict[int, int] = {}
    bars: List[Tuple[float, float]] = []
    paired = 0
    for (val, i, j, k) in tris:
        col = (1 << eidx[(i, j)]) | (1 << eidx[(i, k)]) | (1 << eidx[(j, k)])
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                paired += 1
                birth = edges[low][0]
                if val - birth > TOL:
                    bars.append((birth, val))
                break
            col ^= other

    # the complete 2-skeleton has no H1 left at the top of the filtration
    if paired != len(edges) - (n - 1):
        raise AssertionError("VR reduction left unkilled cycles")
    return Barcode(degree=1, bars=tuple(bars))


# -- cycle bases -------------------------------------------------------------

def _edge_index(G: MetricGraph) -> Dict[str, int]:
    return {e.id: k for k, e in enumerate(G.edges)}


def _fundamental_masks(G: MetricGraph) -> List[int]:
    """GF(2) fundamental cycles of an arbitrary spanning tree, as edge
    bitmasks in construction order."""
    idx = _edge_index(G)
    parent: Dict[str, Optional[Tuple[str, str]]] = {G.vertices[0]: None}
    order = [G.vertices[0]]
    tree: set = set()
    stack = [G.vertices[0]]
    while stack:
        v = stack.pop()
        for eid in G.incident(v):
            e = G.edge(eid)
            w = e.v if e.u == v else e.u
            if w not in parent:
                parent[w] = (v, eid)
                tree.add(eid)
                stack.append(w)

    def path_mask(v: str) -> int:
        m = 0
        while parent[v] is not None:
            pv, pe = parent[v]
            m ^= 1 << idx[pe]
            v = pv
        return m

    masks: List[int] = []
    for e in G.edges:
        if e.id in tree:
            continue
        masks.append(path_mask(e.u) ^ path_mask(e.v) ^ (1 << idx[e.id]))
    return masks


def _mask_weight(G: MetricGraph, mask: int) -> float:
    es = G.edges
    total, k = 0.0, 0
    while mask:
        if mask & 1:
            total += es[k].length
        mask >>= 1
        k += 1
    return total


def _mask_ids(G: MetricGraph, mask: int) -> Tuple[str, ...]:
    es = G.edges
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(es[k].id)
        mask >>= 1
        k += 1
    return tuple(sorted(out))


def _greedy_basis(G: MetricGraph, candidates: List[int], beta: int) -> List[int]:
    """Pick a minimum-weight independent subset, ties broken by the sorted
    edge-id tuple of the cycle."""
    dec = sorted(((round(_mask_weight(G, m) / TOL) * TOL, _mask_ids(G, m), m)
                  for m in set(candidates)),
                 key=lambda t: (t[0], t[1]))
    basis: List[int] = []
    pivots: Dict[int, int] = {}
    for (_, _, m) in dec:
        cur = m
        while cur:
            low = cur.bit_length() - 1
            if low in pivots:
                cur ^= pivots[low]
            else:
                pivots[low] = cur
                basis.append(m)
                break
        if len(basis) == beta:
            break
    return basis


def _horton_candidates(G: MetricGraph) -> List[int]:
    idx = _edge_index(G)
    cands: List[int] = []
    import heapq
    for root in G.vertices:
        # Dijkstra with deterministic parents
        dist: Dict[str, float] = {root: 0.0}
        parent: Dict[str, Optional[Tuple[str, str]]] = {root: None}
        heap: List[Tuple[float, str, str, str]] = [(0.0, root, "", "")]
        done: set = set()
        while heap:
            d, v, pv, pe = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            if pv:
                parent[v] = (pv, pe)
            for eid in G.incident(v):
                e = G.edge(eid)
                w = e.v if e.u == v else e.u
                nd = d + e.length
                if w not in done and (w not in dist or nd < dist[w] - 1e-15):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w, v, eid))

        def pmask(v: str) -> int:
            m = 0
            while parent.get(v) is not None:
                pv, pe = parent[v]
                m ^= 1 << idx[pe]
                v = pv
            return m

        for e in G.edges:
            m = pmask(e.u) ^ pmask(e.v) ^ (1 << idx[e.id])
            if m:
                cands.append(m)
    return cands


def minimal_cycle_basis(G: MetricGraph) -> List[float]:
    """Lengths of a minimum-weight GF(2) cycle basis, ascending.

    Candidate cycles come from per-root shortest-path trees, with a greedy
    independent selection. For small cycle spaces (beta1 <= 12) the full
    cycle space is enumerated as a cross-check and wins on any discrepancy,
    which makes the result exact regardless of shortest-path ties.
    """
    beta = G.betti1
    if beta == 0:
        return []
    basis = _greedy_basis(G, _horton_candidates(G), beta)
    if beta <= 12:
        fund = _fundamental_masks(G)
        full = []
        for bits in range(1, 1 << beta):
            m = 0
            for k in range(beta):
                if bits >> k & 1:
                    m ^= fund[k]
            full.append(m)
        exact = _greedy_basis(G, full, beta)
        wa = sorted(_mask_weight(G, m) for m in basis)
        wb = sorted(_mask_weight(G, m) for m in exact)
        if len(basis) != beta or any(abs(x - y) > TOL for x, y in zip(wa, wb)):
            basis = exact
    if len(basis) != beta:
        raise AssertionError("cycle basis selection is incomplete")
    return sorted(_mask_weight(G, m) for m in basis)


def persistence_sequence(G: MetricGraph) -> PersistenceSequence:
    """Cycle-basis lengths, non-increasing, each divided by 3."""
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
                ok = _linf(bars1[i], bars2[j]) <= t + 1e-12
            elif i < n:
                ok = (bars1[i][1] - bars1[i][0]) / 2.0 <= t + 1e-12
            elif j < m:
                ok = (bars2[j][1] - bars2[j][0]) / 2.0 <= t + 1e-12
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
    all half-lengths. The optimum is always one of these.
    """
    for bc in (b1, b2):
        for (b, d) in bc.bars:
            if not (math.isfinite(b) and math.isfinite(d)):
                raise ValueError("bottleneck distance needs finite bars")
    bars1, bars2 = list(b1.bars), list(b2.bars)
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
    if _feasible(bars1, bars2, ordered[0]):
        return ordered[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(bars1, bars2, ordered[mid]):
            hi = mid
        else:
            lo = mid
    return ordered[hi]

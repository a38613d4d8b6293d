"""Two-sided Gromov-Hausdorff estimates.

Lower bounds come from stable invariants (diameter, persistence sequence,
hyperbolicity, net barcodes); upper bounds from explicit correspondences.
Every reported interval is checked for consistency, and every certificate
names the invariant that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    diameter,
    epsilon_net,
    finite_metric,
)

_MAX_EXACT = 7
_MAX_HYP_NET = 400


@dataclass(frozen=True)
class Correspondence:
    """A relation between finite subsets of two metric spaces.

    ``pairs`` holds index pairs into ``left`` and ``right``; every left and
    every right index must appear at least once. DX and DY are the distance
    matrices of the two point lists.
    """

    left: Tuple[GraphPoint, ...]
    right: Tuple[GraphPoint, ...]
    DX: np.ndarray
    DY: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n, m = len(self.left), len(self.right)
        if self.DX.shape != (n, n) or self.DY.shape != (m, m):
            raise ValueError("distance matrices do not match the point lists")
        if not self.pairs:
            raise ValueError("correspondence has no pairs")
        seen_l, seen_r = set(), set()
        for (a, b) in self.pairs:
            if not (0 <= a < n and 0 <= b < m):
                raise ValueError(f"pair ({a}, {b}) is out of range")
            seen_l.add(a)
            seen_r.add(b)
        if len(seen_l) != n or len(seen_r) != m:
            raise ValueError("correspondence must cover both point lists")

    @property
    def distortion(self) -> float:
        """Max |d_X(x,x') - d_Y(y,y')| over all pairs of related pairs."""
        P = np.asarray(self.pairs, dtype=np.int64)
        px, py = P[:, 0], P[:, 1]
        A = np.asarray(self.DX, dtype=np.float64)[np.ix_(px, px)]
        B = np.asarray(self.DY, dtype=np.float64)[np.ix_(py, py)]
        return float(np.abs(A - B).max())

    def to_json_obj(self) -> dict:
        from .metric_graph import point_to_json_obj
        return {
            "left": [point_to_json_obj(p) for p in self.left],
            "right": [point_to_json_obj(p) for p in self.right],
            "pairs": [[a, b] for (a, b) in self.pairs],
            "distortion": self.distortion,
        }


def r_extension(corr: Correspondence, r: float) -> Correspondence:
    """Thicken a correspondence by r: relate x to y whenever some already
    related pair (x0, y0) has d(x, x0) + d(y, y0) <= r.

    The result lives on the same point lists, contains the original pairs
    (take x0 = x, y0 = y), and its distortion exceeds the original by at
    most 2r. With r = 0 it is the original relation; once r reaches the sum
    of the diameters every pair is related.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    pa = np.asarray([a for (a, _) in corr.pairs], dtype=np.int64)
    pb = np.asarray([b for (_, b) in corr.pairs], dtype=np.int64)
    # cost[i, j] = min over related (a, b) of DX[i, a] + DY[j, b]
    cost = (corr.DX[:, pa][:, None, :] + corr.DY[:, pb][None, :, :]).min(axis=2)
    keep = np.argwhere(cost <= r + 1e-12)
    pairs = tuple(sorted((int(i), int(j)) for (i, j) in keep))
    out = Correspondence(left=corr.left, right=corr.right,
                         DX=corr.DX, DY=corr.DY, pairs=pairs)
    if out.distortion > corr.distortion + 2.0 * r + 1e-9:
        raise AssertionError("extension distortion exceeded dis + 2r")
    return out


def brute_force_dgh(DX, DY, pointed: Optional[Tuple[int, int]] = None,
                    witness: bool = False):
    """Exact Gromov-Hausdorff distance between two finite metrics.

    Views a correspondence as an assignment of a nonempty subset of right
    points to each left point. The optimal distortion is one of the finitely
    many values |DX[i,j] - DY[a,b]|, so the search binary-searches that value
    and answers feasibility by a depth-first assignment with compatibility
    and coverage pruning. With ``pointed`` the pair (i0, j0) is forced into
    the correspondence. Capped at 7 points per side.
    """
    DX = np.asarray(DX, dtype=np.float64)
    DY = np.asarray(DY, dtype=np.float64)
    n, m = DX.shape[0], DY.shape[0]
    if n > _MAX_EXACT or m > _MAX_EXACT:
        raise ValueError(f"too many points for exact search (max {_MAX_EXACT})")
    if n == 0 or m == 0:
        raise ValueError("empty metric space")

    gaps = np.unique(np.abs(DX.reshape(n, n, 1, 1) - DY.reshape(1, 1, m, m)))
    full = (1 << m) - 1
    members = [tuple(j for j in range(m) if s >> j & 1) for s in range(full + 1)]

    def feasible(d: float):
        # cliq[a] = rights within d of a in Y (subsets assigned to one left
        # point must have Y-diameter <= d because DX[i,i] = 0)
        cliq = [0] * m
        for a in range(m):
            s = 0
            for b in range(m):
                if DY[a, b] <= d:
                    s |= 1 << b
            cliq[a] = s
        # ok[i][j][a] = rights b with |DX[i,j] - DY[a,b]| <= d
        ok = [[[0] * m for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                dij = DX[i, j]
                for a in range(m):
                    s = 0
                    for b in range(m):
                        if abs(dij - DY[a, b]) <= d:
                            s |= 1 << b
                    ok[i][j][a] = s
        assign = [0] * n

        def dfs(i: int, covered: int) -> bool:
            if i == n:
                return covered == full
            # rights still allowed for each later left, given the assignment
            futures = []
            for i2 in range(i, n):
                avail = full
                for j in range(i):
                    sj = assign[j]
                    mask = 0
                    row = ok[i2][j]
                    for a in range(m):
                        if avail >> a & 1:
                            good = True
                            for b in members[sj]:
                                if not (row[a] >> b & 1):
                                    good = False
                                    break
                            if good:
                                mask |= 1 << a
                    avail = mask
                if not avail and i2 == i:
                    return False
                futures.append(avail)
            # every uncovered right must fit somewhere in the future
            rest = 0
            for s in futures:
                rest |= s
            if (full ^ covered) & ~rest:
                return False
            avail = futures[0]
            if pointed is not None and i == pointed[0]:
                if not (avail >> pointed[1] & 1):
                    return False
            cand = [s for s in range(1, full + 1)
                    if (s & ~avail) == 0
                    and all((s & ~cliq[a]) == 0 for a in members[s])]
            if pointed is not None and i == pointed[0]:
                cand = [s for s in cand if s >> pointed[1] & 1]
            cand.sort(key=lambda s: -bin(s).count("1"))
            for s in cand:
                assign[i] = s
                if dfs(i + 1, covered | s):
                    return True
            assign[i] = 0
            return False

        if dfs(0, 0):
            return list(assign)
        return None

    lo, hi = 0, len(gaps) - 1
    if feasible(float(gaps[lo])) is not None:
        hi = lo
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(gaps[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    best = float(gaps[hi])
    solution = feasible(best)
    if solution is None:
        raise AssertionError("search found no covering correspondence")
    value = best / 2.0
    if not witness:
        return value
    pairs = tuple(sorted((i, j) for i in range(n) for j in members[solution[i]]))
    return value, pairs


def hyperbolicity(D) -> float:
    """Four-point hyperbolicity constant of a finite metric.

    Max over quadruples of (largest pair-sum - second largest)/2, computed
    over all unordered pairs of point-pairs: the split of a quadruple with
    the largest sum is the only one with a positive gap, and quadruples with
    repeated points contribute nothing positive.
    """
    D = np.ascontiguousarray(D, dtype=np.float64)
    n = D.shape[0]
    if n < 4:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    s = D[iu, ju]
    m = len(iu)
    best = 0.0
    for a in range(m - 1):
        i, j = int(iu[a]), int(ju[a])
        kk, ll = iu[a + 1:], ju[a + 1:]
        sums = s[a] + s[a + 1:]
        c1 = D[i, kk] + D[j, ll]
        c2 = D[i, ll] + D[j, kk]
        gap = sums - np.maximum(c1, c2)
        g = float(gap.max(initial=0.0))
        if g > best:
            best = g
    return best / 2.0


def hyp_graph(G: MetricGraph, mesh: Optional[float] = None) -> Tuple[float, float]:
    """Hyperbolicity of a mesh-net of G, with its approximation error 4*mesh."""
    diam = diameter(G)
    if diam <= 0:
        return 0.0, 0.0
    if mesh is None:
        mesh = 0.05 * diam
    net = epsilon_net(G, mesh)
    if len(net) > _MAX_HYP_NET:
        raise ValueError(
            f"hyperbolicity net has {len(net)} points; use a coarser mesh")
    D = finite_metric(G, net)
    return hyperbolicity(D), 4.0 * mesh


@dataclass(frozen=True)
class BoundReport:
    """A certified interval for a quantity, with the candidate bounds that
    produced it."""

    quantity: str
    lower: float
    upper: float
    certificates: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise AssertionError(
                f"inconsistent bounds for {self.quantity}: "
                f"{self.lower} > {self.upper}")

    def to_json_obj(self) -> dict:
        return {
            "quantity": self.quantity,
            "lower": float(self.lower),
            "upper": float(self.upper),
            "certificates": [[name, float(value)]
                             for (name, value) in self.certificates],
        }


def _barcode_net(G: MetricGraph, mesh: float):
    from .persistence import vr_h1_barcode
    diam = diameter(G)
    eps_b = max(mesh, diam / 10.0) if diam > 0 else mesh
    net = epsilon_net(G, eps_b)
    while len(net) > 80:
        eps_b *= 2.0
        net = epsilon_net(G, eps_b)
    D = finite_metric(G, net)
    return vr_h1_barcode(D), eps_b


def _dgh_lower_certificates(G: MetricGraph, H: MetricGraph,
                            mesh: Optional[float] = None) -> List[Tuple[str, float]]:
    from .persistence import bottleneck_distance, persistence_sequence, seq_distance
    if mesh is not None and not mesh > 0:
        raise ValueError("mesh must be > 0")
    certs: List[Tuple[str, float]] = []
    dG, dH = diameter(G), diameter(H)
    certs.append(("diameter gap / 2", abs(dG - dH) / 2.0))

    sG = persistence_sequence(G)
    sH = persistence_sequence(H)
    certs.append(("persistence sequence gap / 4", seq_distance(sG, sH) / 4.0))

    meshG = mesh if mesh is not None else 0.05 * dG
    meshH = mesh if mesh is not None else 0.05 * dH
    if dG > 0 and dH > 0:
        hG, eG = hyp_graph(G, max(meshG, dG / 12.0))
        hH, eH = hyp_graph(H, max(meshH, dH / 12.0))
        certs.append(("hyperbolicity gap / 4",
                      max(0.0, abs(hG - hH) / 4.0 - (eG + eH) / 4.0)))
        bG, ebG = _barcode_net(G, meshG)
        bH, ebH = _barcode_net(H, meshH)
        certs.append(("net barcode bottleneck / 2",
                      max(0.0, bottleneck_distance(bG, bH) / 2.0 - ebG - ebH)))
    return certs


def dgh_lower(G: MetricGraph, H: MetricGraph, mesh: Optional[float] = None) -> float:
    """Best available lower bound on the Gromov-Hausdorff distance between
    two metric graphs."""
    return max(v for (_, v) in _dgh_lower_certificates(G, H, mesh))


def dgh_bounds(G: MetricGraph, H: MetricGraph,
               mesh: Optional[float] = None) -> BoundReport:
    """Two-sided estimate of the Gromov-Hausdorff distance between two
    graphs: stable invariants below, the complete relation above."""
    certs = _dgh_lower_certificates(G, H, mesh)
    lower = max(v for (_, v) in certs)
    upper = max(diameter(G), diameter(H)) / 2.0
    certs.append(("complete relation distortion / 2", upper))
    return BoundReport(quantity="gromov-hausdorff distance",
                       lower=float(lower), upper=float(upper),
                       certificates=tuple(certs))


def dghl_bounds(G: MetricGraph, H: MetricGraph, R: Correspondence,
                mesh: float) -> BoundReport:
    """Bounds for the labeled Gromov-Hausdorff distance realized by a
    correspondence between mesh-nets of G and H."""
    upper = R.distortion + 2.0 * mesh
    certs = _dgh_lower_certificates(G, H, mesh)
    lower = max(v for (_, v) in certs)
    certs.append(("correspondence distortion + 2*mesh", upper))
    return BoundReport(quantity="labeled gromov-hausdorff distance",
                       lower=lower, upper=upper, certificates=tuple(certs))


def delta_n_bounds(G: MetricGraph, n: int, p: GraphPoint,
                   mesh: Optional[float] = None) -> BoundReport:
    """Bounds for the distance from G to the class of graphs with first
    Betti number at most n.

    The lower bound reads off the persistence sequence; upper bounds come
    from an explicit smoothing quotient, from the linear formula in the
    sequence entry, and for n = 0 from the merge-tree approximation.
    """
    from .gromov_tree import tree_distortion
    from .persistence import persistence_sequence
    from .reeb_smoothing import epsilon_smoothing, quotient_correspondence

    if n < 0:
        raise ValueError("n must be >= 0")
    if mesh is not None and not mesh > 0:
        raise ValueError("mesh must be > 0")
    beta = G.betti1
    name = f"delta_{n}"
    if beta <= n:
        return BoundReport(quantity=name, lower=0.0, upper=0.0,
                           certificates=(("first betti number already small", 0.0),))
    seq = persistence_sequence(G)
    a_next = seq.a(n + 1)
    diam = diameter(G)
    if mesh is None:
        mesh = 0.05 * diam if diam > 0 else 1.0

    certs: List[Tuple[str, float]] = []
    lower = a_next / 4.0
    certs.append(("sequence entry / 4", lower))

    uppers: List[Tuple[str, float]] = []
    uppers.append(("linear formula in the sequence entry",
                   (6.0 * beta + 6.0) * a_next))

    eps_star = 1.5 * a_next
    S = epsilon_smoothing(G, p, eps_star)
    bump = 1e-6
    while S.graph.betti1 > n and bump < 1e-2:
        S = epsilon_smoothing(G, p, eps_star + bump)
        bump *= 10.0
    if S.graph.betti1 <= n:
        corr = quotient_correspondence(G, S, mesh)
        uppers.append(("smoothing quotient correspondence",
                       corr.distortion / 2.0 + 2.0 * mesh))

    if n == 0:
        # td is measured on a mesh-net, which can miss a short cycle; the
        # net term is the one the smoothing certificate carries
        td = tree_distortion(G, p, mesh)
        uppers.append(("merge tree distortion / 2 + 2*mesh",
                       float(td.value) / 2.0 + 2.0 * mesh))
        certs.append(("merge tree distortion / 2", float(td.value) / 2.0))
        certs.append(("tree distortion / 6 (reported)", float(td.value) / 6.0))

    upper = min(v for (_, v) in uppers)
    certs.extend(uppers)
    return BoundReport(quantity=name, lower=float(lower), upper=float(upper),
                       certificates=tuple(certs))

"""Two-sided Gromov-Hausdorff estimates.

Lower bounds come from stable invariants of the whole graph: the diameter
and the persistence sequence for d_GH, the sequence alone for delta_n.
Upper bounds come from explicit correspondences. Every reported interval is
checked for consistency, and every certificate names the invariant that
produced it.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .metric_graph import (
    REL_TOL,
    GraphPoint,
    MetricGraph,
    _check_points,
    _net,
    _net_metric,
    check_mesh,
    checked_distances,
    default_mesh,
    diameter,
    is_index,
    is_real,
    length_unit,
)

_MAX_EXACT = 7
_MAX_HYP_NET = 400
_HYP_SEED = 128        # longest pairs that hyperbolicity compares all against all
_HYP_BLOCK = 1 << 14   # splits per later block of hyperbolicity's scan
_HYP_CHUNK = 1 << 14   # columns per chunk of hyperbolicity's pair tables


@dataclass(frozen=True)
class Correspondence:
    """A relation between finite subsets of two metric spaces.

    ``pairs`` holds index pairs into ``left`` and ``right``; every left and
    every right index must appear at least once. DX and DY are the distance
    matrices of the two point lists: finite, with a zero diagonal, and
    symmetric and nonnegative to REL_TOL of their largest entry's unit.
    """

    left: Tuple[GraphPoint, ...]
    right: Tuple[GraphPoint, ...]
    DX: np.ndarray
    DY: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "DX", checked_distances(self.DX))
        object.__setattr__(self, "DY", checked_distances(self.DY))
        n, m = len(self.left), len(self.right)
        if self.DX.shape != (n, n) or self.DY.shape != (m, m):
            raise ValueError("distance matrices do not match the point lists")
        if not self.pairs:
            raise ValueError("correspondence has no pairs")
        P = np.asarray(self.pairs, dtype=np.int64)
        if P.ndim != 2 or P.shape[1] != 2:
            raise ValueError("pairs must be (left index, right index) pairs")
        a, b = P[:, 0], P[:, 1]
        bad = (a < 0) | (a >= n) | (b < 0) | (b >= m)
        if bad.any():
            a0, b0 = P[np.argmax(bad)].tolist()
            raise ValueError(f"pair ({a0}, {b0}) is out of range")
        if not (np.bincount(a, minlength=n).all() and np.bincount(b, minlength=m).all()):
            raise ValueError("correspondence must cover both point lists")
        object.__setattr__(self, "_pair_idx", P)  # the pairs as a (k, 2) array

    @cached_property
    def _by_left(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs' right indices grouped by left point x, and where each R(x) starts."""
        P = self._pair_idx[np.argsort(self._pair_idx[:, 0])]
        return P[:, 1], np.searchsorted(P[:, 0], np.arange(len(self.left)))

    @property
    def distortion(self) -> float:
        """Max |d_X(x,x') - d_Y(y,y')| over all pairs of related pairs."""
        DX, DY, P = self.DX, self.DY, self._pair_idx
        if len(P) == len(DX) == len(DY) and (P == np.arange(len(P))[:, None]).all():
            # the identity relation: no gather needed
            return float(np.abs(DX - DY).max())
        # hi[x, x'] (lo[x, x']): the largest (least) DY over R(x) x R(x'), by
        # rows then columns; |d| = max(d, -d), and float - is monotone
        rights, starts = self._by_left
        hi, lo = (f.reduceat(f.reduceat(DY[rights], starts)[:, rights], starts, axis=1)
                  for f in (np.maximum, np.minimum))
        return float(max((hi - DX).max(), (DX - lo).max()))

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
    of the diameters every pair is related. Costs are compared to the
    tolerance of the length unit of the largest of r and the distances.
    """
    if not is_real(r) or not r >= 0:
        raise ValueError(f"r must be >= 0, not {r!r}")
    tol = REL_TOL * length_unit(max(r, float(np.abs(corr.DX).max()),
                                    float(np.abs(corr.DY).max())))
    # cost[i, j] = min over related (a, b) of DX[i, a] + DY[j, b], that is
    # (float + being monotone) min over a of DX[i, a] + min over R(a) of DY[j, b]
    rights, starts = corr._by_left
    c = np.minimum.reduceat(corr.DY[:, rights], starts, axis=1)
    cost = np.full((len(corr.left), len(corr.right)), np.inf)
    for a in range(len(corr.left)):
        np.minimum(cost, corr.DX[:, a, None] + c[:, a], out=cost)
    # argwhere lists the pairs in sorted (row-major) order
    pairs = tuple(map(tuple, np.argwhere(cost <= r + tol).tolist()))
    return Correspondence(left=corr.left, right=corr.right,
                          DX=corr.DX, DY=corr.DY, pairs=pairs)


def brute_force_dgh(DX, DY, pointed: Optional[Tuple[int, int]] = None,
                    witness: bool = False):
    """Exact Gromov-Hausdorff distance between two finite metrics.

    Every covering relation contains graph(f) u graph(g)^T for maps
    f: X -> Y and g: Y -> X, and distortion is monotone under inclusion
    (Kalton and Ostrovskii, "Distances between Banach spaces", Forum Math.
    1999), so the search runs over map pairs; g is needed only outside the
    image of f. The least distortion is one of the gaps |DX[i, i2] -
    DY[a, b]|, binary-searched upward from the largest over pairs on either
    side of the least gap to a pair on the other. At a threshold, two
    related pairs are compatible when their gap is within it both ways.
    Feasibility gives each left point an image, then each right point
    outside the image a left, always the point with the fewest compatible
    choices first; every placed pair narrows these choices, kept as
    bitmasks. A branch is cut when a left point has no image left, or an
    uncovered right point has no compatible left, neither a remaining left
    to map to it nor one to be its g. ``pointed=(i0, j0)`` fixes f(i0) = j0.

    The matrices must be finite and square with a zero diagonal, and
    symmetric and nonnegative to REL_TOL of their largest entry's unit; at
    most 7 points per side. With ``witness`` the relation found comes too,
    as sorted pairs that cover both sides, hold the pointed pair and have
    distortion exactly twice the value.
    """
    DX, DY = checked_distances(DX), checked_distances(DY)
    n, m = DX.shape[0], DY.shape[0]
    if n > _MAX_EXACT or m > _MAX_EXACT:
        raise ValueError(f"too many points for exact search (max {_MAX_EXACT})")
    if n == 0 or m == 0:
        raise ValueError("empty metric space")
    dom0, cand0 = [(1 << m) - 1] * n, [(1 << n) - 1] * m
    if pointed is not None:
        if not (isinstance(pointed, (tuple, list)) and len(pointed) == 2
                and all(map(is_index, pointed))
                and 0 <= pointed[0] < n and 0 <= pointed[1] < m):
            raise ValueError(f"pointed must be two in-range indices, not {pointed!r}")
        dom0[int(pointed[0])] = 1 << int(pointed[1])

    # gap[i, a, i2, b] = |DX[i, i2] - DY[a, b]|
    gap = np.abs(DX[:, None, :, None] - DY[None, :, None, :])
    gaps = np.unique(gap)

    def feasible(d: float):
        ok = gap <= d
        ok &= ok.transpose(2, 3, 0, 1)  # D is symmetric only to tolerance
        # rights[i][a][i2] (lefts[i][a][b]): the rights b (lefts i2) with
        # (i2, b) compatible with (i, a)
        rights = (ok * (1 << np.arange(m))).sum(axis=3).tolist()
        lefts = (ok * (1 << np.arange(n))[:, None]).sum(axis=2).tolist()
        pairs: List[Tuple[int, int]] = []

        def search(dom, cand, todo, covered) -> bool:
            # a remaining left that can map to b is in cand[b], so an empty
            # cand[b] leaves b uncovered for good
            uncovered = [b for b in range(m) if not covered >> b & 1]
            if not all(dom[i] for i in todo) or not all(cand[b] for b in uncovered):
                return False
            if todo:
                i = min(todo, key=lambda k: dom[k].bit_count())
                moves = [(i, a) for a in range(m) if dom[i] >> a & 1]
                todo = [k for k in todo if k != i]
            elif uncovered:
                b = min(uncovered, key=lambda k: cand[k].bit_count())
                moves = [(i, b) for i in range(n) if cand[b] >> i & 1]
            else:
                return True
            for (i, a) in moves:
                pairs.append((i, a))
                if search([x & y for x, y in zip(dom, rights[i][a])],
                          [x & y for x, y in zip(cand, lefts[i][a])],
                          todo, covered | 1 << a):
                    return True
                pairs.pop()
            return False

        return sorted(pairs) if search(dom0, cand0, list(range(n)), 0) else None

    # every pair of points on one side is related to some pair on the
    # other, so no gap below the largest of these least gaps is feasible
    lower = max(gap.min(axis=(0, 2)).max(), gap.min(axis=(1, 3)).max())
    lo, hi = int(np.searchsorted(gaps, lower)), len(gaps) - 1
    found = {}
    while lo < hi:
        mid = (lo + hi) // 2
        found[mid] = feasible(gaps[mid])
        if found[mid] is None:
            lo = mid + 1
        else:
            hi = mid
    value = float(gaps[hi]) / 2.0
    if not witness:
        return value
    # at the largest gap every pair is compatible, so there is a relation
    return value, tuple(found.get(hi) or feasible(gaps[hi]))


def _lazy_table(n: int, width: int) -> np.ndarray:
    """An n x width float32 array whose pages take memory only once
    written. numpy asks for huge pages on arrays of 4 MiB or more, which
    would make a chunk filled a few columns per row resident whole; those
    are put on an anonymous map instead."""
    if 4 * n * width < 1 << 22:
        return np.empty((n, width), np.float32)
    return np.frombuffer(mmap.mmap(-1, 4 * n * width), np.float32).reshape(n, width)


def _screen_cut(x: float) -> np.float32:
    """The largest float32 at most x - 2^-18: the least float32 gap that a
    split can show in the screen and still be worth evaluating exactly."""
    x -= 2.0 ** -18
    c = np.float32(x)
    return c if float(c) <= x else np.nextafter(c, np.float32(-np.inf))


def hyperbolicity(D) -> float:
    """Four-point hyperbolicity constant of a finite metric.

    Max over quadruples of (largest pair-sum - second largest)/2. D must
    be finite and square with a zero diagonal, and symmetric and
    nonnegative to REL_TOL of its largest entry's unit, as for
    ``Correspondence``. Only the strict upper triangle is read: D[i, j]
    with i < j is the distance of i and j. The split of a
    quadruple with the largest sum is the only one with a positive gap, so
    the result is the largest gap over all unordered pairs of point-pairs.

    The pairs are sorted by decreasing distance and visited in that order,
    each against all longer pairs; the longest ``_HYP_SEED`` are first
    compared all against all. The scan stops by the lemma of Cohen, Coudert
    and Lancin ("On computing the Gromov hyperbolicity", ACM JEA 2015): a
    split {ab, cd} has gap g = S - max(S', S'') <= min(d(a,b), d(c,d)). For
    g <= ((S - S') + (S - S''))/2, and the triangle inequalities d(c,d) <=
    d(c,a) + d(a,d) and d(c,d) <= d(c,b) + d(b,d) bound that by d(a,b). So
    once the next pair's distance s has s + margin <= best, no split with
    it or any later pair can beat best. D need not be a metric: where the
    triangle inequality fails by at most tau = max D[i,k] - D[i,j] - D[j,k]
    (rounded nets break it by ulps) the lemma gives min + tau, and the
    margin 2*tau + 16 ulps of the largest entry also covers the rounding of
    each gap.

    Splits are screened in float32, and only those that can matter are
    evaluated in float64, with the loop's float operations. The screen's
    matrix V is D scaled by the power of two that puts its largest entry in
    [1, 2), so entries round to float32 within 2^-24. Its pair tables
    UI[x, a] = V[x, I[a]] and UJ[x, a] = V[x, J[a]] grow in chunks of
    ``_HYP_CHUNK`` columns and are never copied; pairs (k, l) read the rows
    UI[k] + UJ[l] and UI[l] + UJ[k]. A float32 gap, formed with the loop's
    expression, is within 5 * 2^-23 < 2^-19 of the float64 one (four
    entries rounded within 2^-24, three sums below 4 within 2^-23), so a
    split that beats best or is its block's largest shows a float32 gap
    above max(best, the block's largest) - 2^-18. Only those splits are
    evaluated, each once; best takes only their values and misses none that
    beat it, so the result is ``==`` to the loop's. Near 0, where a
    tree-like D has many splits, the screen cannot tell 0 from an ulp: a
    block whose gaps and best all lie below 2^-17 waits to the end and is
    screened again only if it can still beat best. tau is read off V plus
    its error bound 2^-21 > 6 * 2^-24; a larger tau only widens the margin.
    """
    D = checked_distances(D)
    n = D.shape[0]
    if n < 4:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    s = D[iu, ju]
    U = np.zeros((n, n))
    U[iu, ju] = s
    U += U.T
    order = np.argsort(-s, kind="stable")
    I, J, S = iu[order], ju[order], s[order]
    # the screen's matrix: U * 2^shift, with its largest entry in [1, 2)
    longest = float(np.abs(S).max())
    shift = 1 - math.frexp(longest)[1]
    V = np.ldexp(U, shift).astype(np.float32)
    SV = V[I, J]
    step = max(1, _HYP_BLOCK // (n * n))  # middle points j per step of tau
    tau = max(float((V - V[j:j + step, :, None] - V[j:j + step, None, :]).max())
              for j in range(0, n, step))
    margin = 2.0 * math.ldexp(tau + 2.0 ** -21, -shift) + 16.0 * np.spacing(longest)
    # pairs with s + margin > best are a prefix of the order; -(S + margin)
    # is ascending, so searchsorted counts them
    bound = -(S + margin)
    width = min(len(S), _HYP_CHUNK)
    UI: List[np.ndarray] = []
    UJ: List[np.ndarray] = []
    put_off: List[Tuple[float, int, int, int]] = []
    best = 0.0

    def screen(c0: int, c1: int, q0: int, floor: float) -> None:
        """Raise best by the splits of the pairs c0..c1 with the pairs of
        the table chunk at q0 below c1, or put them off if their largest
        float32 gap and best both lie below floor."""
        nonlocal best
        K, L, SK = I[c0:c1], J[c0:c1], SV[c0:c1, None]
        if c1 - c0 == 1:  # one row: read it as a view, not a copy
            K, L = slice(K[0], K[0] + 1), slice(L[0], L[0] + 1)
        h = min(c1 - q0, width)
        TI, TJ = UI[q0 // width][:, :h], UJ[q0 // width][:, :h]
        c = np.add(TI[K], TJ[L])                 # d(k,i) + d(l,j)
        x = np.add(TI[L], TJ[K])                 # d(l,i) + d(k,j)
        np.maximum(c, x, out=c)
        g = np.add(SK, SV[q0:q0 + h], out=x)
        g -= c
        most = float(g.max())
        top = max(math.ldexp(best, shift), most)
        if top < floor:
            put_off.append((most, c0, c1, q0))
            return
        cut = _screen_cut(top)
        if most > cut:
            r, a = np.nonzero(g > cut)
            b, a = r + c0, a + q0
            keep = a < b  # each split once
            b, a = b[keep], a[keep]
            k, l, i, j = I[b], J[b], I[a], J[a]
            exact = (S[b] + S[a]) - np.maximum(U[k, i] + U[l, j], U[l, i] + U[k, j])
            best = float(exact.max(initial=best))

    c0, c1 = 0, min(len(S), _HYP_SEED)
    while True:
        for q0 in range(c0 - c0 % width, c1, width):  # the new columns, chunk by chunk
            if q0 == width * len(UI):
                UI.append(_lazy_table(n, width))
                UJ.append(_lazy_table(n, width))
            q, lo, hi = q0 // width, max(c0, q0), min(c1, q0 + width)
            UI[q][:, lo - q0:hi - q0] = V[I[lo:hi]].T  # V is symmetric
            UJ[q][:, lo - q0:hi - q0] = V[J[lo:hi]].T
        for q0 in range(0, c1, width):
            screen(c0, c1, q0, 2.0 ** -17)
        alive = int(np.searchsorted(bound, -best))
        if c1 >= alive:
            break
        c0, c1 = c1, min(alive, c1 + max(1, _HYP_BLOCK // c1))
    for most, c0, c1, q0 in put_off:
        if most > _screen_cut(math.ldexp(best, shift)):
            screen(c0, c1, q0, 0.0)
    return best / 2.0


def hyp_graph(G: MetricGraph, mesh: Optional[float] = None) -> Tuple[float, float]:
    """Hyperbolicity of a mesh-net of G, with its approximation error
    4*mesh. The net and its distance block are G's memoised ones."""
    if mesh is not None:
        check_mesh(mesh)
    if not G.edges:
        return 0.0, 0.0
    if mesh is None:
        mesh = default_mesh(diameter(G))
    _check_points("hyperbolicity", len(_net(G, float(mesh)).points), _MAX_HYP_NET)
    return hyperbolicity(_net_metric(G, float(mesh))), 4.0 * mesh


@dataclass(frozen=True)
class BoundReport:
    """A certified interval for a quantity, read off named certificates: the
    largest lower (0.0 without one; every quantity here is a distance) and
    the smallest upper. ``reported`` values bound nothing. The bounds may
    cross by the tolerance of their length unit."""

    quantity: str
    lowers: Tuple[Tuple[str, float], ...]
    uppers: Tuple[Tuple[str, float], ...]
    reported: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.uppers:
            raise ValueError(f"no upper certificate for {self.quantity}")
        tol = REL_TOL * length_unit(max(abs(self.lower), abs(self.upper)))
        if self.lower > self.upper + tol:
            raise AssertionError(
                f"inconsistent bounds for {self.quantity}: "
                f"{self.lower} > {self.upper}")

    @property
    def lower(self) -> float:
        return max((v for _, v in self.lowers), default=0.0)

    @property
    def upper(self) -> float:
        return min(v for _, v in self.uppers)

    @property
    def certificates(self) -> Tuple[Tuple[str, float], ...]:
        return self.lowers + self.reported + self.uppers

    def to_json_obj(self) -> dict:
        return {
            "quantity": self.quantity,
            "lower": float(self.lower),
            "upper": float(self.upper),
            "certificates": [[name, float(value)]
                             for (name, value) in self.certificates],
        }


def _dgh_lower_certificates(G: MetricGraph, H: MetricGraph) -> Tuple[Tuple[str, float], ...]:
    from .persistence import persistence_sequence, seq_distance
    gap = abs(diameter(G) - diameter(H))
    seq = seq_distance(persistence_sequence(G), persistence_sequence(H))
    return (("diameter gap / 2", gap / 2.0),
            ("persistence sequence gap / 4", seq / 4.0))


def dgh_lower(G: MetricGraph, H: MetricGraph) -> float:
    """Best available lower bound on the Gromov-Hausdorff distance between
    two metric graphs."""
    return dgh_bounds(G, H).lower


def dgh_bounds(G: MetricGraph, H: MetricGraph) -> BoundReport:
    """Two-sided estimate of the Gromov-Hausdorff distance between two
    graphs: stable invariants below, the complete relation above."""
    return BoundReport(quantity="gromov-hausdorff distance",
                       lowers=_dgh_lower_certificates(G, H),
                       uppers=(("complete relation distortion / 2",
                                max(diameter(G), diameter(H)) / 2.0),))


def dghl_bounds(G: MetricGraph, H: MetricGraph, R: Correspondence,
                mesh: float) -> BoundReport:
    """Bounds for the labeled Gromov-Hausdorff distance realized by a
    correspondence between mesh-nets of G and H."""
    check_mesh(mesh)
    return BoundReport(quantity="labeled gromov-hausdorff distance",
                       lowers=_dgh_lower_certificates(G, H),
                       uppers=(("correspondence distortion + 2*mesh",
                                R.distortion + 2.0 * mesh),))


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

    if not is_index(n):
        raise ValueError(f"n must be an integer, not {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if mesh is not None:
        check_mesh(mesh)
    beta = G.betti1
    name = f"delta_{n}"
    if beta <= n:
        return BoundReport(quantity=name, lowers=(),
                           uppers=(("first betti number already small", 0.0),))
    seq = persistence_sequence(G)
    a_next = seq.a(n + 1)
    if mesh is None:
        mesh = default_mesh(diameter(G))

    uppers = [("linear formula in the sequence entry", (6.0 * beta + 6.0) * a_next)]
    # at 1.5 a(n+1) the smoothing's first Betti number is at most n (see
    # prop:smoothingbetti); if rounding ever broke that, the guard drops the
    # certificate
    S = epsilon_smoothing(G, p, 1.5 * a_next)
    if S.graph.betti1 <= n:
        corr = quotient_correspondence(G, S, mesh)
        uppers.append(("smoothing quotient correspondence",
                       corr.distortion / 2.0 + 2.0 * mesh))

    reported = ()
    if n == 0:
        # td is measured on a mesh-net, which can miss a short cycle; the
        # net term is the one the smoothing certificate carries
        td = tree_distortion(G, p, mesh)
        uppers.append(("merge tree distortion / 2 + 2*mesh",
                       td.value / 2.0 + 2.0 * mesh))
        reported = (("merge tree distortion / 2", td.value / 2.0),
                    ("tree distortion / 6 (reported)", td.value / 6.0))
    return BoundReport(quantity=name, lowers=(("sequence entry / 4", a_next / 4.0),),
                       uppers=tuple(uppers), reported=reported)

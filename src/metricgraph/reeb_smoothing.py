"""Epsilon-smoothings of a pointed metric graph.

The smoothing S of (G, p) at scale eps is the Reeb quotient of
F(x, s) = d(p, x) + s on the l1 product G x [0, eps], the smoothing of
de Silva, Munch and Patel ("Categorified Reeb graphs", DCG 2016). Its level-t
classes are the components of the band {x : t - eps <= d(p, x) <= t} of the
monotone subdivision, so S is read off a sweep of the band across the
critical levels {f(v)} and {f(v) + eps}.

The sweep runs on integer slots. Critical values closer than 100 times the
model graph's tolerance merge into one level, so the merging scales with G;
slot 2k is the k-th merged level and slot 2k + 1 the open interval above
it. Each critical value is mapped to its slot once and no float is compared
after that: a model vertex or edge lies in the band from the slot of its
lowest f to the slot of its highest f + eps, so the band moves by per-slot
enter and leave lists, all at even slots. Each component at an even slot is
a vertex of S unless it is a pass-through, one component just below and one
just above; each component at an odd slot lies on an edge of S.

The band's components persist from slot to slot, and only the ones that
change are touched, not the whole band (compare Parsa, "A deterministic
O(m log m) time algorithm for the Reeb graph", SoCG 2012). An entering
element merges the components it meets, the smaller relabelled into the
largest, and a component that loses an element is re-explored, each piece
that splits off taking a fresh id. A component that nothing enters, merges
into or leaves keeps its S edge and costs nothing; S vertices arise only at
births, deaths, merges and splits. Each element logs the slots at which its
component id changed, each component the slots at which its class in S
changed, and each class of S the slots at which its smallest element
changed.

The quotient correspondence locates and represents whole nets at once, as
arrays. Each net point's model element and level are found once per (G,
canonical p, mesh) (``metric_graph._net_places``). A whole net's slots are
then one search of its levels against the critical levels, with the snap
into the merge gap, and its classes and representatives two searches of the
breakpoint lists flattened into sorted keys (list * width + slot). Points
are built only for the correspondence's point lists. Every float
expression is the per-point one (tests/oracles/quotient_points.py), so the
two agree ``==``.

Levels run from 0 to max f + eps: the quotient keeps growing above the
highest point of G, which contributes a hanging tail.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Set, Tuple

import numpy as np

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _build_monotone_model,
    _canonical_at,
    _exits_at,
    _Exits,
    _extended,
    _metric,
    _model_arrays,
    _net,
    _net_metric,
    _net_places,
    _points_at,
    _vd_sym,
    check_positive,
    distance,
    is_real,
    per_graph,
)
from .gh_bounds import Correspondence

_Keys = Tuple[np.ndarray, np.ndarray]  # flattened breakpoint keys and values


class _Flat(NamedTuple):
    """A smoothing's breakpoint lists flattened for whole-net lookups.

    List i's entry at slot s has key i * width + s, and the keys are sorted,
    so the value that list i gives at slot s is that of the last key at or
    below i * width + s. A class of S has a code: its vertex index in
    S.graph, or the number of S vertices plus its edge index."""

    width: int          # one more than the last slot an entry can name
    crit: np.ndarray    # the critical levels, one per even slot
    log: _Keys          # per model element, its band component ids
    names: _Keys        # per band component, its class codes
    reps: _Keys         # per class code, the numbers of its smallest elements
    level: np.ndarray   # per class code, the level of the S vertex or S edge's lower end


@dataclass(frozen=True, eq=False)
class SmoothedGraph:
    """The epsilon-smoothing S of (G, p), as the band sweep leaves it.

    ``level`` is the value of the quotient function on S's vertices, in name
    order, and ``base_class`` the vertex holding the class of the basepoint
    (level 0). ``graph`` is S as a metric graph, built on first read. Edge
    lengths equal the level difference of their endpoints, and the distance
    from ``base_class`` to any point equals its level.

    One smoothing is built per (G, canonical p, float(eps)) in G's memo and
    shared by every later call, so it and its lists must not be mutated.
    """

    level: Dict[str, float]
    base_class: str
    eps: float
    # G, held weakly: S lives in G's memo, and a strong reference back would
    # leave G to the cycle collector instead of freeing it with its last user
    _source: weakref.ref = field(repr=False)
    _basepoint: GraphPoint = field(repr=False)  # the canonical p
    # the sweep's monotone model and critical levels
    _model: MonotoneModel = field(repr=False)
    _criticals: Tuple[float, ...] = field(repr=False)
    # per model element, by its number (see _model_arrays), (slots,
    # component ids): from each listed slot on, until the next, the
    # element's band component has that id
    _log: List[Tuple[List[int], List[int]]] = field(repr=False)
    # per component id (slots, names): from each listed slot on, the
    # component's class is that S vertex or S edge
    _names: List[Tuple[List[int], List[str]]] = field(repr=False)
    # per S vertex or S edge (slots, elements): from each listed slot on,
    # the smallest element of its class; a vertex has one entry, its slot
    _reps: Dict[str, Tuple[List[int], List[int]]] = field(repr=False)
    _edges: List[Tuple[str, str, str, float]] = field(repr=False)  # S edges in name order

    @cached_property
    def graph(self) -> MetricGraph:
        return MetricGraph(list(self.level), self._edges)

    @cached_property
    def _flat(self) -> _Flat:
        """The breakpoint lists flattened, built on first read."""
        SG = self.graph
        nv = len(SG.vertices)
        code = {**SG._vidx, **{e: nv + k for e, k in SG._eidx.items()}}
        width = 2 * len(self._criticals)

        def flat(lists, value=lambda x: x) -> _Keys:
            keys = [i * width + s for i, (slots, _) in enumerate(lists) for s in slots]
            return (np.array(keys, dtype=np.int64),
                    np.array([value(x) for _, xs in lists for x in xs], dtype=np.int64))

        return _Flat(width, np.array(self._criticals), flat(self._log),
                     flat(self._names, code.__getitem__),
                     flat([self._reps[v] for v in SG.vertices] + [self._reps[e.id] for e in SG.edges]),
                     np.array([self.level[v] for v in SG.vertices]
                              + [self.level[e.u] for e in SG.edges]))

    def to_json_obj(self) -> dict:
        from .metric_graph import graph_to_json_obj
        obj = graph_to_json_obj(self.graph)
        obj["level"] = {v: self.level[v] for v in sorted(self.level)}
        obj["base"] = self.base_class
        return obj


def _at(breaks: Tuple[List, List], s: int):
    """The value a breakpoint list gives at slot s: that of the last entry
    at or before s (the sweep reads its base class so)."""
    slots, values = breaks
    return values[bisect_right(slots, s) - 1]


def _sweep(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """The smoothing of (G, p) at scale eps, swept once per (G, canonical p,
    float(eps))."""
    if not is_real(eps) or not 0 <= eps < math.inf:
        raise ValueError(f"eps must be a finite number >= 0, not {eps!r}")
    return _sweep_at(G, G.canonical(p), float(eps))


@per_graph
def _sweep_at(G: MetricGraph, cp: GraphPoint, eps: float) -> SmoothedGraph:
    model = _build_monotone_model(G, cp)
    H, f = model.graph, model.f

    # a critical value within gap of the first value of a run joins its slot
    gap = 100.0 * H._tol
    criticals: List[float] = []
    slot: Dict[float, int] = {}  # critical value -> its even slot
    for x in sorted({x for v in H.vertices for x in (f[v], f[v] + eps)}):
        if not criticals or x - criticals[-1] > gap:
            criticals.append(x)
        slot[x] = 2 * len(criticals) - 2
    n_slots = 2 * len(criticals) - 1

    # model elements numbered in sorted order (see _model_arrays), so a
    # component's smallest element is its smallest number; an edge is
    # adjacent to its two ends
    vnum = {v: len(H.edges) + k for k, v in enumerate(H.vertices)}
    n_elems = len(H.edges) + len(H.vertices)
    adj: List[List[int]] = [[] for _ in range(n_elems)]
    enter: List[List[int]] = [[] for _ in range(n_slots)]
    leave: List[List[int]] = [[] for _ in range(n_slots)]
    for v in H.vertices:
        enter[slot[f[v]]].append(vnum[v])
        leave[slot[f[v] + eps]].append(vnum[v])
    for e, i in zip(H.edges, _model_arrays(G, cp).num.tolist()):
        a, b = vnum[e.u], vnum[e.v]
        lo, hi = sorted((f[e.u], f[e.v]))
        enter[slot[lo]].append(i)
        leave[slot[hi + eps]].append(i)
        adj[i] += (a, b)
        adj[a].append(i)
        adj[b].append(i)

    # the band's components, kept from slot to slot: each element's log of
    # (slot, component id) changes, and each component's log of classes
    comp: Dict[int, int] = {}       # band element -> component id
    members: Dict[int, Set[int]] = {}
    low: Dict[int, int] = {}        # component id -> smallest element
    log: List[Tuple[List[int], List[int]]] = [([], []) for _ in range(n_elems)]
    names: List[Tuple[List[int], List[str]]] = []
    cur: Dict[int, int] = {}        # component id -> its S edge, between slots

    def fresh() -> int:
        names.append(([], []))
        return len(names) - 1

    def label(x: int, c: int, s: int) -> None:
        # a later entry at the same slot overrides, as the lookup bisects right
        comp[x] = c
        log[x][0].append(s)
        log[x][1].append(c)

    def name(c: int, s: int, n: str) -> None:
        names[c][0].append(s)
        names[c][1].append(n)

    # S as it grows: vertex levels, and per S edge its ends and its log of
    # smallest elements
    level: Dict[str, float] = {}
    bottom: List[str] = []
    top: List[str] = []
    reps: Dict[str, Tuple[List[int], List[int]]] = {}

    # elements enter and leave at even slots only, so the band is constant
    # from the slot after one even slot to the next
    for s in range(0, n_slots, 2):
        # an entering element merges the components it meets into the
        # largest; ins lists the S edges that flow into each component
        # touched, none for a component born here
        ins: Dict[int, List[int]] = {}
        for x in enter[s]:
            touched = {comp[y] for y in adj[x] if y in comp}
            for d in touched - ins.keys():
                ins[d] = [cur.pop(d)]
            c = max(touched, key=lambda d: len(members[d]), default=None)
            if c is None:
                c = fresh()
                members[c], low[c], ins[c] = set(), x, []
            for d in touched - {c}:
                for y in members[d]:
                    label(y, c, s)
                members[c] |= members.pop(d)
                low[c] = min(low[c], low.pop(d))
                ins[c] += ins.pop(d)
            members[c].add(x)
            low[c] = min(low[c], x)
            label(x, c, s)

        # the components that change at slot s, by their smallest element
        hit = {comp[x] for x in leave[s]}
        changed = sorted((low[c], c) for c in ins.keys() | hit)

        # after slot s the leaving elements go; a component that lost one
        # is re-explored, and each piece but its largest gets a fresh id
        for x in leave[s]:
            members[comp.pop(x)].discard(x)
        out: Dict[int, List[int]] = {}  # component -> its pieces after slot s
        for c in hit:
            rest = members.pop(c)
            del low[c]
            pieces: List[Set[int]] = []
            while rest:
                x = rest.pop()
                piece, stack = {x}, [x]
                while stack:
                    for y in adj[stack.pop()]:
                        if y in rest:
                            rest.remove(y)
                            piece.add(y)
                            stack.append(y)
                pieces.append(piece)
            pieces.sort(key=len, reverse=True)
            out[c] = []
            for k, piece in enumerate(pieces):
                d = c if k == 0 else fresh()
                members[d], low[d] = piece, min(piece)
                out[c].append(d)
                if k:
                    for y in piece:
                        label(y, d, s + 1)

        # one S edge in and one out: a pass-through, which stays on its S
        # edge; any other change is an S vertex, whose pieces start S edges
        starts: List[Tuple[int, int, str]] = []
        for lo, c in changed:
            into = ins[c] if c in ins else [cur.pop(c)]
            pieces_c = out.get(c, [c])
            if len(into) == 1 and len(pieces_c) == 1:
                e = into[0]
                if not names[c][0]:  # born here, holding one older component
                    name(c, s, f"s{e}")
                cur[c] = e
                rs, rx = reps[f"s{e}"]
                if rx[-1] != low[c]:
                    rs.append(s + 1)
                    rx.append(low[c])
                continue
            v = f"n{len(level)}"
            level[v] = criticals[s // 2]
            reps[v] = ([s], [lo])
            name(c, s, v)
            for e in into:
                top[e] = v
            starts += [(low[d], d, v) for d in pieces_c]
        for lo, d, v in sorted(starts):
            e = f"s{len(bottom)}"
            cur[d] = len(bottom)
            bottom.append(v)
            top.append("")
            reps[e] = ([s + 1], [lo])
            name(d, s + 1, e)

    edges = [(f"s{j}", u, v, level[v] - level[u]) for j, (u, v) in enumerate(zip(bottom, top))]
    base = vnum[model.p_vertex]
    return SmoothedGraph(level, _at(names[_at(log[base], 0)], 0), eps, weakref.ref(G), cp,
                         model, tuple(criticals), log, names, reps, edges)


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """Smooth (G, p) at scale eps: a finite number >= 0. Every call with the
    same canonical p and float(eps) returns the same shared smoothing."""
    return _sweep(G, p, eps)


def _classes(S: SmoothedGraph, elem: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The code of the class of each band element (by number) elem at slot s."""
    F = S._flat
    comp = F.log[1][np.searchsorted(F.log[0], elem * F.width + s, side="right") - 1]
    return F.names[1][np.searchsorted(F.names[0], comp * F.width + s, side="right") - 1]


def _reps(S: SmoothedGraph, code: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The number of the smallest model element of each class (by code) at
    a slot s that it spans."""
    F = S._flat
    return F.reps[1][np.searchsorted(F.reps[0], code * F.width + s, side="right") - 1]


def _locate_net(S: SmoothedGraph, elem: np.ndarray,
                lvl: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class of (x, 0) in the quotient for each point x of G with model
    element number elem and level lvl, as points of S.graph given as in
    ``_canonical_at``, not yet snapped to S's tolerance (which can exceed
    the slot gap)."""
    F = S._flat
    crit, last = F.crit, len(F.crit) - 1
    # snap to the first critical level within the merge gap, else take the
    # open interval that holds lvl
    gap = 100.0 * S._model.graph._tol
    k = np.searchsorted(crit, lvl)
    below = (k > 0) & (np.abs(lvl - crit[k - 1]) <= gap)
    above = (k <= last) & (np.abs(lvl - crit[np.minimum(k, last)]) <= gap)
    s = np.where(below, 2 * k - 2, 2 * k - 1 + above)
    # a point of a model element snaps no lower than the element's first
    # slot and no higher than its last, so no lookup reads another list
    code = _classes(S, elem, s)
    t = np.where(s % 2 == 0, crit[s // 2], lvl)
    nv, on = len(S.level), code >= len(S.level)
    return np.where(on, -1, code), np.where(on, code - nv, -1), np.where(on, t - F.level[code], 0.0)


def _represent_net(G: MetricGraph, S: SmoothedGraph,
                   ex: _Exits) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each canonical point of S.graph with exit arrays ex, a point of
    G whose column {x} x [0, eps] meets its class, given as in
    ``_canonical_at``."""
    F, M, H = S._flat, _model_arrays(G, S._basepoint), S._model.graph
    on = ex.on >= 0
    code = np.where(on, len(S.level) + ex.on, ex.v[:, 0])
    lvl = F.level[code] + ex.c[:, 0]  # a vertex's cost is 0.0
    # a vertex's own slot; on an edge, the first interval whose closure,
    # widened by the tolerance that put the point inside its edge, holds lvl
    elem = _reps(S, code, 2 * np.searchsorted(F.crit, np.where(on, lvl - S.graph._tol, lvl)) - on)
    # a model vertex, or the point of a model edge at the level nearest lvl
    ne = len(M.num)
    j = np.flatnonzero(elem < ne)
    k = M.edge_of[elem[j]]
    fu, fv = M.f[H._ends[k, 0]], M.f[H._ends[k, 1]]
    target = np.maximum(np.minimum(np.maximum(fu, fv), lvl[j]), np.minimum(fu, fv))
    hv, he, ho = elem - ne, np.full(len(elem), -1), np.zeros(len(elem))
    hv[j], he[j], ho[j] = -1, k, np.where(fv >= fu, target - fu, fu - target)
    # a clamped offset may lie within the model's tolerance of an end
    hv, he, ho = _canonical_at(H, hv, he, ho)
    vert, edge, off = M.vert[hv], M.cut_edge[hv], M.cut_off[hv]
    j = np.flatnonzero(hv < 0)
    vert[j], edge[j], off[j] = -1, M.host[he[j]], M.lo[he[j]] + ho[j]
    return vert, edge, off


def smoothed_distance(S: SmoothedGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Shortest-path distance between two classes of the smoothing."""
    return distance(S.graph, x, y)


def betti_after_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> int:
    """First Betti number of the smoothing of (G, p) at scale eps, read
    from the sweep without building S as a graph: S is connected, so it is
    (S edges) - (S vertices) + 1."""
    S = _sweep(G, p, eps)
    return len(S._edges) - len(S.level) + 1


def quotient_correspondence(G: MetricGraph, S: SmoothedGraph, mesh: float) -> Correspondence:
    """Correspondence between nets of G and of its smoothing S, pairing each
    source net point with its class and each smoothed net point with a
    representative column. Errors on mismatched provenance."""
    if S._source() is not G:
        raise ValueError("mismatched provenance: the smoothing was not built from this graph")
    check_positive("mesh", mesh)
    SG, mesh = S.graph, float(mesh)
    net_g, net_s = _net(G, mesh), _net(SG, mesh)
    loc = _canonical_at(SG, *_locate_net(S, *_net_places(G, S._basepoint, mesh)))
    rep = _represent_net(G, S, net_s.exits)
    DX = _extended(_vd_sym(G), _net_metric(G, mesh), net_g.exits,
                   _exits_at(G, *_canonical_at(G, *rep)))
    DY = _metric(_vd_sym(SG), _Exits(*map(np.concatenate, zip(_exits_at(SG, *loc), net_s.exits))))
    left = net_g.points + tuple(_points_at(G, *rep))
    right = tuple(_points_at(SG, *loc)) + net_s.points
    return Correspondence(left=left, right=right, DX=DX, DY=DY,
                          pairs=tuple(zip(range(len(left)), range(len(left)))))

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
enter and leave lists. The components at even slots
are the vertices of S before pass-through vertices dissolve. Each component
at an odd slot is an edge joining the components that hold it at the two
neighbouring even slots, which always contain it.

The band's components persist from slot to slot, and only the ones that
change are touched, not the whole band (compare Parsa, "A deterministic
O(m log m) time algorithm for the Reeb graph", SoCG 2012). An entering
element merges the components it meets, the smaller relabelled into the
largest, and a component that loses an element is re-explored, each piece
that splits off taking a fresh id. Each element logs the slots at which its
component id changed, and each slot maps its component ids to S, so the
class of any (slot, element) pair is one bisection away.

Levels run from 0 to max f + eps: the quotient keeps growing above the
highest point of G, which contributes a hanging tail.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, NamedTuple, Set, Tuple

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _from_model_point,
    _model_f,
    _monotone_model,
    _to_model_point,
    check_positive,
    distance,
    epsilon_net,
    finite_metric,
    is_real,
)
from .gh_bounds import Correspondence

_Elem = Tuple[str, str]  # ("v", vertex) or ("e", edge id) of the model


@dataclass(frozen=True)
class SmoothedGraph:
    """Result of an epsilon-smoothing.

    ``graph`` is the quotient as a metric graph, ``level`` the value of the
    quotient function on its vertices, ``base_class`` the vertex holding the
    class of the basepoint (level 0). Edge lengths equal the level
    difference of their endpoints, and the distance from ``base_class`` to
    any point equals its level.
    """

    graph: MetricGraph
    level: Dict[str, float]
    base_class: str
    eps: float
    _source: MetricGraph = field(repr=False)
    _model: MonotoneModel = field(repr=False)
    _criticals: Tuple[float, ...] = field(repr=False)
    # model element -> (slots, component ids): from each listed slot on,
    # until the next, the element's band component has that id
    _log: Dict[_Elem, Tuple[List[int], List[int]]] = field(repr=False)
    # slot -> component id -> the S vertex or S edge holding its class
    _names: Tuple[Dict[int, str], ...] = field(repr=False)
    # (S vertex, its slot) or (S edge, odd slot) -> smallest model element
    # of that class
    _rep: Dict[Tuple[str, int], _Elem] = field(repr=False)

    def to_json_obj(self) -> dict:
        from .metric_graph import graph_to_json_obj
        obj = graph_to_json_obj(self.graph)
        obj["level"] = {v: self.level[v] for v in sorted(self.level)}
        obj["base"] = self.base_class
        return obj


def _comp_at(log: Tuple[List[int], List[int]], s: int) -> int:
    """The component an element's log gives it at slot s: the id of the
    last entry at or before s."""
    slots, comps = log
    return comps[bisect_right(slots, s) - 1]


def _class(S: SmoothedGraph, s: int, x: _Elem) -> str:
    """The S vertex or S edge holding the class of band element x at slot s."""
    return S._names[s][_comp_at(S._log[x], s)]


class _Sweep(NamedTuple):
    """The band sweep of one smoothing, before S is assembled."""

    model: MonotoneModel
    criticals: List[float]
    elems: List[_Elem]             # model elements in sorted order
    log: List[Tuple[List[int], List[int]]]  # per element, see SmoothedGraph._log
    prov: List[Dict[int, int]]     # per slot, component id -> provisional id
    pv_slot: List[int]             # per provisional vertex (even slot), its slot
    pv_rep: List[int]              # ... and its smallest element
    pe_slot: List[int]             # per provisional edge (odd slot), its slot
    pe_rep: List[int]              # ... and its smallest element
    base: int                      # the element of the basepoint's model vertex


def _sweep(G: MetricGraph, p: GraphPoint, eps: float) -> _Sweep:
    """Sweep the band of (G, p) at scale eps across the slots."""
    if not is_real(eps) or not 0 <= eps < math.inf:
        raise ValueError(f"eps must be a finite number >= 0, not {eps!r}")
    model = _monotone_model(G, p)
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

    # model elements numbered in sorted order, so a component's smallest
    # element is its smallest number; an edge is adjacent to its two ends
    elems = sorted([("v", v) for v in H.vertices] + [("e", e.id) for e in H.edges])
    num = {x: i for i, x in enumerate(elems)}
    adj: List[List[int]] = [[] for _ in elems]
    enter: List[List[int]] = [[] for _ in range(n_slots)]
    leave: List[List[int]] = [[] for _ in range(n_slots)]
    for v in H.vertices:
        enter[slot[f[v]]].append(num[("v", v)])
        leave[slot[f[v] + eps]].append(num[("v", v)])
    for e in H.edges:
        i, a, b = num[("e", e.id)], num[("v", e.u)], num[("v", e.v)]
        lo, hi = sorted((f[e.u], f[e.v]))
        enter[slot[lo]].append(i)
        leave[slot[hi + eps]].append(i)
        adj[i] += (a, b)
        adj[a].append(i)
        adj[b].append(i)

    # the band's components, kept from slot to slot, and each element's log
    # of (slot, component id) changes
    comp: Dict[int, int] = {}       # band element -> component id
    members: Dict[int, Set[int]] = {}
    low: Dict[int, int] = {}        # component id -> smallest element
    log: List[Tuple[List[int], List[int]]] = [([], []) for _ in elems]
    fresh = count()

    def label(x: int, c: int, s: int) -> None:
        # a later entry at the same slot overrides, as the lookup bisects right
        comp[x] = c
        log[x][0].append(s)
        log[x][1].append(c)

    # provisional vertices (even slots) and edges (odd slots), numbered in
    # sweep order: each one's slot and smallest element, and per slot the
    # provisional id of every live component
    pv_slot: List[int] = []
    pv_rep: List[int] = []
    pe_slot: List[int] = []
    pe_rep: List[int] = []
    prov: List[Dict[int, int]] = []
    for s in range(n_slots):
        for x in enter[s]:
            touched = {comp[y] for y in adj[x] if y in comp}
            c = max(touched, key=lambda d: len(members[d]), default=None)
            if c is None:
                c = next(fresh)
                members[c], low[c] = set(), x
            for d in touched - {c}:
                for y in members[d]:
                    label(y, c, s)
                members[c] |= members.pop(d)
                low[c] = min(low[c], low.pop(d))
            members[c].add(x)
            low[c] = min(low[c], x)
            label(x, c, s)
        at, reps = (pv_slot, pv_rep) if s % 2 == 0 else (pe_slot, pe_rep)
        live = sorted(members, key=low.__getitem__)
        prov.append({c: len(reps) + k for k, c in enumerate(live)})
        at.extend([s] * len(live))
        reps.extend(low[c] for c in live)
        # after slot s the leaving elements go; a component that lost one
        # is re-explored, and each piece but its largest gets a fresh id
        hit: Set[int] = set()
        for x in leave[s]:
            c = comp.pop(x)
            members[c].discard(x)
            hit.add(c)
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
            for k, piece in enumerate(pieces):
                d = c if k == 0 else next(fresh)
                members[d], low[d] = piece, min(piece)
                if k:
                    for y in piece:
                        label(y, d, s + 1)
    return _Sweep(model, criticals, elems, log, prov, pv_slot, pv_rep, pe_slot, pe_rep,
                  num[("v", model.p_vertex)])


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """Smooth (G, p) at scale eps: a finite number >= 0."""
    (model, criticals, elems, log, prov, pv_slot, pv_rep, pe_slot, pe_rep,
     base) = _sweep(G, p, eps)
    pv_level = [criticals[s // 2] for s in pv_slot]
    pe_ends = [(prov[s - 1][_comp_at(log[x], s - 1)], prov[s + 1][_comp_at(log[x], s + 1)])
               for s, x in zip(pe_slot, pe_rep)]

    # pass-through vertices (one edge below, one above) dissolve; the rest
    # are the vertices of S, named in sweep order
    down: List[List[int]] = [[] for _ in pv_slot]
    up: List[List[int]] = [[] for _ in pv_slot]
    for j, (bot, top) in enumerate(pe_ends):
        up[bot].append(j)
        down[top].append(j)
    kept = [i for i in range(len(pv_slot)) if len(down[i]) != 1 or len(up[i]) != 1]
    vname = {i: f"n{k}" for k, i in enumerate(kept)}

    # each S edge is a chain of provisional edges through dissolved
    # vertices, named in the sweep order of its lowest one
    edges: List[Tuple[str, str, str, float]] = []
    pe_name: List[str] = [""] * len(pe_ends)
    for j, (bot, top) in enumerate(pe_ends):
        if bot not in vname:
            continue
        name = f"s{len(edges)}"
        pe_name[j] = name
        while top not in vname:
            nxt = up[top][0]
            pe_name[nxt] = name
            top = pe_ends[nxt][1]
        edges.append((name, vname[bot], vname[top], pv_level[top] - pv_level[bot]))
    pv_name = [vname[i] if i in vname else pe_name[down[i][0]]
               for i in range(len(pv_slot))]

    names = tuple({c: (pe_name if s % 2 else pv_name)[i] for c, i in at.items()}
                  for s, at in enumerate(prov))
    rep = {(vname[i], pv_slot[i]): elems[pv_rep[i]] for i in kept}
    rep.update(((pe_name[j], s), elems[x]) for j, (s, x) in enumerate(zip(pe_slot, pe_rep)))

    return SmoothedGraph(
        graph=MetricGraph([vname[i] for i in kept], edges),
        level={vname[i]: pv_level[i] for i in kept},
        base_class=names[0][_comp_at(log[base], 0)], eps=eps,
        _source=G, _model=model, _criticals=tuple(criticals),
        _log=dict(zip(elems, log)), _names=names, _rep=rep,
    )


def _locate(S: SmoothedGraph, x: GraphPoint) -> GraphPoint:
    """Class of (x, 0) in the quotient, as a point of S.graph."""
    model = S._model
    mp = _to_model_point(model, S._source.canonical(x))
    lvl = _model_f(model, mp)
    crit = S._criticals

    # snap to the first critical level within the merge gap, else take the
    # open interval that holds lvl
    gap = 100.0 * model.graph._tol
    k = bisect_left(crit, lvl)
    if k > 0 and abs(lvl - crit[k - 1]) <= gap:
        s = 2 * k - 2
    elif k < len(crit) and abs(lvl - crit[k]) <= gap:
        s = 2 * k
    else:
        s = 2 * k - 1
    # a point of a model element snaps no lower than the element's first
    # slot and no higher than its last, so the lookup cannot miss
    elem: _Elem = ("v", mp.vertex) if mp.is_vertex() else ("e", mp.edge)
    name = _class(S, s, elem)
    if name in S.level:
        return GraphPoint(vertex=name)
    t = crit[s // 2] if s % 2 == 0 else lvl
    return S.graph.canonical(
        GraphPoint(edge=name, offset=t - S.level[S.graph.edge(name).u]))


def _represent(S: SmoothedGraph, sigma: GraphPoint) -> GraphPoint:
    """A point x of the source graph whose column {x} x [0, eps] meets the
    class sigma."""
    model = S._model
    f = model.f
    cs = S.graph.canonical(sigma)
    crit = S._criticals
    if cs.is_vertex():
        lvl = S.level[cs.vertex]
        elem = S._rep[(cs.vertex, 2 * bisect_left(crit, lvl))]
    else:
        lvl = S.level[S.graph.edge(cs.edge).u] + cs.offset
        # the first interval whose closure, widened by the tolerance that
        # put cs inside its edge, holds lvl
        elem = S._rep[(cs.edge, 2 * bisect_left(crit, lvl - S.graph._tol) - 1)]
    if elem[0] == "v":
        return _from_model_point(model, GraphPoint(vertex=elem[1]))
    e = model.graph.edge(elem[1])
    lo, hi = min(f[e.u], f[e.v]), max(f[e.u], f[e.v])
    target = min(hi, lvl)
    target = max(target, lo)
    off = target - f[e.u] if f[e.v] >= f[e.u] else f[e.u] - target
    return _from_model_point(model, model.graph.canonical(
        GraphPoint(edge=e.id, offset=off)))


def smoothed_distance(S: SmoothedGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Shortest-path distance between two classes of the smoothing."""
    return distance(S.graph, x, y)


def betti_after_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> int:
    """First Betti number of the smoothing of (G, p) at scale eps, read
    from the sweep without assembling S: (provisional edges) -
    (provisional vertices) + 1, which dissolving the pass-through vertices
    keeps."""
    sweep = _sweep(G, p, eps)
    return len(sweep.pe_slot) - len(sweep.pv_slot) + 1


def quotient_correspondence(G: MetricGraph, S: SmoothedGraph, mesh: float) -> Correspondence:
    """Correspondence between nets of G and of its smoothing S, pairing each
    source net point with its class and each smoothed net point with a
    representative column. Errors on mismatched provenance."""
    if S._source is not G:
        raise ValueError("mismatched provenance: the smoothing was not built from this graph")
    check_positive("mesh", mesh)
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    DX = finite_metric(G, left)
    DY = finite_metric(S.graph, right)
    pairs = tuple((i, i) for i in range(len(left)))
    return Correspondence(left=tuple(left), right=tuple(right),
                          DX=DX, DY=DY, pairs=pairs)

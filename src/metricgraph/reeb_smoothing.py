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

Levels run from 0 to max f + eps: the quotient keeps growing above the
highest point of G, which contributes a hanging tail.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _from_model_point,
    _model_f,
    _monotone_model,
    _to_model_point,
    distance,
    epsilon_net,
    finite_metric,
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
    # slot -> model element in the band -> the S vertex or S edge holding
    # its class
    _name_of: Tuple[Dict[_Elem, str], ...] = field(repr=False)
    # (S vertex, its slot) or (S edge, odd slot) -> smallest model element
    # of that class
    _rep: Dict[Tuple[str, int], _Elem] = field(repr=False)

    def to_json_obj(self) -> dict:
        from .metric_graph import graph_to_json_obj
        obj = graph_to_json_obj(self.graph)
        obj["level"] = {v: self.level[v] for v in sorted(self.level)}
        obj["base"] = self.base_class
        return obj


def _band_components(adj: Dict[_Elem, Tuple[_Elem, ...]], band: Set[_Elem],
                     base: int) -> Tuple[Dict[_Elem, int], List[_Elem]]:
    """Components of a band of model elements, where ``adj`` links each
    edge to its two ends: an edge joins the components of its in-band ends.
    Returns each element's component, numbered from ``base`` in the order
    of their smallest elements, and those smallest elements."""
    comp: Dict[_Elem, int] = {}
    first: List[_Elem] = []
    for x in sorted(band):
        if x in comp:
            continue
        c = comp[x] = base + len(first)
        first.append(x)
        stack = [x]
        while stack:
            for y in adj[stack.pop()]:
                if y in band and y not in comp:
                    comp[y] = c
                    stack.append(y)
    return comp, first


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """Smooth (G, p) at scale eps >= 0."""
    if not eps >= 0:
        raise ValueError("eps must be >= 0")
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

    enter: List[List[_Elem]] = [[] for _ in range(n_slots)]
    leave: List[List[_Elem]] = [[] for _ in range(n_slots)]
    for v in H.vertices:
        enter[slot[f[v]]].append(("v", v))
        leave[slot[f[v] + eps]].append(("v", v))
    adj: Dict[_Elem, Tuple[_Elem, ...]] = {
        ("v", v): tuple(("e", eid) for eid in H.incident(v)) for v in H.vertices}
    for e in H.edges:
        lo, hi = sorted((f[e.u], f[e.v]))
        enter[slot[lo]].append(("e", e.id))
        leave[slot[hi + eps]].append(("e", e.id))
        adj[("e", e.id)] = (("v", e.u), ("v", e.v))

    # provisional vertices (even slots) and edges (odd slots), numbered in
    # sweep order: each one's slot and smallest element, and per slot the
    # provisional id of every element in the band
    pv_slot: List[int] = []
    pv_rep: List[_Elem] = []
    pe_slot: List[int] = []
    pe_rep: List[_Elem] = []
    ids: List[Dict[_Elem, int]] = []
    band: Set[_Elem] = set()
    for s in range(n_slots):
        band.update(enter[s])
        at, reps = (pv_slot, pv_rep) if s % 2 == 0 else (pe_slot, pe_rep)
        comp, first = _band_components(adj, band, len(reps))
        at.extend([s] * len(first))
        reps.extend(first)
        ids.append(comp)
        band.difference_update(leave[s])
    pv_level = [criticals[s // 2] for s in pv_slot]
    pe_ends = [(ids[s - 1][x], ids[s + 1][x]) for s, x in zip(pe_slot, pe_rep)]

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

    name_of = tuple({x: (pe_name if s % 2 else pv_name)[i] for x, i in at.items()}
                    for s, at in enumerate(ids))
    rep = {(vname[i], pv_slot[i]): pv_rep[i] for i in kept}
    rep.update(((pe_name[j], s), x) for j, (s, x) in enumerate(zip(pe_slot, pe_rep)))

    return SmoothedGraph(
        graph=MetricGraph([vname[i] for i in kept], edges),
        level={vname[i]: pv_level[i] for i in kept},
        base_class=name_of[0][("v", model.p_vertex)], eps=eps,
        _source=G, _model=model, _criticals=tuple(criticals),
        _name_of=name_of, _rep=rep,
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
    name = S._name_of[s][elem]
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
    return epsilon_smoothing(G, p, eps).graph.betti1


def quotient_correspondence(G: MetricGraph, S: SmoothedGraph, mesh: float) -> Correspondence:
    """Correspondence between nets of G and of its smoothing S, pairing each
    source net point with its class and each smoothed net point with a
    representative column. Errors on mismatched provenance."""
    if S._source is not G:
        raise ValueError("mismatched provenance: the smoothing was not built from this graph")
    if not mesh > 0:
        raise ValueError("mesh must be > 0")
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    DX = finite_metric(G, left)
    DY = finite_metric(S.graph, right)
    pairs = tuple((i, i) for i in range(len(left)))
    return Correspondence(left=tuple(left), right=tuple(right),
                          DX=DX, DY=DY, pairs=pairs)

"""The epsilon-smoothing slot sweep that labels the whole band at every slot.

``epsilon_smoothing`` maps critical values to integer slots exactly as
``metricgraph.reeb_smoothing`` does, then recomputes the components of the
band from scratch at every slot (``_band_components``), numbering them in
the order of their smallest elements. It keeps the provisional id of every
(slot, band element) pair in ``_name_of``, and ``_locate`` reads it. The
incremental sweep in ``metricgraph.reeb_smoothing`` must give the same
quotient, the same representatives, the same class for every (slot, band
element) pair and the same correspondence.

Run as a script, it checks itself against the per-level oracle
``smoothing_levels`` and against the hand-computed levels of the decorated
12-cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from metricgraph.metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _from_model_point,
    _model_f,
    _monotone_model,
    _to_model_point,
    epsilon_net,
    finite_metric,
)

_Elem = Tuple[str, str]  # ("v", vertex) or ("e", edge id) of the model


@dataclass(frozen=True)
class SlotSmoothing:
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
        from metricgraph.metric_graph import graph_to_json_obj
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


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> SlotSmoothing:
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

    return SlotSmoothing(
        graph=MetricGraph([vname[i] for i in kept], edges),
        level={vname[i]: pv_level[i] for i in kept},
        base_class=name_of[0][("v", model.p_vertex)], eps=eps,
        _source=G, _model=model, _criticals=tuple(criticals),
        _name_of=name_of, _rep=rep,
    )


def _locate(S: SlotSmoothing, x: GraphPoint) -> GraphPoint:
    """Class of (x, 0) in the quotient, as a point of S.graph."""
    model = S._model
    mp = _to_model_point(model, S._source.canonical(x))
    lvl = _model_f(model, mp)
    crit = S._criticals
    gap = 100.0 * model.graph._tol
    k = bisect_left(crit, lvl)
    if k > 0 and abs(lvl - crit[k - 1]) <= gap:
        s = 2 * k - 2
    elif k < len(crit) and abs(lvl - crit[k]) <= gap:
        s = 2 * k
    else:
        s = 2 * k - 1
    elem: _Elem = ("v", mp.vertex) if mp.is_vertex() else ("e", mp.edge)
    name = S._name_of[s][elem]
    if name in S.level:
        return GraphPoint(vertex=name)
    t = crit[s // 2] if s % 2 == 0 else lvl
    return S.graph.canonical(
        GraphPoint(edge=name, offset=t - S.level[S.graph.edge(name).u]))


def _represent(S: SlotSmoothing, sigma: GraphPoint) -> GraphPoint:
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
        elem = S._rep[(cs.edge, 2 * bisect_left(crit, lvl - S.graph._tol) - 1)]
    if elem[0] == "v":
        return _from_model_point(model, GraphPoint(vertex=elem[1]))
    e = model.graph.edge(elem[1])
    lo, hi = min(f[e.u], f[e.v]), max(f[e.u], f[e.v])
    target = max(min(hi, lvl), lo)
    off = target - f[e.u] if f[e.v] >= f[e.u] else f[e.u] - target
    return _from_model_point(model, model.graph.canonical(
        GraphPoint(edge=e.id, offset=off)))


def correspondence_parts(G: MetricGraph, S: SlotSmoothing, mesh: float):
    """(left, right, DX, DY) as ``quotient_correspondence`` builds them."""
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    return left, right, finite_metric(G, left), finite_metric(S.graph, right)


if __name__ == "__main__":
    import smoothing_levels

    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    c12 = MetricGraph(["p", "a", "b", "q"],
                      [("stem", "p", "a", 2.0), ("c1", "a", "b", 6.0),
                       ("c2", "a", "b", 6.0), ("tail", "b", "q", 2.0)])
    for G, p in ((theta, GraphPoint(vertex="u")), (c12, GraphPoint(vertex="p")),
                 (c12, GraphPoint(edge="c1", offset=1.5))):
        for eps in (0.0, 0.7, 1.5, 2.0, 3.0, 5.9, 6.0):
            S = epsilon_smoothing(G, p, eps)
            T = smoothing_levels.epsilon_smoothing(G, p, eps)
            assert S.to_json_obj() == T.to_json_obj(), (p, eps)
            # each class's representative lies in it, and every class
            # named at a slot is an S vertex or S edge
            for (name, s), x in S._rep.items():
                assert S._name_of[s][x] == name, (p, eps, name, s)
            names = set(S.level) | {e.id for e in S.graph.edges}
            assert all(set(at.values()) <= names for at in S._name_of)
            parts = correspondence_parts(G, S, 0.5)
            want = smoothing_levels.correspondence_parts(G, T, 0.5)
            assert parts[:2] == want[:2] and all((a == b).all() for a, b in
                                                 zip(parts[2:], want[2:]))
            print(f"{p} eps={eps}: betti1={S.graph.betti1} "
                  f"levels={sorted(S.level.values())}")
    # decorated 12-cycle from p at eps = 2: the band splits for t in (4, 8)
    S = epsilon_smoothing(c12, GraphPoint(vertex="p"), 2.0)
    assert S.graph.betti1 == 1
    assert sorted(S.level.values()) == [0.0, 4.0, 8.0, 12.0]
    print("expected values: ok")

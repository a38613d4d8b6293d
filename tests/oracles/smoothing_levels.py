"""The earlier epsilon-smoothing, one float window per critical level.

``epsilon_smoothing`` recomputes the band {t - eps <= f <= t} from scratch at
every merged critical level t and at every interval midpoint, classifying
model elements against the window with the model graph's tolerance, and
merging critical values within 100 of those tolerances.
``_locate`` and ``_represent`` find classes by scanning the per-level
provenance lists. The slot sweep in ``metricgraph.reeb_smoothing`` must give
the same quotient and the same correspondence on generic inputs.

Run as a script, it checks itself against hand-computed smoothings of the
decorated 12-cycle and the theta graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
class LevelSmoothing:
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
    _crit_elems: Tuple[Dict[_Elem, int], ...] = field(repr=False)
    _int_elems: Tuple[Dict[_Elem, int], ...] = field(repr=False)
    _pv_final: Tuple[Tuple[str, str], ...] = field(repr=False)
    _pe_final: Tuple[str, ...] = field(repr=False)
    _edge_bottom: Dict[str, float] = field(repr=False)
    _pv_elems: Tuple[Tuple[_Elem, ...], ...] = field(repr=False)
    _pe_elems: Tuple[Tuple[_Elem, ...], ...] = field(repr=False)

    def to_json_obj(self) -> dict:
        from metricgraph.metric_graph import graph_to_json_obj
        obj = graph_to_json_obj(self.graph)
        obj["level"] = {v: self.level[v] for v in sorted(self.level)}
        obj["base"] = self.base_class
        return obj


def _band_components(model: MonotoneModel, lo: float, hi: float) -> Dict[_Elem, int]:
    """Components of the band {lo <= f <= hi}: elements are model vertices
    and model edges meeting the band; edges touch only through shared
    in-band vertices."""
    H, f = model.graph, model.f
    tol = H._tol
    elems: List[_Elem] = []
    for v in H.vertices:
        if lo - tol <= f[v] <= hi + tol:
            elems.append(("v", v))
    for e in H.edges:
        elo, ehi = min(f[e.u], f[e.v]), max(f[e.u], f[e.v])
        if elo <= hi + tol and ehi >= lo - tol:
            elems.append(("e", e.id))
    parent: Dict[_Elem, _Elem] = {x: x for x in elems}

    def find(x: _Elem) -> _Elem:
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for x in elems:
        if x[0] != "v":
            continue
        for eid in H.incident(x[1]):
            key = ("e", eid)
            if key in parent:
                ra, rb = find(x), find(key)
                if ra != rb:
                    parent[rb] = ra

    roots: Dict[_Elem, int] = {}
    comp: Dict[_Elem, int] = {}
    for x in sorted(elems):
        r = find(x)
        if r not in roots:
            roots[r] = len(roots)
        comp[x] = roots[r]
    return comp


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> LevelSmoothing:
    """Smooth (G, p) at scale eps >= 0."""
    if not eps >= 0:
        raise ValueError("eps must be >= 0")
    model = _monotone_model(G, p)
    f = model.f
    tol = model.graph._tol

    raw = sorted({x for v in model.graph.vertices for x in (f[v], f[v] + eps)})
    criticals: List[float] = []
    for x in raw:
        if not criticals or x - criticals[-1] > 100.0 * tol:
            criticals.append(x)
    K = len(criticals)

    crit_elems: List[Dict[_Elem, int]] = []
    pv_level: List[float] = []
    pv_elems: List[List[_Elem]] = []
    crit_base: List[int] = []  # provisional vertex id offset per level
    for k, c in enumerate(criticals):
        comp = _band_components(model, c - eps, c)
        base = len(pv_level)
        crit_base.append(base)
        ncomp = max(comp.values()) + 1 if comp else 0
        for _ in range(ncomp):
            pv_level.append(c)
            pv_elems.append([])
        for x in sorted(comp):
            comp[x] += base
            pv_elems[comp[x]].append(x)
        crit_elems.append(comp)

    int_elems: List[Dict[_Elem, int]] = []
    pe_ends: List[Tuple[int, int]] = []  # (bottom pv, top pv)
    pe_elems: List[List[_Elem]] = []
    for k in range(K - 1):
        mid = (criticals[k] + criticals[k + 1]) / 2.0
        comp = _band_components(model, mid - eps, mid)
        base = len(pe_ends)
        ncomp = max(comp.values()) + 1 if comp else 0
        reps: List[Optional[_Elem]] = [None] * ncomp
        for x in sorted(comp):
            if reps[comp[x]] is None:
                reps[comp[x]] = x
        for ci in range(ncomp):
            rep = reps[ci]
            bot = crit_elems[k].get(rep)
            top = crit_elems[k + 1].get(rep)
            if bot is None or top is None:
                raise AssertionError("interval component missing from a bounding band")
            pe_ends.append((bot, top))
            pe_elems.append([])
        for x in sorted(comp):
            comp[x] += base
            pe_elems[comp[x]].append(x)
        int_elems.append(comp)

    # collapse pass-through vertices (exactly one edge below, one above)
    down: Dict[int, List[int]] = {i: [] for i in range(len(pv_level))}
    up: Dict[int, List[int]] = {i: [] for i in range(len(pv_level))}
    for j, (bot, top) in enumerate(pe_ends):
        up[bot].append(j)
        down[top].append(j)
    dissolved = {i for i in range(len(pv_level))
                 if len(down[i]) == 1 and len(up[i]) == 1}

    chains: List[List[int]] = []
    chain_of: Dict[int, int] = {}
    for j in range(len(pe_ends)):
        if j in chain_of or pe_ends[j][0] in dissolved:
            continue
        chain = [j]
        chain_of[j] = len(chains)
        while pe_ends[chain[-1]][1] in dissolved:
            nxt = up[pe_ends[chain[-1]][1]][0]
            chain.append(nxt)
            chain_of[nxt] = len(chains)
        chains.append(chain)
    if len(chain_of) != len(pe_ends):
        raise AssertionError("edge chains left provisional edges unconsumed")

    kept = sorted((i for i in range(len(pv_level)) if i not in dissolved),
                  key=lambda i: (pv_level[i], i))
    vname = {i: f"n{k}" for k, i in enumerate(kept)}
    verts = [vname[i] for i in kept]
    level = {vname[i]: pv_level[i] for i in kept}

    edges: List[Tuple[str, str, str, float]] = []
    ename: List[str] = []
    edge_bottom: Dict[str, float] = {}
    chains_sorted = sorted(range(len(chains)),
                           key=lambda c: (pv_level[pe_ends[chains[c][0]][0]], chains[c][0]))
    chain_name: Dict[int, str] = {}
    for k, c in enumerate(chains_sorted):
        ch = chains[c]
        bot, top = pe_ends[ch[0]][0], pe_ends[ch[-1]][1]
        name = f"s{k}"
        chain_name[c] = name
        lo, hi = pv_level[bot], pv_level[top]
        if hi - lo <= tol:
            raise AssertionError("zero-length smoothed edge")
        edges.append((name, vname[bot], vname[top], hi - lo))
        edge_bottom[name] = lo
    pe_final = [chain_name[chain_of[j]] for j in range(len(pe_ends))]

    pv_final: List[Tuple[str, str]] = []
    for i in range(len(pv_level)):
        if i in dissolved:
            pv_final.append(("e", pe_final[down[i][0]]))
        else:
            pv_final.append(("v", vname[i]))

    S = MetricGraph(verts, edges)
    base_pv = crit_elems[0][("v", model.p_vertex)]
    base = vname[base_pv]

    return LevelSmoothing(
        graph=S, level=level, base_class=base, eps=eps,
        _source=G, _model=model, _criticals=tuple(criticals),
        _crit_elems=tuple(crit_elems), _int_elems=tuple(int_elems),
        _pv_final=tuple(pv_final), _pe_final=tuple(pe_final),
        _edge_bottom=edge_bottom,
        _pv_elems=tuple(tuple(x) for x in pv_elems),
        _pe_elems=tuple(tuple(x) for x in pe_elems),
    )


def _locate(S: LevelSmoothing, x: GraphPoint) -> GraphPoint:
    """Class of (x, 0) in the quotient, as a point of S.graph."""
    model = S._model
    mp = _to_model_point(model, S._source.canonical(x))
    lvl = _model_f(model, mp)
    crit = S._criticals

    snap = None
    for k, c in enumerate(crit):
        if abs(lvl - c) <= 100.0 * model.graph._tol:
            snap = k
            break
    elem: _Elem = ("v", mp.vertex) if mp.is_vertex() else ("e", mp.edge)
    if snap is not None:
        pv = S._crit_elems[snap][elem]
        kind, ref = S._pv_final[pv]
        if kind == "v":
            return GraphPoint(vertex=ref)
        return S.graph.canonical(
            GraphPoint(edge=ref, offset=crit[snap] - S._edge_bottom[ref]))
    k = 0
    while k < len(crit) - 1 and not (crit[k] < lvl < crit[k + 1]):
        k += 1
    pe = S._int_elems[k][elem]
    name = S._pe_final[pe]
    return S.graph.canonical(
        GraphPoint(edge=name, offset=lvl - S._edge_bottom[name]))


def _represent(S: LevelSmoothing, sigma: GraphPoint) -> GraphPoint:
    """A point x of the source graph whose column {x} x [0, eps] meets the
    class sigma."""
    model = S._model
    f = model.f
    cs = S.graph.canonical(sigma)
    if cs.is_vertex():
        lvl = S.level[cs.vertex]
        pv = next(i for i, (kind, ref) in enumerate(S._pv_final)
                  if kind == "v" and ref == cs.vertex)
        elems = S._pv_elems[pv]
    else:
        lvl = S._edge_bottom[cs.edge] + cs.offset
        crit = S._criticals
        tol = S.graph._tol
        k = 0
        while k < len(crit) - 1 and not (crit[k] - tol <= lvl <= crit[k + 1] + tol):
            k += 1
        pe = next(j for j, name in enumerate(S._pe_final)
                  if name == cs.edge and S._int_elems[k].get(S._pe_elems[j][0]) == j)
        elems = S._pe_elems[pe]
    elem = elems[0]
    if elem[0] == "v":
        return _from_model_point(model, GraphPoint(vertex=elem[1]))
    e = model.graph.edge(elem[1])
    lo, hi = min(f[e.u], f[e.v]), max(f[e.u], f[e.v])
    target = min(hi, lvl)
    target = max(target, lo)
    off = target - f[e.u] if f[e.v] >= f[e.u] else f[e.u] - target
    return _from_model_point(model, model.graph.canonical(
        GraphPoint(edge=e.id, offset=off)))


def correspondence_parts(G: MetricGraph, S: LevelSmoothing, mesh: float):
    """(left, right, DX, DY) as ``quotient_correspondence`` builds them."""
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    return left, right, finite_metric(G, left), finite_metric(S.graph, right)


if __name__ == "__main__":
    # the decorated 12-cycle from p: f is 0 at p, 2 at a, rises along both
    # strands of the 12-cycle to 8 at b, and is 10 at q
    c12 = MetricGraph(["p", "a", "b", "q"],
                      [("stem", "p", "a", 2.0), ("c1", "a", "b", 6.0),
                       ("c2", "a", "b", 6.0), ("tail", "b", "q", 2.0)])
    p = GraphPoint(vertex="p")
    # eps = 2: the band [t - 2, t] holds a up to t = 4 and b from t = 8, so
    # it splits in two for t in (4, 8); it is born at 0 and dies at
    # max f + eps = 12, and the pass-throughs at 2 and 10 dissolve
    S = epsilon_smoothing(c12, p, 2.0)
    assert S.graph.betti1 == 1
    assert sorted(S.level.values()) == [0.0, 4.0, 8.0, 12.0]
    assert sorted(e.length for e in S.graph.edges) == [4.0, 4.0, 4.0, 4.0]
    assert S.level[S.base_class] == 0.0
    # eps = 6: the band holds a up to t = 8 and b from t = 8, so it never
    # splits, and S is one segment from 0 to 16
    S = epsilon_smoothing(c12, p, 6.0)
    assert S.graph.betti1 == 0
    assert sorted(S.level.values()) == [0.0, 16.0]
    # the theta graph (lengths 1, 2, 3) from u at eps = 0 is G itself cut at
    # v (f = 1) and the far points of the 2- and 3-edges (f = 1.5 and 2):
    # three edges up from u of lengths 1, 1.5 and 2, two up from v of
    # lengths 0.5 and 1
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    S = epsilon_smoothing(theta, GraphPoint(vertex="u"), 0.0)
    assert S.graph.betti1 == 2
    assert sorted(S.level.values()) == [0.0, 1.0, 1.5, 2.0]
    assert sorted(e.length for e in S.graph.edges) == [0.5, 1.0, 1.0, 1.5, 2.0]
    print("expected values: ok")

"""Computation of the paper's graph parameters.

Section 2 evaluates running times against *non-decreasing
graph-parameters*; the ones the paper uses are:

* ``n`` — number of nodes;
* ``Δ`` — maximum degree;
* ``m`` — largest identity (Section 5.2 treats identities as colors);
* ``a`` — arboricity.

For arboricity we compute the *density arboricity*
``⌈max_H |E(H)| / |V(H)|⌉``.  It sandwiches the Nash–Williams
arboricity (``density ≤ a_NW ≤ min(density + 1, degeneracy)``,
``degeneracy ≤ 2·density``), is non-decreasing under subgraphs, and is
the quantity our peeling procedures are analysed against (every
subgraph has average degree at most twice it).

By Hakimi's theorem it equals the *pseudoarboricity*, the least maximum
indegree over all orientations of the edges.  The run path
(:func:`density_arboricity`) computes it that way: it improves an
orientation by reversing paths (:func:`pseudoarboricity`) and stops at
an optimum certified by a dense node set.  Two exact test oracles are
kept beside it: :func:`max_density` (Goldberg's max-flow reduction,
exact ``Fraction``) and :func:`nash_williams_exact` (brute force on tiny
graphs).  Nothing on the run path calls them.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from fractions import Fraction

import networkx as nx

from ..mathutils import int_ceil_div


def degeneracy(graph):
    """Exact degeneracy via min-degree peeling (0 for edgeless graphs)."""
    if graph.number_of_edges() == 0:
        return 0
    cores = nx.core_number(graph)
    return max(cores.values())


def max_density(graph):
    """Exact maximum subgraph density ``max_H m_H / n_H`` as a Fraction.

    Test oracle for :func:`density_arboricity`; nothing on the run path
    calls it.  Implements Goldberg's reduction: for a guessed density
    ``g`` the max-flow in an auxiliary network reveals whether some
    subgraph beats ``g``.  Distinct achievable densities are rationals
    with denominator ≤ n, so a binary search to precision ``1/n²``
    isolates the optimum, recovered with ``Fraction.limit_denominator``.
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if m == 0:
        return Fraction(0)

    def beats(g):
        """True iff some subgraph has density strictly above ``g``."""
        den = g.denominator
        num = g.numerator
        flow_net = nx.DiGraph()
        source, sink = ("s",), ("t",)
        for idx, (u, v) in enumerate(graph.edges()):
            e = ("e", idx)
            flow_net.add_edge(source, e, capacity=den)
            flow_net.add_edge(e, ("v", u), capacity=m * den + 1)
            flow_net.add_edge(e, ("v", v), capacity=m * den + 1)
        for u in graph.nodes():
            flow_net.add_edge(("v", u), sink, capacity=num)
        value = nx.maximum_flow_value(flow_net, source, sink)
        return value < m * den

    lo = Fraction(m, n)  # whole graph is a witness
    hi = Fraction(n, 2)  # density can never exceed (n-1)/2
    if not beats(lo):
        # The whole graph is already densest (common for regular graphs);
        # lo is achievable and nothing beats it.
        return lo
    precision = Fraction(1, 2 * n * n)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if beats(mid):
            lo = mid
        else:
            hi = mid
    # The optimum is the unique rational with denominator ≤ n in (lo, hi].
    candidate = ((lo + hi) / 2).limit_denominator(n)
    if candidate <= lo:
        candidate = hi.limit_denominator(n)
    return candidate


Orientation = namedtuple("Orientation", "indegree arcs witness")
Orientation.__doc__ = """A least-max-indegree orientation and its certificate.

``arcs`` lists every edge once as ``(tail, head)``; no node is the head
of more than ``indegree`` arcs.  ``witness`` is a node set spanning more
than ``(indegree - 1)·|witness|`` edges, so no orientation of the graph
has a smaller maximum indegree.
"""


def _peeling_orientation(n, ends):
    """Heads and tails orienting each edge into its earlier-peeled end.

    Min-degree peeling: a node removed with ``d`` edges left to the
    remaining nodes receives exactly those ``d``, so no indegree exceeds
    the degeneracy, which is already within twice the optimum.
    """
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(ends):
        incident[u].append(e)
        incident[v].append(e)
    degree = [len(edges) for edges in incident]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    removed = [False] * n
    head = [-1] * len(ends)
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue  # stale entry
        removed[v] = True
        for e in incident[v]:
            if head[e] < 0:
                head[e] = v
                u, w = ends[e]
                other = u + w - v
                degree[other] -= 1
                heapq.heappush(heap, (degree[other], other))
    tail = [u + w - h for (u, w), h in zip(ends, head)]
    return tail, head


def pseudoarboricity(graph):
    """An orientation of least maximum indegree (:class:`Orientation`).

    Starts from the peeling orientation.  Each phase searches backwards
    along in-arcs, breadth first, from every node of maximum indegree
    ``D`` at once, then reverses every recorded path that still leads
    from a node of indegree at most ``D − 2`` to a node still at ``D``.
    A reversal lowers that node to ``D − 1`` and raises the other end by
    one, leaving every node between unchanged, so each phase that finds
    a path has fewer nodes at ``D`` (or a smaller ``D``).  A phase that
    finds none has closed a node set ``S`` under in-arcs in which every
    node has indegree ``D − 1`` or ``D`` and some node has ``D``, so
    ``m_S > (D − 1)|S|``: ``D`` is optimal and ``S`` is the witness.
    """
    nodes = list(graph)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    ends = [(index[u], index[v]) for u, v in graph.edges()]
    tail, head = _peeling_orientation(n, ends)
    into = [set() for _ in range(n)]  # in-arcs by edge id, kept current
    for e, h in enumerate(head):
        into[h].add(e)
    indegree = [len(arcs) for arcs in into]
    top = max(indegree, default=0)
    while True:
        # Breadth-first search against arc direction; reached[u] is the
        # arc u entered the search by (None at the sources).
        order = [v for v in range(n) if indegree[v] == top]
        reached = dict.fromkeys(order)
        targets = []
        for v in order:
            for e in into[v]:
                u = tail[e]
                if u not in reached:
                    reached[u] = e
                    order.append(u)
                    if indegree[u] <= top - 2:
                        targets.append(u)
        if not targets:
            arcs = [(nodes[t], nodes[h]) for t, h in zip(tail, head)]
            return Orientation(top, arcs, {nodes[v] for v in order})
        for start in targets:
            path, v = [], start
            while reached[v] is not None and tail[reached[v]] == v:
                path.append(reached[v])
                v = head[reached[v]]
            if reached[v] is not None or indegree[v] != top:
                continue  # an earlier reversal broke this path
            for e in path:
                into[head[e]].remove(e)
                tail[e], head[e] = head[e], tail[e]
                into[head[e]].add(e)
            indegree[start] += 1
            indegree[v] -= 1
        top = max(indegree)


def density_arboricity(graph):
    """``max(1, ⌈max_density⌉)`` — the library's arboricity parameter ``a``.

    Computed as the pseudoarboricity (:func:`pseudoarboricity`), which
    equals ``⌈max_density⌉`` by Hakimi's theorem; :func:`max_density`
    is its test oracle.  Within [a_NW − 1, a_NW] of the Nash–Williams
    arboricity and non-decreasing under subgraphs; all peeling
    thresholds in :mod:`repro.algorithms.arboricity` are stated against
    it.
    """
    return max(1, pseudoarboricity(graph).indegree)


def nash_williams_exact(graph, max_nodes=14):
    """Exact Nash–Williams arboricity by brute force (test oracle only).

    ``max over subgraphs H of ⌈m_H / (n_H - 1)⌉``; exponential in n, so
    guarded by ``max_nodes``.
    """
    n = graph.number_of_nodes()
    if n > max_nodes:
        raise ValueError(f"brute force limited to {max_nodes} nodes")
    if graph.number_of_edges() == 0:
        return 0
    nodes = list(graph.nodes())
    best = 1
    for size in range(2, n + 1):
        for subset in itertools.combinations(nodes, size):
            sub = graph.subgraph(subset)
            m_h = sub.number_of_edges()
            if m_h:
                best = max(best, int_ceil_div(m_h, size - 1))
    return best


def arboricity_bounds(graph):
    """Certified (lower, upper) bounds on Nash–Williams arboricity.

    ``⌈density⌉ ≤ a_NW ≤ degeneracy`` (a d-degenerate graph's peeling
    order orients edges into d forests).
    """
    lower = density_arboricity(graph) if graph.number_of_edges() else 0
    upper = degeneracy(graph)
    return max(lower, min(1, upper)), max(upper, lower)


def graph_parameters(sim_graph, *, with_arboricity=True):
    """All paper parameters of a :class:`~repro.local.graph.SimGraph`."""
    params = {
        "n": sim_graph.n,
        "Delta": sim_graph.max_degree,
        "m": sim_graph.max_ident,
    }
    if with_arboricity:
        params["a"] = density_arboricity(sim_graph.to_networkx())
    return params

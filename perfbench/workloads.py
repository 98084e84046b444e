"""The benchmark's workloads: set-up, request stream and output checks.

Every input of a workload — graphs, request order, request seeds,
deltas — is drawn from one ``random.Random`` seeded by the workload
name and the ``--seed`` argument, so a seed fixes the whole stream
(``random.Random`` seeds string arguments through SHA-512, so the
stream is the same in every process).  The program receives only the
generated inputs.

A workload object has:

* ``setup(seed)`` -> ``(state, phases)``: build the inputs the first
  request needs; ``phases`` maps a set-up layer name to its seconds;
* ``requests(state)``: an endless iterator of :class:`Request`;
* ``close(state)``: release what ``setup`` acquired;
* ``cycle``: the request count of one pass over the stream's kinds (a
  run stops only at a whole cycle, so every run has the same mix);
* ``min_requests``: the fewest requests an untraced run makes, and the
  exact request count of each phase of a traced run (a whole number of
  cycles).
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.algorithms.luby import luby_mis
from repro.algorithms.registry import TABLE1
from repro.bench import WORKLOADS, measure_row
from repro.graphs import identifiers
from repro.local import GraphDelta, SimGraph, open_session
from repro.problems.mis import MIS

from .checks import digest, mis_violations, output_digest


class Request:
    """One request of a stream.

    ``call()`` is the timed work.  ``fingerprint(result)`` returns
    ``[rounds, messages, digest]``; ``verify(result)`` checks the output
    from scratch, and ``exact(result)`` checks it with the program's own
    verifier (the same check when ``exact`` is not given).
    """

    __slots__ = ("kind", "call", "fingerprint", "verify", "exact")

    def __init__(self, kind, call, fingerprint, verify, exact=None):
        self.kind = kind
        self.call = call
        self.fingerprint = fingerprint
        self.verify = verify
        self.exact = exact or verify


def _stream_rng(name, seed):
    return random.Random(f"perfbench/{name}/{seed}")


def build_graph(family, n, seed, phases):
    """Generate, identify, build and compile one graph, timing each step."""
    t0 = perf_counter()
    nxg = WORKLOADS[family](n, seed=seed)
    t1 = perf_counter()
    idents = identifiers.poly_idents(nxg, seed=seed)
    t2 = perf_counter()
    graph = SimGraph.from_networkx(nxg, idents=idents)
    t3 = perf_counter()
    graph.compiled()
    t4 = perf_counter()
    for layer, seconds in (
        ("graphs.generate_s", t1 - t0),
        ("graphs.idents_s", t2 - t1),
        ("local.graph.build_s", t3 - t2),
        ("local.engine.compile_s", t4 - t3),
    ):
        phases[layer] = phases.get(layer, 0.0) + seconds
    return nxg, graph


def _mis_fingerprint(answer):
    graph, result = answer
    return [
        result.rounds,
        getattr(result, "messages", None),
        output_digest(graph, result.outputs),
    ]


def _mis_verify(answer):
    graph, result = answer
    return mis_violations(graph, result.outputs) == 0


def _mis_exact(answer):
    graph, result = answer
    return MIS.is_solution(graph, {}, result.outputs)


class Table1Sweep:
    """``measure_row`` over every Table-1 row on fresh graphs of five families.

    One cycle ("sweep") builds one graph per family from the stream and
    issues one request per (row, graph), each with its own seed.  Graph
    building between sweeps is client work, outside request time; the
    first sweep's graphs are the workload's set-up.
    """

    name = "table1-sweep"
    why = (
        "the reproduction's own Table-1 traffic: oracle parameters, "
        "alternations, the virtual layer (matching) and the verifiers"
    )
    families = ("gnp-sparse", "regular-8", "tree", "udg", "star-noise")
    rows = tuple(TABLE1)
    n = 80
    cycle = len(families) * len(rows)
    # From 7 sweeps on the tail falls among the udg mis-arb cells, below
    # that among the gnp-sparse ones (README, "Why these lengths").
    min_requests = 8 * cycle

    def _graph_set(self, rng, phases):
        graphs = []
        for family in self.families:
            _, graph = build_graph(family, self.n, rng.randrange(2**31), phases)
            graphs.append((f"{family}-n{graph.n}", graph))
        return graphs

    def setup(self, seed):
        rng = _stream_rng(self.name, seed)
        phases = {}
        graphs = self._graph_set(rng, phases)
        return {"rng": rng, "graphs": graphs}, phases

    def requests(self, state):
        rng = state["rng"]
        graphs = state.pop("graphs")
        while True:
            for label, graph in graphs:
                for row_id in self.rows:
                    yield self._request(
                        TABLE1[row_id], label, graph, rng.randrange(2**31)
                    )
            graphs = self._graph_set(rng, {})

    @staticmethod
    def _request(row, label, graph, seed):
        def call():
            return measure_row(row, label, graph, seed=seed)

        def fingerprint(meas):
            return [
                meas.nonuniform_rounds + meas.uniform_rounds,
                None,
                digest([
                    row.row_id, meas.label, meas.n, meas.delta,
                    sorted(meas.params.items()), meas.nonuniform_rounds,
                    meas.nonuniform_ok, meas.uniform_rounds, meas.uniform_ok,
                    meas.steps,
                ]),
            ]

        def verify(meas):
            return bool(meas.nonuniform_ok and meas.uniform_ok)

        return Request(row.row_id, call, fingerprint, verify)

    def close(self, state):
        pass


class EdgeModel:
    """The client's copy of the live edge set, for drawing valid deltas."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = [(min(u, v), max(u, v)) for u, v in edges]
        self.where = {e: i for i, e in enumerate(self.edges)}

    def _remove(self, edge):
        i = self.where.pop(edge)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.where[last] = i

    def draw(self, rng, deletes, inserts):
        """Pick a delta of existing-edge deletes and new-edge inserts and
        apply it to the model; returns ``(del_edges, add_edges)``."""
        dels = [self.edges[i] for i in rng.sample(range(len(self.edges)), deletes)]
        taken = set(dels)
        adds = []
        while len(adds) < inserts:
            u, v = rng.sample(range(self.n), 2)
            edge = (min(u, v), max(u, v))
            if edge in self.where or edge in taken:
                continue
            taken.add(edge)
            adds.append(edge)
        for edge in dels:
            self._remove(edge)
        for edge in adds:
            self.where[edge] = len(self.edges)
            self.edges.append(edge)
        return dels, adds


class SessionChurn:
    """Edge churn on a live session: mutate(4 deletes + 4 inserts), rerun Luby."""

    name = "session-churn"
    why = (
        "CSR writes (apply_delta) beside reads (rerun after invalidation) "
        "on one live session at n=2*10^4"
    )
    n = 20_000
    churn = 4
    cycle = 1
    # Below about 500 requests the tail stays clear of the requests that a
    # cyclic garbage collection lands in (README, "Why these lengths").
    min_requests = 400

    def setup(self, seed):
        rng = _stream_rng(self.name, seed)
        phases = {}
        nxg, graph = build_graph("regular-8", self.n, rng.randrange(2**31), phases)
        model = EdgeModel(graph.n, nxg.edges())
        t0 = perf_counter()
        session = open_session(graph)
        phases["local.service.open_s"] = perf_counter() - t0
        return {"rng": rng, "session": session, "model": model}, phases

    def requests(self, state):
        rng, session, model = state["rng"], state["session"], state["model"]
        while True:
            dels, adds = model.draw(rng, self.churn, self.churn)
            delta = GraphDelta(add_edges=adds, del_edges=dels)
            seed = rng.randrange(2**31)

            def call(delta=delta, seed=seed):
                session.mutate(delta)
                return session.graph, session.rerun(luby_mis(), seed=seed)

            yield Request(
                "mutate+rerun", call, _mis_fingerprint, _mis_verify, _mis_exact
            )

    def close(self, state):
        state["session"].close()


REGISTRY = {w.name: w for w in (Table1Sweep(), SessionChurn())}

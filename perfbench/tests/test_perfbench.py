"""Tests of the benchmark's own logic (not of the simulator).

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import random

import networkx as nx

from perfbench import bench, trace
from perfbench.checks import mis_violations
from perfbench.loop import TAIL_BEYOND, closed_loop, percentile, tail_percentile
from perfbench.workloads import EdgeModel, Request
from repro.local import GraphDelta, SimGraph
from repro.problems.mis import MIS


# -- tail percentile ------------------------------------------------------


def test_tail_percentile_has_ten_beyond_and_is_highest():
    for n in range(1, 400):
        samples = list(range(n))
        pct = tail_percentile(n)
        if n <= TAIL_BEYOND:
            assert pct is None
            continue
        beyond = sum(1 for s in samples if s > percentile(samples, pct))
        assert beyond >= TAIL_BEYOND, n
        if pct < 99:
            above = percentile(samples, pct + 1)
            assert sum(1 for s in samples if s > above) < TAIL_BEYOND, n


def test_tail_percentile_known_values():
    assert tail_percentile(40) == 75
    assert tail_percentile(45) == 77
    assert tail_percentile(1000) == 99


# -- failure accounting ---------------------------------------------------


def _request(kind, value, *, raises=False, valid=True):
    def call():
        if raises:
            raise RuntimeError("boom")
        return value

    return Request(kind, call, lambda v: [v, None, f"d{v}"], lambda v: valid)


def test_fail_frac_counts_raised_error_and_digest_mismatch():
    stream = iter([
        _request("a", 1),
        _request("a", 2, raises=True),
        _request("a", 3),
        _request("a", 4),
    ])
    expected = [[1, None, "d1"], [2, None, "d2"], [3, None, "WRONG"]]
    result = closed_loop(
        stream, seconds=0, cycle=1, min_requests=4, expected=expected
    )
    assert result.attempted == 4
    assert result.failed == 2
    assert result.summary()["fail_frac"] == 0.5
    assert len(result.errors) == 2
    assert "boom" in result.errors[0]
    assert "WRONG" in result.errors[1]


def test_recorded_and_unrecorded_requests_are_verified_from_scratch():
    stream = iter([
        _request("a", 1, valid=False),
        _request("a", 2, valid=False),
        _request("a", 3),
    ])
    expected = [[1, None, "d1"]]  # request 0 matches its record
    result = closed_loop(stream, seconds=0, cycle=1, min_requests=3,
                         expected=expected)
    assert (result.attempted, result.failed) == (3, 2)


def test_loop_stops_only_at_whole_cycles():
    stream = iter([_request("a", i) for i in range(10)])
    result = closed_loop(stream, seconds=0, cycle=3, min_requests=4, expected=[])
    assert result.attempted == 6


# -- wrappers -------------------------------------------------------------


def _current(module_name, owner_name, attr):
    target = trace._target(module_name, owner_name)
    if owner_name is None:
        return getattr(target, attr)
    return target.__dict__[attr]


def installed_wrappers():
    """Attributes of ``trace.LAYERS`` that currently hold a span wrapper."""
    return [
        f"{m}.{o or ''}.{a}"
        for m, o, a, _, _ in trace.LAYERS
        if hasattr(_current(m, o, a), "perfbench_layer")
    ]


def test_traced_run_restores_every_wrapped_function():
    before = [_current(m, o, a) for m, o, a, _, _ in trace.LAYERS]
    undo = trace.install(trace.Tracer())
    try:
        assert len(installed_wrappers()) == len(trace.LAYERS)
    finally:
        trace.restore(undo)
    after = [_current(m, o, a) for m, o, a, _, _ in trace.LAYERS]
    assert all(x is y for x, y in zip(before, after))
    assert installed_wrappers() == []


def test_wrapper_times_and_counts_outermost_call_and_tracks_coverage():
    tracer = trace.Tracer()

    def inner(k):
        return k if k == 0 else wrapped(k - 1)

    wrapped = tracer.wrap(inner, "layer")
    assert wrapped(3) == 0
    assert wrapped(0) == 0
    assert tracer.calls["layer"] == 2
    assert 0 < tracer.seconds["layer"] <= tracer.covered()


class _FakeWorkload:
    """Instant workload whose requests and checks report the wrappers
    they see."""

    name = "fake-workload"
    cycle = 1
    min_requests = 3

    def __init__(self):
        self.seen = []
        self.seen_by_checks = []

    def _verify(self, value):
        self.seen_by_checks.append(installed_wrappers())
        return True

    def setup(self, seed):
        return {}, {}

    def requests(self, state):
        while True:
            yield Request(
                "probe",
                lambda: self.seen.append(installed_wrappers()) or 1,
                lambda v: [v, None, "x"],
                self._verify,
            )

    def close(self, state):
        pass


def test_untraced_run_installs_no_wrappers():
    workload = _FakeWorkload()
    result, metrics, _ = bench.run_untraced(workload, seed=0, seconds=0)
    assert result.failed == 0
    assert workload.seen and all(seen == [] for seen in workload.seen)
    assert set(metrics) == set(bench.END_TO_END)


def test_traced_run_wraps_only_its_traced_phase():
    workload = _FakeWorkload()
    result, metrics, _ = bench.run_traced(workload, seed=0, seconds=5)
    assert result.failed == 0
    # Each phase makes exactly min_requests requests, whatever --seconds.
    assert len(workload.seen) == result.attempted == 6
    plain, traced = workload.seen[:3], workload.seen[3:]
    assert all(seen == [] for seen in plain)
    assert all(len(seen) == len(trace.LAYERS) for seen in traced)
    # Only the untraced phase checks from scratch, with no wrapper installed.
    assert workload.seen_by_checks == [[], [], []]
    assert installed_wrappers() == []
    assert set(metrics) == set(bench.per_layer_units())
    assert metrics["trace.requests"]["value"] == 3


# -- output checks --------------------------------------------------------


def test_mis_check_agrees_with_program_verifier():
    rnd = random.Random(3)
    nxg = nx.gnp_random_graph(40, 0.15, seed=3)
    graph = SimGraph.from_networkx(nxg)
    for _ in range(200):
        outputs = {u: rnd.choice((0, 1, True, False)) for u in graph.nodes}
        assert (mis_violations(graph, outputs) == 0) == MIS.is_solution(
            graph, {}, outputs
        )
    mis = nx.maximal_independent_set(nxg, seed=1)
    outputs = {u: int(u in mis) for u in graph.nodes}
    assert mis_violations(graph, outputs) == 0
    assert MIS.is_solution(graph, {}, outputs)


def test_edge_model_draws_valid_deltas():
    nxg = nx.random_regular_graph(4, 30, seed=5)
    graph = SimGraph.from_networkx(nxg)
    model = EdgeModel(graph.n, nxg.edges())
    rnd = random.Random(7)
    for _ in range(25):
        dels, adds = model.draw(rnd, 4, 4)
        delta = GraphDelta(add_edges=adds, del_edges=dels)
        graph = graph.apply_delta(delta)
        assert sorted(model.edges) == sorted(
            (min(u, v), max(u, v)) for u, v in graph.edges()
        )

"""Benchmark orchestration: set-up, timed phases, traced phase, report.

Untraced run (``--trace 0``): set the workload up several times
(``setup_s`` is the median), then one closed-loop phase of
``--seconds`` of request time; reports the end-to-end metrics.

Traced run (``--trace 1``): an untraced and then a traced phase, each
with its own set-up and the workload's fixed number of requests from
the start of the stream; reports the per-layer metrics of the traced
phase and of its set-up, plus the tracing overhead against the
untraced phase.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
from time import perf_counter

import networkx
import numpy

from . import trace
from .checks import load_fingerprints, save_fingerprints
from .loop import LoopResult, closed_loop
from .workloads import REGISTRY

#: Set-up repeats: at least ``SETUP_REPS``, more (up to ``SETUP_MAX_REPS``)
#: while their total is under ``SETUP_MIN_SECONDS``, so a set-up of a few
#: milliseconds is still a steady median.
SETUP_REPS = 5
SETUP_MAX_REPS = 25
SETUP_MIN_SECONDS = 1.0

#: ``name -> unit`` of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Set-up layers, timed by the benchmark's own set-up code.
SETUP_LAYERS = (
    "graphs.generate_s",
    "graphs.idents_s",
    "local.graph.build_s",
    "local.engine.compile_s",
    "local.service.open_s",
)

#: ``metric -> tracer layer`` of the timed per-layer metrics.
TIMED_LAYERS = {
    "params.oracle_s": "params.oracle",
    "problems.verify_s": "problems.verify",
    "core.uniform_s": "core.uniform",
    "local.engine.run_s": "local.engine.run",
    "local.engine.restrict_s": "local.engine.restrict",
    "local.engine.round_loop_s": "local.engine.round_loop",
    "local.batch.kernel_setup_s": "local.batch.kernel_setup",
    "local.batch.stream_keys_s": "local.batch.stream_keys",
    "local.roundfuse.drive_s": "local.roundfuse.drive",
    "local.roundfuse.settle_s": "local.roundfuse.settle",
    "local.virtual.spec_s": "local.virtual.spec",
    "local.virtual.run_s": "local.virtual.run",
    "local.service.mutate_s": "local.service.mutate",
    "local.engine.apply_delta_s": "local.engine.apply_delta",
    "local.service.rerun_s": "local.service.rerun",
}

#: ``metric -> tracer layer`` of the call-count metrics.
COUNTED_LAYERS = {
    "params.oracle_calls": "params.oracle",
    "local.engine.runs": "local.engine.run",
    "local.engine.restricts": "local.engine.restrict",
    "local.virtual.specs": "local.virtual.spec",
}


def per_layer_units():
    """``name -> unit`` of every per-layer metric (``--trace 1``)."""
    units = {name: "s" for name in SETUP_LAYERS}
    units.update({name: "s" for name in TIMED_LAYERS})
    units.update({name: "count" for name in COUNTED_LAYERS})
    units.update({
        "core.steps": "count",
        "local.roundfuse.fused_ratio": "ratio",
        "sim.rounds": "count",
        "sim.messages": "count",
        "trace.requests": "count",
        "unattributed_s": "s",
        "trace_overhead_pct": "%",
    })
    return units


def peak_rss_mb():
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def src_line_count(root):
    """Non-blank lines of the program's Python sources under ``src/``."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with path.open(encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def run_metadata(root):
    """Facts about the run that are not metrics."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "src_nonblank_lines": src_line_count(root),
    }


def _setup(workload, seed):
    """One set-up: ``(state, phases, seconds)``.

    Garbage is collected before and after the timed set-up, so every
    set-up and every timed phase starts from the same collector state.
    """
    gc.collect()
    t0 = perf_counter()
    state, phases = workload.setup(seed)
    took = perf_counter() - t0
    gc.collect()
    return state, phases, took


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds):
    """End-to-end run; returns ``(loop_result, metrics, report_lines)``."""
    times = []
    state = None
    while len(times) < SETUP_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        if state is not None:
            workload.close(state)
            state = None
        state, _, took = _setup(workload, seed)
        times.append(took)
    try:
        result = closed_loop(
            workload.requests(state),
            seconds=seconds,
            cycle=workload.cycle,
            min_requests=workload.min_requests,
            expected=load_fingerprints(workload.name, seed),
        )
    finally:
        workload.close(state)
    figures = result.summary()
    values = {
        "setup_s": statistics.median(times),
        "req_p50_ms": figures["req_p50_ms"],
        "req_tail_ms": figures["req_tail_ms"],
        "req_per_s": figures["req_per_s"],
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - figures["fail_frac"],
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    lines = [
        f"  setup_s      {values['setup_s']:.4f} s (median of {len(times)}: "
        + ", ".join(f"{t:.3f}" for t in times) + ")",
        f"  req_p50_ms   {values['req_p50_ms']:.3f} ms",
        f"  req_tail_ms  {values['req_tail_ms']:.3f} ms "
        f"(p{figures['tail_pct']} of {figures['requests']} requests)",
        f"  req_per_s    {values['req_per_s']:.4f} 1/s",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
        f"  fail_frac    {figures['fail_frac']:.4f} "
        f"({result.failed} of {result.attempted})",
    ]
    return result, metrics, lines


def run_traced(workload, seed, seconds):
    """Per-layer run; returns ``(loop_result, metrics, report_lines)``.

    The untraced and the traced phase each set up afresh and make exactly
    ``workload.min_requests`` requests from the start of the stream,
    whatever ``seconds`` is, so every sum below is fixed per seed and
    the tracing overhead compares identical work.  The untraced phase
    checks its outputs as an untraced run does; the traced phase checks
    only that its fingerprints equal the untraced phase's, so no client
    check runs while the wrappers are installed.
    """

    def phase(tracer, expected):
        state, phases, _ = _setup(workload, seed)
        undo = trace.install(tracer) if tracer else []
        try:
            result = closed_loop(
                workload.requests(state), seconds=0,
                cycle=workload.cycle, min_requests=workload.min_requests,
                expected=expected, verify=tracer is None, tracer=tracer,
            )
        finally:
            trace.restore(undo)
            workload.close(state)
        return result, phases

    plain, _ = phase(None, load_fingerprints(workload.name, seed))
    tracer = trace.Tracer()
    traced, phases = phase(tracer, plain.fingerprints)
    values = {name: phases.get(name, 0.0) for name in SETUP_LAYERS}
    values.update({m: tracer.seconds[l] for m, l in TIMED_LAYERS.items()})
    values.update({m: tracer.calls[l] for m, l in COUNTED_LAYERS.items()})
    attempts = tracer.calls["local.roundfuse.try_drive"]
    plain_rps = plain.summary()["req_per_s"]
    traced_rps = traced.summary()["req_per_s"]
    values.update({
        "core.steps": tracer.extra["core.steps"],
        "local.roundfuse.fused_ratio": (
            tracer.extra["local.roundfuse.fused"] / attempts if attempts else 0.0
        ),
        "sim.rounds": sum(fp[0] for fp in traced.fingerprints if fp),
        "sim.messages": sum(fp[1] or 0 for fp in traced.fingerprints if fp),
        "trace.requests": traced.attempted,
        "unattributed_s": traced.unattributed,
        "trace_overhead_pct": (
            (plain_rps - traced_rps) / plain_rps * 100.0 if plain_rps else 0.0
        ),
    })
    units = per_layer_units()
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    busy = traced.busy
    lines = [f"  traced phase: {traced.attempted} requests, {busy:.3f} s busy"]
    for name, unit in units.items():
        value = values[name]
        share = (
            f"  ({value / busy * 100:5.1f}% of request time)"
            if unit == "s" and name in TIMED_LAYERS or name == "unattributed_s"
            else ""
        )
        lines.append(f"  {name:30s} {value:.6g} {unit}{share}")
    combined = LoopResult()
    for part in (plain, traced):
        combined.attempted += part.attempted
        combined.failed += part.failed
        combined.errors += part.errors
    return combined, metrics, lines


def record(workload, seed, requests):
    """Record fingerprints of the first ``requests`` requests at ``seed``.

    Every output is checked with the program's own verifier
    (``is_solution``, or ``measure_row``'s ``*_ok``); the record is
    written only if all pass.
    """
    state, _, _ = _setup(workload, seed)
    records = []
    try:
        stream = workload.requests(state)
        for index in range(requests):
            request = next(stream)
            answer = request.call()
            if not request.exact(answer):
                raise SystemExit(
                    f"{workload.name} seed {seed}: request {index} "
                    f"({request.kind}) failed its check; nothing recorded"
                )
            records.append(request.fingerprint(answer))
    finally:
        workload.close(state)
    save_fingerprints(workload.name, seed, records)
    return records


def main(root, args):
    """Run one workload per ``args``; prints the report and result line."""
    workload = REGISTRY[args.workload]
    if args.record:
        records = record(workload, args.seed, args.record)
        print(f"recorded {len(records)} fingerprints for {workload.name} "
              f"seed {args.seed}")
        return 0
    runner = run_traced if args.trace else run_untraced
    result, metrics, lines = runner(workload, args.seed, args.seconds)
    meta = run_metadata(root)
    meta.update(workload=workload.name, seed=args.seed, trace=bool(args.trace),
                recorded=len(load_fingerprints(workload.name, args.seed)))
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    for error in result.errors[:10]:
        print(f"  FAIL {error}")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1

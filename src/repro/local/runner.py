"""Synchronous LOCAL-model runner.

Executes one algorithm on a :class:`~repro.local.graph.SimGraph` under the
paper's standard assumptions (Section 2): all nodes wake simultaneously,
rounds are fault-free and synchronous, messages sent in round ``r`` arrive
before round ``r+1``, message size and local computation are unbounded.

Round accounting follows the paper: the running time of an execution is
the number of rounds until every node has terminated.  A node that
terminates during :meth:`start` — before any communication — has
termination time 0.

The *restriction to i rounds* operator (Section 2) is obtained with
``max_rounds=i`` together with ``default_output``: nodes that have not
produced an output by round ``i`` are forced to terminate with the
default (the paper uses the arbitrary value "0").

Backends
--------
Two interchangeable executors implement these semantics:

* ``backend="compiled"`` (default) — the CSR engine of
  :mod:`repro.local.engine`: flat integer-indexed adjacency, O(active +
  messages) rounds, lazy per-node random sources (``rng="counter"`` by
  default).
* ``backend="reference"`` — the original dict-based loop below, kept
  verbatim as the executable specification (eager Mersenne-Twister
  sources, ``rng="mt"`` by default).  It is the oracle the equivalence
  suite (``tests/test_engine_equivalence.py``) diffs the engine against:
  under a pinned ``rng`` scheme the two backends produce bit-identical
  :class:`RunResult` fields.

Select per call (``run(..., backend=..., rng=...)``) or per process
(:func:`set_default_backend` / :func:`use_backend`, or the
``REPRO_BACKEND`` / ``REPRO_RNG`` environment variables).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..errors import NonTerminationError, ParameterError
from .algorithm import capabilities_of
from .context import NodeContext, rng_source
from .faults import DROP, GARBLE, GARBLED, resolve_faults
from .message import Broadcast, normalize_outgoing
from .msgsize import estimate_bits

#: Cap applied when the caller neither bounds the rounds nor truncates.
SAFETY_ROUND_CAP = 100_000

#: ``"batch"`` is the compiled engine with the batched frontier-step
#: path explicitly requested (it is also auto-selected under
#: ``"compiled"`` whenever the algorithm registers a kernel).
#: ``"sharded"`` is the partitioned engine (DESIGN.md D12): the round
#: loop runs per graph shard with boundary exchange; it is also
#: selected by passing ``shards=k`` to :func:`run` under any compiled
#: backend.
#: ``"fused"`` is the multi-run engine (DESIGN.md D16): a single
#: :func:`run` behaves like ``"batch"``, while
#: :func:`~repro.local.fused.run_many` packs independent runs into one
#: block-diagonal slab and steps them as lanes of one kernel.
#: ``"jit"`` is the round-fused tier with the numba JIT loops requested
#: for that call (DESIGN.md D17): it resolves like ``"batch"`` and —
#: when numba is importable — compiles the hottest fused inner loops;
#: without numba it is exactly the pure-numpy round-fused path.
_BACKENDS = ("compiled", "reference", "batch", "sharded", "fused", "jit")
_RNG_MODES = ("counter", "mt")
#: Boundary-exchange channels of the sharded engine: ``"inline"`` steps
#: the shards sequentially in-process (deterministic reference),
#: ``"mp-pooled"`` dispatches to the persistent worker pool with
#: shared-memory halo exchange (DESIGN.md D13).
_SHARD_CHANNELS = ("inline", "mp-pooled")

#: Process-wide backend default (overridable per call).
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "compiled")
#: Process-wide rng-scheme override; ``None`` picks the backend's native
#: scheme ("counter" for compiled, "mt" for reference).
DEFAULT_RNG = os.environ.get("REPRO_RNG") or None
try:
    #: Shard count used when ``backend="sharded"`` is selected without
    #: an explicit ``shards=k``.
    DEFAULT_SHARDS = max(1, int(os.environ.get("REPRO_SHARDS", "") or 2))
except ValueError:  # pragma: no cover - malformed environment
    DEFAULT_SHARDS = 2
#: Default boundary-exchange channel of the sharded engine.
DEFAULT_SHARD_CHANNEL = os.environ.get("REPRO_SHARD_CHANNEL", "inline")
try:
    #: Maximum lane width of one fused slab (DESIGN.md D16): a
    #: ``run_many`` call packs at most this many runs per kernel, wider
    #: batches are chunked.  Pin per scope with
    #: ``use_backend("fused", lanes=b)``.
    DEFAULT_FUSE_LANES = max(1, int(os.environ.get("REPRO_FUSE_LANES", "") or 32))
except ValueError:  # pragma: no cover - malformed environment
    DEFAULT_FUSE_LANES = 32
#: Process-wide switch for the batched frontier-step path (DESIGN.md
#: D10).  Off, every run steps per node — the fallback that also engages
#: automatically when numpy is unavailable.  ``backend="batch"``
#: overrides a disabled switch for that call.
BATCH_ENABLED = os.environ.get("REPRO_BATCH", "1").lower() not in (
    "0",
    "off",
    "false",
)
#: Process-wide switch for the round-fused drivers (DESIGN.md D17).
#: On by default: certified kernels execute their whole round schedule
#: inside one driver call instead of returning to the interpreter per
#: round.  ``REPRO_ROUNDFUSE=0`` restores the per-round batch loop
#: everywhere (the bit-identity fallback the equivalence suite diffs
#: against).
ROUNDFUSE_ENABLED = os.environ.get("REPRO_ROUNDFUSE", "1").lower() not in (
    "0",
    "off",
    "false",
)
#: Process-wide request for the numba JIT tier of the round-fused
#: drivers (DESIGN.md D17).  Off by default; ``REPRO_JIT=1`` (or
#: ``backend="jit"`` per call) requests it.  The request is honoured
#: only when numba is importable — otherwise the pure-numpy fused loops
#: run, bit-identical.
JIT_ENABLED = os.environ.get("REPRO_JIT", "0").lower() in (
    "1",
    "on",
    "true",
)


#: Stepping strategy of the most recent run in this process
#: (``"batch"``, ``"per-node"`` or ``"reference"``); ``None`` before the
#: first run.  The alternation engine samples this right after each
#: guess/pruning run to attribute wall clock per step (StepRecord
#: backends) — a diagnostic channel, deliberately kept out of
#: :class:`RunResult` so the backend equivalence contract stays
#: field-for-field.
_LAST_STEPPING = None


def note_stepping(kind):
    """Record the stepping strategy that executed the latest run."""
    global _LAST_STEPPING
    _LAST_STEPPING = kind


def last_stepping():
    """Stepping strategy of the most recent run (``None`` if none ran)."""
    return _LAST_STEPPING


#: Fault-plan summary of the most recent run (``None`` when the run was
#: honest) — the same diagnostic channel as :data:`_LAST_STEPPING`: the
#: alternation engine samples it per step so traces can show which runs
#: executed under an adversary without widening :class:`RunResult`.
_LAST_FAULTS = None


def note_faults(description):
    """Record the fault-plan summary of the latest run (or ``None``)."""
    global _LAST_FAULTS
    _LAST_FAULTS = description


def last_faults():
    """Fault summary of the most recent run (``None`` if it was honest)."""
    return _LAST_FAULTS


#: Recovery trail of the most recent sharded run (``None`` when nothing
#: failed) — e.g. ``"respawn@r3(s1)"`` after a surgical worker respawn,
#: ``"respawn@r3(s1) inline@r3"`` after an escalation (D15).  Same
#: diagnostic channel as :data:`_LAST_STEPPING`: the alternation engine
#: samples it per step and folds it into ``StepRecord.backends``.
_LAST_RECOVERY = None


def note_recovery(summary):
    """Record the recovery trail of the latest sharded run (or ``None``)."""
    global _LAST_RECOVERY
    _LAST_RECOVERY = summary


def last_recovery():
    """Recovery trail of the most recent run (``None`` if nothing failed)."""
    return _LAST_RECOVERY


def set_batch_enabled(enabled):
    """Toggle the batched execution path; returns the previous value."""
    global BATCH_ENABLED
    previous = BATCH_ENABLED
    BATCH_ENABLED = bool(enabled)
    return previous


@contextmanager
def use_batch(enabled):
    """Temporarily pin the batched-path switch (equivalence tests diff
    the batch and per-node steppings under ``use_batch(False)``)."""
    previous = set_batch_enabled(enabled)
    try:
        yield
    finally:
        set_batch_enabled(previous)


def set_roundfuse_enabled(enabled):
    """Toggle the round-fused drivers (D17); returns the previous value."""
    global ROUNDFUSE_ENABLED
    previous = ROUNDFUSE_ENABLED
    ROUNDFUSE_ENABLED = bool(enabled)
    return previous


@contextmanager
def use_roundfuse(enabled):
    """Temporarily pin the round-fused-driver switch (the equivalence
    suite diffs fused and per-round stepping under
    ``use_roundfuse(False)``)."""
    previous = set_roundfuse_enabled(enabled)
    try:
        yield
    finally:
        set_roundfuse_enabled(previous)


def use_roundfuse_now():
    """Whether an eligible run should take the round-fused drivers."""
    return ROUNDFUSE_ENABLED


def set_jit_enabled(enabled):
    """Toggle the process-wide JIT request; returns the previous value."""
    global JIT_ENABLED
    previous = JIT_ENABLED
    JIT_ENABLED = bool(enabled)
    return previous


@contextmanager
def use_jit(enabled):
    """Temporarily pin the JIT-tier request (``backend="jit"`` wraps its
    run in this scope; honoured only when numba is importable)."""
    previous = set_jit_enabled(enabled)
    try:
        yield
    finally:
        set_jit_enabled(previous)


def use_jit_now():
    """Whether the current run requests the numba JIT loops."""
    return JIT_ENABLED


def set_default_backend(backend):
    """Set the process-wide runner backend; returns the previous value."""
    global DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ParameterError(f"unknown backend {backend!r} (use {_BACKENDS})")
    previous = DEFAULT_BACKEND
    DEFAULT_BACKEND = backend
    return previous


@contextmanager
def use_backend(backend, rng=None, shards=None, shard_channel=None, lanes=None):
    """Temporarily pin the runner backend (and optionally the rng scheme,
    shard count and shard channel).

    The equivalence suite runs whole pipelines — alternations, virtual
    domains, portfolios — under each backend with the rng scheme pinned,
    proving the engines interchangeable end to end.
    ``use_backend("sharded", shards=4)`` shards every run of a pipeline
    without threading ``shards=`` through each call site.

    A sharded scope is also a *pool scope* (DESIGN.md D13): the first
    run dispatched through ``shard_channel="mp-pooled"`` inside it
    spawns the persistent worker pool, every later run of the scope —
    each ``(A_i ; P)`` step of an alternation — reuses the warm
    workers, and the outermost scope exit joins them.  Pooled runs
    outside any scope fall back to a per-run pool.

    ``use_backend("fused", lanes=b)`` pins the fused engine's lane
    width (DESIGN.md D16): every :func:`~repro.local.fused.run_many`
    inside the scope packs at most ``b`` runs per block-diagonal slab.
    """
    global DEFAULT_BACKEND, DEFAULT_RNG, DEFAULT_SHARDS, DEFAULT_SHARD_CHANNEL
    global DEFAULT_FUSE_LANES
    if rng is not None and rng not in _RNG_MODES:
        raise ParameterError(f"unknown rng scheme {rng!r} (use {_RNG_MODES})")
    if shard_channel is not None and shard_channel not in _SHARD_CHANNELS:
        raise ParameterError(
            f"unknown shard channel {shard_channel!r} (use {_SHARD_CHANNELS})"
        )
    if shards is not None:
        # Same validation as resolve_execution: reject rather than clamp.
        if int(shards) < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if backend != "sharded":
            # DEFAULT_SHARDS only takes effect under backend="sharded";
            # accepting it here would pin a count that never applies.
            raise ParameterError(
                "use_backend(..., shards=k) requires backend='sharded' "
                f"(got {backend!r}); pass shards per call instead"
            )
    if lanes is not None:
        if int(lanes) < 1:
            raise ParameterError(f"lanes must be >= 1, got {lanes}")
        if backend != "fused":
            # DEFAULT_FUSE_LANES only takes effect through run_many's
            # fused packing; pinning it under another backend would be
            # a silent no-op.
            raise ParameterError(
                "use_backend(..., lanes=b) requires backend='fused' "
                f"(got {backend!r}); pass lanes per run_many call instead"
            )
    prev_backend = set_default_backend(backend)
    prev_rng = DEFAULT_RNG
    prev_shards = DEFAULT_SHARDS
    prev_channel = DEFAULT_SHARD_CHANNEL
    prev_lanes = DEFAULT_FUSE_LANES
    DEFAULT_RNG = rng if rng is not None else prev_rng
    if shards is not None:
        DEFAULT_SHARDS = int(shards)
    if shard_channel is not None:
        DEFAULT_SHARD_CHANNEL = shard_channel
    if lanes is not None:
        DEFAULT_FUSE_LANES = int(lanes)
    scope = None
    if backend == "sharded" or shard_channel == "mp-pooled":
        # Sharded scopes double as worker-pool scopes (D13): pooled runs
        # inside reuse one warm pool, torn down at the outermost exit.
        from .sharded import pool_scope

        scope = pool_scope()
        scope.__enter__()
    try:
        yield
    finally:
        DEFAULT_BACKEND = prev_backend
        DEFAULT_RNG = prev_rng
        DEFAULT_SHARDS = prev_shards
        DEFAULT_SHARD_CHANNEL = prev_channel
        DEFAULT_FUSE_LANES = prev_lanes
        if scope is not None:
            scope.__exit__(None, None, None)


def resolve_backend(backend=None, rng=None):
    """Resolve (backend, rng_mode) from per-call values and defaults.

    ``"batch"`` and ``"sharded"`` resolve like ``"compiled"`` (same
    engine family, same native rng scheme); ``"batch"`` additionally
    *requests* the batched stepping even when the process-wide switch
    is off, ``"sharded"`` selects the partitioned round loop.
    """
    backend = backend or DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ParameterError(f"unknown backend {backend!r} (use {_BACKENDS})")
    rng = rng or DEFAULT_RNG or ("mt" if backend == "reference" else "counter")
    if rng not in _RNG_MODES:
        raise ParameterError(f"unknown rng scheme {rng!r} (use {_RNG_MODES})")
    return backend, rng


def resolve_execution(backend=None, rng=None, shards=None, shard_channel=None):
    """Resolve the full executor selection in one place.

    Returns ``(backend, rng_mode, shards, shard_channel)`` where
    ``shards`` is ``None`` for unsharded execution.  This is the single
    dispatch helper behind :func:`run`, :func:`run_restricted` and the
    :class:`~repro.core.domain.Domain` runners, so backend/batch/shard
    selection flags pass through every layer identically.
    """
    backend, rng_mode = resolve_backend(backend, rng)
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if backend == "reference":
            raise ParameterError(
                "sharded execution requires a compiled backend "
                "(backend='reference' cannot take shards)"
            )
    elif backend == "sharded":
        shards = DEFAULT_SHARDS
    shard_channel = shard_channel or DEFAULT_SHARD_CHANNEL
    if shard_channel not in _SHARD_CHANNELS:
        raise ParameterError(
            f"unknown shard channel {shard_channel!r} (use {_SHARD_CHANNELS})"
        )
    return backend, rng_mode, shards, shard_channel


def batching_requested(backend):
    """Whether a resolved backend name should take the batched path."""
    return backend in ("batch", "fused", "jit") or (
        backend in ("compiled", "sharded") and BATCH_ENABLED
    )


class RunResult:
    """Outcome of one synchronous execution.

    Attributes
    ----------
    outputs:
        Mapping node -> final output ``y(v)``.
    finish_round:
        Mapping node -> termination time (rounds of communication used).
    rounds:
        Running time of the execution: ``max(finish_round.values())``.
    messages:
        Total number of point-to-point payload deliveries.
    truncated:
        Frozenset of nodes forced to the default output by a round
        restriction (empty when the algorithm terminated on its own).
    max_message_bits:
        Largest single payload observed (only when the run was started
        with ``track_bits=True``; else ``None``) — the Section 6.2
        message-size instrumentation.
    """

    __slots__ = (
        "outputs",
        "finish_round",
        "rounds",
        "messages",
        "truncated",
        "max_message_bits",
    )

    def __init__(
        self,
        outputs,
        finish_round,
        rounds,
        messages,
        truncated,
        max_message_bits=None,
    ):
        self.outputs = outputs
        self.finish_round = finish_round
        self.rounds = rounds
        self.messages = messages
        self.truncated = truncated
        self.max_message_bits = max_message_bits

    def __repr__(self):
        return (
            f"RunResult(rounds={self.rounds}, messages={self.messages}, "
            f"truncated={len(self.truncated)})"
        )


def run(
    graph,
    algorithm,
    *,
    inputs=None,
    guesses=None,
    seed=0,
    salt=0,
    max_rounds=None,
    default_output=None,
    truncate=False,
    track_bits=False,
    backend=None,
    rng=None,
    shards=None,
    shard_channel=None,
    faults=None,
):
    """Execute ``algorithm`` on ``graph`` and return a :class:`RunResult`.

    Parameters
    ----------
    graph:
        The :class:`SimGraph` to run on.
    algorithm:
        A :class:`LocalAlgorithm`.
    inputs:
        Optional mapping node -> input ``x(v)``; missing nodes get ``None``.
    guesses:
        Mapping parameter-name -> common guessed value (the Γ̃ of the
        paper).  Must cover ``algorithm.requires``.
    seed, salt:
        Seed material for the per-node RNGs; two runs with identical
        arguments are bit-for-bit identical.
    max_rounds:
        Round cap.  With ``truncate=True`` (or a non-None
        ``default_output``) unfinished nodes are forced to the default
        output — the paper's restriction operator.  Otherwise exceeding
        the cap raises :class:`NonTerminationError`.
    default_output:
        Output forced on truncated nodes.
    truncate:
        Explicitly request truncation semantics even when the default
        output is ``None``.
    track_bits:
        Record the largest payload size observed (Section 6.2's
        message-size instrumentation; small runtime overhead).
    backend:
        ``"compiled"`` (CSR engine, default), ``"reference"`` (the
        specification loop), ``"batch"`` (the CSR engine with the
        batched frontier-step path explicitly requested; compiled runs
        auto-select it whenever the algorithm registers a kernel and
        :data:`BATCH_ENABLED` is on), ``"sharded"`` (the partitioned
        round loop, DESIGN.md D12) or ``"jit"`` (the round-fused tier
        with the numba loops requested for this call, DESIGN.md D17 —
        without numba it is the pure-numpy round-fused path,
        bit-identical).  ``None`` uses the process default.
    rng:
        Per-node random-source scheme, ``"counter"`` or ``"mt"``;
        ``None`` uses the backend's native scheme.  Pin it when diffing
        backends — the schemes produce different (equally valid) random
        streams.
    shards:
        Shard count for partitioned execution; any value implies the
        sharded engine under the resolved compiled backend (bit
        identical to it for every count — counts larger than ``n``
        clamp).  ``None`` shards only when the backend is
        ``"sharded"`` (then :data:`DEFAULT_SHARDS` applies).
    shard_channel:
        Boundary exchange of the sharded engine: ``"inline"``
        (in-process, deterministic reference) or ``"mp-pooled"``
        (persistent worker pool + shared-memory halo plane, DESIGN.md
        D13 — reuse the pool across runs by wrapping the pipeline in
        ``use_backend("sharded", ...)``; shard state that does not
        pickle steps inline).  ``None`` uses
        :data:`DEFAULT_SHARD_CHANNEL`.
    faults:
        Optional :class:`~repro.local.faults.FaultPlan` of adversarial
        node profiles (DESIGN.md D14); ``None`` falls back to the
        ambient plan pinned by :func:`~repro.local.faults.use_faults`.
        An injected run is a pure function of its arguments plus the
        plan and bit-identical across every backend and shard channel.
    """
    if capabilities_of(algorithm).get("kind") != "node":
        raise TypeError(f"expected LocalAlgorithm, got {type(algorithm).__name__}")
    guesses = dict(guesses or {})
    missing = [p for p in algorithm.requires if p not in guesses]
    if missing:
        raise ParameterError(
            f"algorithm {algorithm.name!r} requires guesses for {missing}"
        )
    inputs = inputs or {}
    truncating = truncate or default_output is not None
    if max_rounds is None:
        if truncating:
            raise ParameterError("truncation requires an explicit max_rounds")
        cap = SAFETY_ROUND_CAP
    else:
        cap = max_rounds
    backend, rng_mode, shards, shard_channel = resolve_execution(
        backend, rng, shards, shard_channel
    )
    plan = resolve_faults(faults)
    # Compiled once per run: the scalar per-run view every executor
    # consumes (batch kernels derive their vectorized twin from it).
    faults = plan.compile(graph.nodes, graph.ident, seed, salt) if plan else None
    note_faults(plan.describe() if faults is not None else None)
    if shards is not None:
        from .sharded import run_sharded

        return run_sharded(
            graph,
            algorithm,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
            track_bits=track_bits,
            rng_mode=rng_mode,
            result_cls=RunResult,
            use_batch=batching_requested(backend),
            shards=shards,
            channel=shard_channel,
            faults=faults,
        )
    if backend != "reference":
        from .engine import run_compiled

        kwargs = dict(
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
            track_bits=track_bits,
            rng_mode=rng_mode,
            result_cls=RunResult,
            use_batch=batching_requested(backend),
            faults=faults,
        )
        if backend == "jit":
            # Per-call JIT request (D17): honoured only when numba is
            # importable; otherwise the pure-numpy fused tier runs.
            with use_jit(True):
                return run_compiled(graph, algorithm, **kwargs)
        return run_compiled(graph, algorithm, **kwargs)
    return _run_reference(
        graph,
        algorithm,
        inputs=inputs,
        guesses=guesses,
        seed=seed,
        salt=salt,
        cap=cap,
        truncating=truncating,
        default_output=default_output,
        track_bits=track_bits,
        rng_mode=rng_mode,
        faults=faults,
    )


def _run_reference(
    graph,
    algorithm,
    *,
    inputs,
    guesses,
    seed,
    salt,
    cap,
    truncating,
    default_output,
    track_bits,
    rng_mode,
    faults=None,
):
    """The specification loop: dict inboxes reallocated every round.

    Kept verbatim from the seed implementation (modulo the pluggable rng
    scheme and the ``faults is not None`` guards) as the oracle for the
    compiled engine's equivalence suite — including the faulted-run
    semantics of DESIGN.md D14: a crash-stop node is force-finished
    before acting at its crash round, a silenced sender's messages never
    leave it (uncounted), dropped messages vanish in flight (uncounted),
    garbled ones arrive as :data:`GARBLED` (counted — the bytes
    travelled — and sized as sent).
    """
    note_stepping("reference")
    make_gen = rng_source(rng_mode, seed, salt)
    processes = {}
    for u in graph.nodes:
        ctx = NodeContext(
            node=u,
            ident=graph.ident[u],
            degree=graph.degree(u),
            input=inputs.get(u),
            guesses=guesses,
            rng=make_gen(graph.ident[u]),
            rng_mode=rng_mode,
        )
        processes[u] = algorithm.make(ctx)

    outputs = {}
    finish_round = {}
    messages = 0
    max_bits = 0
    active = []

    # Round 0: wake-up.  `pending[u]` maps the receiver's port -> payload.
    pending = {u: {} for u in graph.nodes}

    def route(u, outgoing, rnd):
        nonlocal messages, max_bits
        outgoing = normalize_outgoing(outgoing, graph.degree(u))
        if outgoing is None:
            return
        if faults is not None and faults.silenced(u, rnd):
            return
        ident = graph.ident
        if isinstance(outgoing, Broadcast):
            payload = outgoing.payload
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            for _, v, reverse_port in graph.adj[u]:
                if faults is not None:
                    fate = faults.decide(u, ident[u], ident[v], rnd)
                    if fate == DROP:
                        continue
                    if fate == GARBLE:
                        pending[v][reverse_port] = GARBLED
                        messages += 1
                        continue
                pending[v][reverse_port] = payload
                messages += 1
            return
        adj = graph.adj[u]
        for port, payload in outgoing.items():
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            _, v, reverse_port = adj[port]
            if faults is not None:
                fate = faults.decide(u, ident[u], ident[v], rnd)
                if fate == DROP:
                    continue
                if fate == GARBLE:
                    payload = GARBLED
            pending[v][reverse_port] = payload
            messages += 1

    for u in graph.nodes:
        if faults is not None:
            crashed = faults.crash_of(u)
            if crashed is not None and crashed[0] == 0:
                outputs[u] = crashed[1]
                finish_round[u] = 0
                continue
        process = processes[u]
        route(u, process.start(), 0)
        if process.done:
            outputs[u] = process.result
            finish_round[u] = 0
        else:
            active.append(u)

    rounds = 0
    while active:
        if rounds >= cap:
            if truncating:
                for u in active:
                    outputs[u] = default_output
                    finish_round[u] = cap
                return RunResult(
                    outputs,
                    finish_round,
                    cap,
                    messages,
                    frozenset(active),
                    max_bits if track_bits else None,
                )
            raise NonTerminationError(algorithm.name, cap, active)
        rounds += 1
        delivery = pending
        pending = {u: {} for u in graph.nodes}
        still_active = []
        for u in active:
            if faults is not None:
                crashed = faults.crash_of(u)
                if crashed is not None and crashed[0] == rounds:
                    outputs[u] = crashed[1]
                    finish_round[u] = rounds
                    continue
            process = processes[u]
            route(u, process.receive(delivery[u]), rounds)
            if process.done:
                outputs[u] = process.result
                finish_round[u] = rounds
            else:
                still_active.append(u)
        active = still_active

    total = max(finish_round.values()) if finish_round else 0
    return RunResult(
        outputs,
        finish_round,
        total,
        messages,
        frozenset(),
        max_bits if track_bits else None,
    )


def run_restricted(graph, algorithm, rounds, *, default_output=0, **kwargs):
    """The paper's ``A restricted to i rounds``: truncate at ``rounds``.

    Nodes without an output by then get ``default_output`` (the paper's
    arbitrary value "0").
    """
    return run(
        graph,
        algorithm,
        max_rounds=rounds,
        default_output=default_output,
        truncate=True,
        **kwargs,
    )

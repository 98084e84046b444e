"""The closed request loop and the statistics the benchmark reports.

One client issues each request when the previous one has returned.
Only the request call is timed; drawing the next input and checking the
previous output are client work between requests, and a phase's length
is measured in request time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: A tail percentile needs at least this many requests beyond it.
TAIL_BEYOND = 10


def tail_percentile(n):
    """The highest whole percentile with at least ``TAIL_BEYOND`` of ``n``
    requests above it, or ``None`` when ``n`` is too small for any."""
    for pct in range(99, 0, -1):
        if n - _rank(n, pct) >= TAIL_BEYOND:
            return pct
    return None


def _rank(n, pct):
    """1-based nearest-rank position of percentile ``pct`` among ``n``."""
    return max(1, -(-pct * n // 100))


def percentile(samples, pct):
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


class LoopResult:
    """Latencies and accounting of one closed-loop phase."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fingerprints = []
        self.unattributed = 0.0

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def summary(self):
        """End-to-end figures of the phase (times in ms)."""
        ok = self.attempted - self.failed
        pct = tail_percentile(len(self.latencies))
        return {
            "req_p50_ms": statistics.median(self.latencies) * 1e3,
            "req_tail_ms": (
                percentile(self.latencies, pct) if pct else max(self.latencies)
            ) * 1e3,
            "tail_pct": pct,
            "req_per_s": ok / self.busy if self.busy else 0.0,
            "fail_frac": self.fail_frac,
            "requests": self.attempted,
        }


def closed_loop(stream, *, seconds, cycle, min_requests, expected,
                verify=True, tracer=None):
    """Run requests from ``stream`` until ``seconds`` of request time.

    The phase ends at a whole ``cycle`` of requests once both the
    request time and ``min_requests`` are reached; with ``seconds=0`` it
    makes exactly ``min_requests`` requests (a whole number of cycles).
    Client work between requests does not count towards ``seconds``.
    Request ``i`` is failed when its call raises, when its fingerprint
    differs from ``expected[i]`` (if there is one), or, with ``verify``,
    when its output fails its from-scratch check.  Every request is
    checked the same way whether or not it has a recorded fingerprint,
    so the client's work between requests does not depend on the seed.
    With a ``tracer``, request time that no span covered is summed into
    ``result.unattributed``.
    """
    result = LoopResult()
    busy = 0.0
    index = 0
    for request in stream:
        covered0 = tracer.covered() if tracer else 0.0
        t0 = perf_counter()
        try:
            answer = request.call()
            raised = None
        except Exception as exc:  # a failed request is counted, not fatal
            raised = exc
        elapsed = perf_counter() - t0
        if tracer:
            result.unattributed += elapsed - (tracer.covered() - covered0)
        busy += elapsed
        result.latencies.append(elapsed)
        result.attempted += 1
        if raised is not None:
            result.failed += 1
            result.fingerprints.append(None)
            result.errors.append(f"request {index} ({request.kind}): {raised!r}")
        elif not _judge(request, answer, index, expected, verify, result):
            result.failed += 1
        index += 1
        if index % cycle == 0 and index >= min_requests and busy >= seconds:
            break
    return result


def _judge(request, answer, index, expected, verify, result):
    fingerprint = request.fingerprint(answer)
    result.fingerprints.append(fingerprint)
    if verify and not request.verify(answer):
        result.errors.append(f"request {index} ({request.kind}): wrong output")
        return False
    if index < len(expected) and fingerprint != expected[index]:
        result.errors.append(
            f"request {index} ({request.kind}): fingerprint {fingerprint} "
            f"!= expected {expected[index]}"
        )
        return False
    return True

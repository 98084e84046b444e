"""Output checks: digests, recorded fingerprints and a fast MIS check.

A request's *fingerprint* is ``[rounds, messages, digest]``: the
simulated rounds, the simulated message count (``None`` when the
request's result does not expose one) and a digest of its output.
Fingerprints recorded for a workload seed live in
``fingerprints/<workload>.json`` as ``{seed: [fingerprint, ...]}``, one
entry per request in stream order, and were taken only from outputs
that passed the program's own ``is_solution``.  Every request is also
verified from scratch, so a seed without a record, or a request past
its end, is still checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from repro.local.batch import batch_graph_of

FINGERPRINT_DIR = Path(__file__).resolve().parent / "fingerprints"


def digest(values):
    """Stable 128-bit hex digest of a sequence of plain values."""
    return hashlib.blake2b(
        repr(list(values)).encode(), digest_size=16
    ).hexdigest()


def output_digest(graph, outputs):
    """Digest of an output map, read in the graph's identity order."""
    return digest(outputs[u] for u in graph.nodes)


def mis_violations(graph, outputs):
    """Number of MIS constraint violations of ``outputs`` on ``graph``.

    Counts edges with both ends in the set plus nodes outside the set
    with no neighbour in it; membership follows
    ``repro.problems.mis.in_set`` (``1`` or ``True``).  This is the
    benchmark's per-request check because ``MIS.is_solution`` costs
    about 0.24 s a request at n=2*10^4 (this check about 0.005 s), more
    than the ``session-churn`` request it checks (about 0.1 s).  The
    test suite checks that both agree.  It reads the program's cached numpy CSR mirror of the
    graph, which the request being checked has already built, so the
    check moves no work off the next request.  Raises ``KeyError`` when
    a node has no output.
    """
    cg = graph.compiled()
    bg = batch_graph_of(cg)
    bits = np.fromiter(
        (outputs[u] in (1, True) for u in cg.labels), dtype=bool, count=cg.n
    )
    both_in = int(np.count_nonzero(bits[bg.owner] & bits[bg.neigh])) // 2
    covered = np.bincount(bg.owner, weights=bits[bg.neigh], minlength=cg.n) > 0
    return both_in + int(np.count_nonzero(~bits & ~covered))


def load_fingerprints(workload, seed):
    """Recorded fingerprints of ``workload`` at ``seed`` (``[]`` if none)."""
    path = FINGERPRINT_DIR / f"{workload}.json"
    if not path.exists():
        return []
    return json.loads(path.read_text()).get(str(seed), [])


def save_fingerprints(workload, seed, records):
    """Store ``records`` for ``workload`` at ``seed``, keeping other seeds."""
    path = FINGERPRINT_DIR / f"{workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(seed)] = records
    FINGERPRINT_DIR.mkdir(exist_ok=True)
    text = json.dumps(
        {key: table[key] for key in sorted(table, key=int)},
        separators=(",", ":"),
    )
    path.write_text(text + "\n")

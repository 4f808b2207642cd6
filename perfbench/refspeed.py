"""Scales measured times to a fixed reference machine speed.

The machine the bounds were set on (2 vCPUs of a shared Xeon host, 2.0 GHz)
runs identical work up to 1.9x slower for stretches of a few seconds to over
a minute, depending on what the host's other tenants do. Across ten runs of
identical training work, raw steps/s spread by 26% between quartiles, which
no bound of 25% survives. So the benchmark times a fixed reference kernel
between chunks of about `CHUNK_S` of work, and scales each chunk's times by
`REF_KERNEL_S / (kernel time around the chunk)`. With the scaling that spread
fell to 4%. Raw times are reported beside the scaled ones.

Tail latency is scaled like the rest, though neither choice is steady in
every period. In one set of ten runs per workload, with this factor between
0.47 and 0.69, raw p99 spread by 4% or less and scaled p99 by 6% to 17%. In
two later sets of ten, with the factor between 0.48 and 0.96, raw p99 spread
by 7% to 20% and scaled p99 by 5% to 11%. Raw p99 is reported beside the
scaled one.

The kernel does what dominates a step, and uses no maas code, so a change to
the program does not move it: regex tokenizing, short blake2b digests, JSON
round trips and string edits. Of the kernels tried on 3-second windows of
`eval_fresh` and `selfedit_live`, this one tracked the machine best (scaled
throughput varied 5% and 7% where raw varied 11%); one built on numpy
mat-vecs and one on large-dict lookups each tracked one workload and not
the other.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import time

REF_KERNEL_S = 1.7e-3  # the kernel's time on that machine when the host is quiet
CHUNK_S = 0.2  # work between two kernel timings
ROUNDS = 24

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
_TEXT = "Evaluate the contour integral of z^4 over the unit circle times 2. " * 4
_DOC = {"operators": [{"id": f"op{i}", "prompt": "Solve the problem step by step. " * 3,
                       "temperature": 0.5 + i / 10} for i in range(12)]}


def _kernel():
    acc = 0
    for _ in range(ROUNDS):
        acc += len(json.loads(json.dumps(_DOC))["operators"])
        for token in _TOKEN_SPLIT.split(_TEXT.lower()):
            if token:
                acc += hashlib.blake2b(token.encode(), digest_size=8).digest()[0]
        acc += len(_TEXT.replace("unit", "{input}"))
    return acc


def sample(repeats=1):
    """Median time of `repeats` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before, after):
    """Scale for times measured between two kernel timings."""
    return REF_KERNEL_S / ((before + after) / 2)

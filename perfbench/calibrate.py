"""Host-speed reference, fixed forever and independent of kgrerank.

The machines this benchmark runs on are shared: the same run can take 1.8x
as long while another tenant loads the core, and such phases last from
seconds to minutes, longer than a benchmark run. Medians over a run cannot
remove a slow phase that covers the whole run. So each timed ``kgrerank
run`` is bracketed by this reference job, and run.py rescales the run's time
by how much slower than nominal the reference ran just before and after it.

The job mixes what kgrerank spends its time on: breadth-first searches over
dict-of-list adjacency, set and dict traffic, float sums and small numpy
calls. Its code must never change, or reported times stop being comparable
across commits.
"""

from __future__ import annotations

import random
import time
from collections import deque

import numpy as np

# typical seconds of one job on the shared 2-CPU Intel Xeon host the
# benchmark was calibrated on (Python 3.11.7, numpy 2.4.6); rescaled times
# are seconds at that host speed
NOMINAL_S = 0.015
REPEATS = 10

_rng = random.Random(20240517)
_N = 160
_ADJ = {v: sorted(_rng.sample(range(_N), 3)) for v in range(_N)}
for _v, _ws in list(_ADJ.items()):
    for _w in _ws:
        if _v not in _ADJ[_w]:
            _ADJ[_w].append(_v)
_VECTORS = [np.array([_rng.random() for _ in range(8)]) for _ in range(64)]


def _job() -> float:
    total = 0.0
    for source in range(_N):
        dist = {source: 0}
        queue = deque([source])
        seen = {source}
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if w not in seen:
                    seen.add(w)
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += sum(1.0 / d for d in dist.values() if d)
    for a in _VECTORS:
        for b in _VECTORS[:16]:
            total += float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))
    return total


def reference_seconds() -> float:
    """Mean wall time of one reference job over REPEATS jobs run now."""
    _job()  # warm-up
    start = time.perf_counter()
    for _ in range(REPEATS):
        _job()
    return (time.perf_counter() - start) / REPEATS

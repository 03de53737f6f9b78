"""Machine-speed reference: a fixed pure-Python kernel.

The kernel is a running median over a fixed pseudo-random sequence, kept
with an insertion-sorted window written in Python, so that it exercises the
same interpreter work as the package (loops, comparisons, calls, small lists
and tuples) and nothing else. It imports nothing from ``rideshare``.

Timing it between operations measures how fast the host runs Python at that
moment. Dividing an operation's time by the nearby kernel times and
multiplying by ``REFERENCE_MS`` gives the operation's time on a host where
the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import statistics
import time

# A typical kernel time on the x86-64 Linux VM (2 vCPUs, CPython 3.11) where
# the bounds were set; it only scales the normalised figures so that they read
# close to that host's milliseconds.
REFERENCE_MS = 1.25

_SAMPLES = 600
_WINDOW = 15


def _insert(window: list, value: int) -> None:
    k = len(window)
    window.append(value)
    while k > 0 and window[k - 1] > value:
        window[k] = window[k - 1]
        k -= 1
    window[k] = value


def _remove(window: list, value: int) -> None:
    k = 0
    while window[k] != value:
        k += 1
    del window[k]


def kernel() -> int:
    """Running median of `_SAMPLES` draws over a window of `_WINDOW`."""
    x = 12345
    history: list[tuple[int, int]] = []
    window: list[int] = []
    acc = 0
    for k in range(_SAMPLES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        value = x >> 8
        history.append((k, value))
        _insert(window, value)
        if len(window) > _WINDOW:
            _remove(window, history[k - _WINDOW][1])
        acc ^= window[len(window) // 2]
    return acc


_EXPECTED = kernel()


def time_kernel() -> float:
    """Milliseconds one kernel call takes now."""
    t0 = time.perf_counter()
    result = kernel()
    t1 = time.perf_counter()
    if result != _EXPECTED:
        raise RuntimeError("reference kernel gave a different result")
    return (t1 - t0) * 1000.0


def local_scale(ref_ms: list[float], k: int, half_width: int = 4) -> float:
    """Factor that turns raw ms at position `k` into reference ms, from the
    median of the kernel times around that position."""
    lo = max(0, k - half_width)
    hi = min(len(ref_ms), k + half_width + 1)
    return REFERENCE_MS / statistics.median(ref_ms[lo:hi])

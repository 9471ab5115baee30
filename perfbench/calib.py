"""The machine's speed, measured with a fixed piece of Python work.

The reference machine is shared with other tenants, and the speed of its
cores moves by up to 2x within minutes; CPU time moves with wall time, so
this is not waiting for the processor. A run that falls in a slow stretch
reads slow on every metric. `sample` times `kernel`, a fixed loop shaped
like the engine's inner loops. The benchmark samples it before every op,
and divides each time it reports by `speed` of the run's samples. The
metrics then read as seconds on the reference machine at its usual speed.

The engine slows less than the kernel: fitted by least squares on the
logarithms of per-pass times against the pass's mean kernel time, over
about 40 passes of each workload, its time grows as the kernel's time to
the power 0.54-0.64, and the import of greenheight.cli as the power 0.61.
`speed` uses SENSITIVITY = 0.6 for all of them.

The kernel depends on nothing in the program, so a change to the program
moves the metrics and not the kernel. It allocates no container, so no
garbage collection runs inside it, whatever heap the program has built.
This module imports only `time`, so importing it before `greenheight`
does not take any of the import's work out of `setup_s`.
"""

import time

# kernel seconds on the reference machine (2 cores, Python 3.11) at its
# usual speed: the median of about 900 samples taken between ops
REF_S = 0.0052
SENSITIVITY = 0.6

_N = 40


def _table():
    """A fixed 40x40 table of element indices, from a linear congruential
    generator (no `random`, see the module docstring)."""
    x, rows = 12345, []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            x = (1103515245 * x + 12345) % (1 << 31)
            row.append(x % _N)
        rows.append(row)
    return rows


_TABLE = _table()
_INDEX = {(a, b): _TABLE[a][b] for a in range(_N) for b in range(_N)}
_KEYS = list(_INDEX)


def kernel() -> int:
    """Fixed work: table lookups and int compares, as in an associativity
    check, then dict lookups on tuple keys."""
    t, bad = _TABLE, 0
    for a in range(_N):
        ta = t[a]
        for b in range(_N):
            tab, tb = t[ta[b]], t[b]
            for c in range(_N):
                if tab[c] != ta[tb[c]]:
                    bad += 1
    index = _INDEX
    for key in _KEYS:
        bad += index[key]
    return bad


def sample() -> float:
    """Seconds for one `kernel` call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(samples) -> float:
    """How much slower than usual the engine ran while these kernel samples
    were taken: (mean sample / REF_S) ** SENSITIVITY."""
    return (sum(samples) / len(samples) / REF_S) ** SENSITIVITY

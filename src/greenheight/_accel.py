"""Hot kernels over small tables: the associativity witness search, the
exhaustive enumeration of associative tables of order <= 3, and a seeded
sampler of associative tables.

The witness search and the enumerator are numpy code. The sampler is a
backtracking fill on plain Python ints whose only randomness is splitmix64,
so a sample depends on nothing but the sampler's arguments.
"""

from __future__ import annotations

import numpy as np

# no compiled kernels exist; kept because perfbench/child.py reads it
numba_kernels = None

_MASK64 = (1 << 64) - 1
# rows per block of the witness search, to bound its memory
_WITNESS_ROWS = 32
# failed sampler attempts in a row after which the node budget is deemed
# unworkable; valid inputs were seen to need at most 6
_MAX_FAILED_ATTEMPTS = 1000


def assoc_witness(table):
    """Lexicographically first (a, b, c) with (a*b)*c != a*(b*c), or None
    if the table is associative. Scans rows in blocks to bound memory."""
    t = np.ascontiguousarray(table, dtype=np.int32)
    m = t.shape[0]
    for a0 in range(0, m, _WITNESS_ROWS):
        rows = t[a0 : a0 + _WITNESS_ROWS]
        neq = t[rows, :] != rows[:, t]
        if neq.any():
            i, b, c = np.unravel_index(int(np.argmax(neq)), neq.shape)
            return int(i) + a0, int(b), int(c)
    return None


def enumerate_assoc_tables(m: int):
    """Every associative table of the given order, 1 <= m <= 3, in
    lexicographic order of the flattened cells."""
    if not 1 <= m <= 3:
        raise ValueError("exhaustive enumeration is limited to order <= 3")
    cells = m * m
    total = m**cells
    flat = np.empty((total, cells), dtype=np.int32)
    rem = np.arange(total, dtype=np.int64)
    for pos in range(cells - 1, -1, -1):
        flat[:, pos] = rem % m
        rem = rem // m
    ok = np.ones(total, dtype=bool)
    for a in range(m):
        for b in range(m):
            ab = flat[:, a * m + b].astype(np.int64)
            for c in range(m):
                bc = flat[:, b * m + c].astype(np.int64)
                lhs = np.take_along_axis(flat, (ab * m + c)[:, None], axis=1)[:, 0]
                rhs = np.take_along_axis(flat, (a * m + bc)[:, None], axis=1)[:, 0]
                np.logical_and(ok, lhs == rhs, out=ok)
    return flat[ok].reshape(-1, m, m)


def _mix64(state):
    """One splitmix64 step on 64-bit ints: (next state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _shuffled(m, state):
    """(next state, a Fisher-Yates shuffle of range(m))."""
    cand = list(range(m))
    for k in range(m - 1, 0, -1):
        state, z = _mix64(state)
        j = z % (k + 1)
        cand[k], cand[j] = cand[j], cand[k]
    return state, cand


def _placement_ok(t, m, a, b):
    """Whether setting cell (a, b) of the flat partial table t, where -1
    marks an empty cell, kept it associative: checks exactly the triples
    whose four cells became fully determined."""
    v = t[a * m + b]
    for z in range(m):
        bz = t[b * m + z]
        if bz < 0:
            continue
        vz = t[v * m + z]
        abz = t[a * m + bz]
        if vz >= 0 and abz >= 0 and vz != abz:
            return False
    for x in range(m):
        xa = t[x * m + a]
        if xa < 0:
            continue
        xab = t[xa * m + b]
        xv = t[x * m + v]
        if xab >= 0 and xv >= 0 and xab != xv:
            return False
    for i, w in enumerate(t):
        if w == a:
            x, y = divmod(i, m)
            yb = t[y * m + b]
            if yb >= 0:
                xyb = t[x * m + yb]
                if xyb >= 0 and xyb != v:
                    return False
        if w == b:
            y, z = divmod(i, m)
            ay = t[a * m + y]
            if ay >= 0:
                ayz = t[ay * m + z]
                if ayz >= 0 and ayz != v:
                    return False
    return True


def _fill(m, state, node_budget):
    """One backtracking attempt in row-major cell order, candidates shuffled
    per cell: (next state, flat table), or (next state, None) when the
    attempt runs out of nodes or finds no table."""
    cells = m * m
    t = [-1] * cells
    cand = [None] * cells
    ptr = [0] * cells
    state, cand[0] = _shuffled(m, state)
    depth = 0
    nodes = 0
    while True:
        if ptr[depth] == m:
            if depth == 0:
                return state, None
            depth -= 1
            t[depth] = -1
            continue
        t[depth] = cand[depth][ptr[depth]]
        ptr[depth] += 1
        nodes += 1
        if nodes > node_budget:
            return state, None
        if _placement_ok(t, m, *divmod(depth, m)):
            depth += 1
            if depth == cells:
                return state, t
            ptr[depth] = 0
            state, cand[depth] = _shuffled(m, state)
        else:
            t[depth] = -1


def sample_assoc_tables(m: int, count: int, seed: int = 0, node_budget: int = 200_000):
    """Draw associative m-by-m tables by seeded backtracking fill, as an
    int32 array of shape (count, m, m).

    Draws are with replacement and not uniform over associative tables;
    the output depends only on (m, count, seed, node_budget). Each attempt
    stops after node_budget placements. Raises ValueError for m < 1,
    count < 0, a seed outside [0, 2**64), node_budget < m*m, and when
    1000 attempts in a row run out of nodes, which means node_budget is
    too small for order m.
    """
    if m < 1:
        raise ValueError("order must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    # a table takes m*m placements, so a smaller budget could never finish
    if node_budget < m * m:
        raise ValueError(f"node_budget must be at least m*m = {m * m}, got {node_budget}")
    out = np.empty((count, m * m), dtype=np.int32)
    state, _ = _mix64(int(seed))
    got = failed = 0
    while got < count:
        state, t = _fill(m, state, node_budget)
        if t is not None:
            out[got] = t
            got += 1
            failed = 0
            continue
        failed += 1
        if failed == _MAX_FAILED_ATTEMPTS:
            raise ValueError(
                f"node_budget {node_budget} is too small for order {m}: "
                f"{failed} attempts in a row ran out of nodes"
            )
    return out.reshape(count, m, m)

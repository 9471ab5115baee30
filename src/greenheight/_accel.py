"""Hot kernels: associativity witness, exhaustive small-table enumeration,
and a randomized associative-table sampler.

Each kernel exists twice: a numba @njit build and a pure NumPy/Python build.
Set GREENHEIGHT_NO_NUMBA=1 (or uninstall numba) to force the pure path; the
dispatchers at the bottom pick automatically. Both paths share one PRNG
(splitmix64 on uint64), so seeded sampling is byte-identical either way.
benchmarks/bench_accel.py times the two builds against each other.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

NUMBA_ENABLED = os.environ.get("GREENHEIGHT_NO_NUMBA", "") == ""
if NUMBA_ENABLED:
    try:
        from numba import njit as _njit
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False


def _build_kernels(decorate):
    """Instantiate the loop kernels once per execution mode.

    ``decorate`` is numba.njit or an identity function; the bodies are
    identical, so jit and interpreted runs agree bit for bit.
    """

    @decorate
    def mix64(state):
        state = state + _GOLDEN
        z = state
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        z = z ^ (z >> _S31)
        return state, z

    @decorate
    def rand_below(state, n):
        state, z = mix64(state)
        return state, np.int64(z % np.uint64(n))

    @decorate
    def assoc_witness_loop(t):
        m = t.shape[0]
        for a in range(m):
            for b in range(m):
                ab = t[a, b]
                for c in range(m):
                    if t[ab, c] != t[a, t[b, c]]:
                        return a, b, c
        return -1, -1, -1

    @decorate
    def enumerate_assoc_loop(m):
        cells = m * m
        total = 1
        for _ in range(cells):
            total *= m
        buf = np.empty((total, cells), dtype=np.int32)
        tab = np.empty(cells, dtype=np.int32)
        count = 0
        for code in range(total):
            x = code
            for pos in range(cells - 1, -1, -1):
                tab[pos] = x % m
                x //= m
            good = True
            for a in range(m):
                if not good:
                    break
                for b in range(m):
                    if not good:
                        break
                    ab = tab[a * m + b]
                    for c in range(m):
                        if tab[ab * m + c] != tab[a * m + tab[b * m + c]]:
                            good = False
                            break
            if good:
                buf[count] = tab
                count += 1
        return buf[:count].copy()

    @decorate
    def placement_ok(t, m, a, b):
        # t[a, b] was just set; -1 marks empty cells. Check exactly the
        # triples whose four participating cells became fully determined.
        v = t[a, b]
        for z in range(m):
            bz = t[b, z]
            if bz < 0:
                continue
            vz = t[v, z]
            abz = t[a, bz]
            if vz < 0 or abz < 0:
                continue
            if vz != abz:
                return False
        for x in range(m):
            xa = t[x, a]
            if xa < 0:
                continue
            xab = t[xa, b]
            xv = t[x, v]
            if xab < 0 or xv < 0:
                continue
            if xab != xv:
                return False
        for x in range(m):
            for y in range(m):
                if t[x, y] == a:
                    yb = t[y, b]
                    if yb < 0:
                        continue
                    xyb = t[x, yb]
                    if xyb < 0:
                        continue
                    if xyb != v:
                        return False
        for y in range(m):
            for z in range(m):
                if t[y, z] == b:
                    ay = t[a, y]
                    if ay < 0:
                        continue
                    ayz = t[ay, z]
                    if ayz < 0:
                        continue
                    if ayz != v:
                        return False
        return True

    @decorate
    def fill_shuffled(cand, depth, m, state):
        for k in range(m):
            cand[depth, k] = k
        for k in range(m - 1, 0, -1):
            state, j = rand_below(state, k + 1)
            tmp = cand[depth, k]
            cand[depth, k] = cand[depth, j]
            cand[depth, j] = tmp
        return state

    @decorate
    def sample_fill(m, state, node_budget):
        # Backtracking fill in row-major cell order, candidate values
        # shuffled per cell; every placement is checked incrementally.
        cells = m * m
        t = np.full((m, m), -1, dtype=np.int32)
        cand = np.empty((cells, m), dtype=np.int32)
        ptr = np.zeros(cells, dtype=np.int32)
        state = fill_shuffled(cand, 0, m, state)
        depth = 0
        nodes = 0
        while True:
            if ptr[depth] == m:
                if depth == 0:
                    return state, t, False
                depth -= 1
                t[depth // m, depth % m] = -1
                continue
            v = cand[depth, ptr[depth]]
            ptr[depth] += 1
            a = depth // m
            b = depth % m
            t[a, b] = v
            nodes += 1
            if nodes > node_budget:
                t[a, b] = -1
                return state, t, False
            if placement_ok(t, m, a, b):
                depth += 1
                if depth == cells:
                    return state, t, True
                ptr[depth] = 0
                state = fill_shuffled(cand, depth, m, state)
            else:
                t[a, b] = -1

    @decorate
    def sample_many(m, count, seed, node_budget):
        out = np.empty((count, m, m), dtype=np.int32)
        state, _ = mix64(np.uint64(seed))
        got = 0
        while got < count:
            state, t, ok = sample_fill(m, state, node_budget)
            if ok:
                out[got] = t
                got += 1
        return out

    return SimpleNamespace(
        mix64=mix64,
        rand_below=rand_below,
        assoc_witness_loop=assoc_witness_loop,
        enumerate_assoc_loop=enumerate_assoc_loop,
        placement_ok=placement_ok,
        sample_fill=sample_fill,
        sample_many=sample_many,
    )


python_kernels = _build_kernels(lambda f: f)
numba_kernels = _build_kernels(_njit) if NUMBA_ENABLED else None


def assoc_witness_numpy(table, chunk: int = 32):
    """Vectorized witness search; scans rows in blocks to bound memory.

    Returns the lexicographically first violating (a, b, c), or None.
    """
    t = np.ascontiguousarray(table, dtype=np.int32)
    m = t.shape[0]
    for a0 in range(0, m, chunk):
        rows = t[a0 : a0 + chunk]
        lhs = t[rows, :]
        rhs = rows[:, t]
        neq = lhs != rhs
        if neq.any():
            i, b, c = np.unravel_index(int(np.argmax(neq)), neq.shape)
            return int(i) + a0, int(b), int(c)
    return None


def enumerate_assoc_tables_numpy(m: int):
    """All associative m-by-m tables (m <= 3), lexicographic by flat cells."""
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


def assoc_witness(table):
    """First (a, b, c) with (a*b)*c != a*(b*c), or None if associative."""
    t = np.ascontiguousarray(table, dtype=np.int32)
    if numba_kernels is not None:
        a, b, c = numba_kernels.assoc_witness_loop(t)
        return None if a < 0 else (int(a), int(b), int(c))
    return assoc_witness_numpy(t)


def enumerate_assoc_tables(m: int):
    """Every associative table of the given order, 1 <= m <= 3."""
    if not 1 <= m <= 3:
        raise ValueError("exhaustive enumeration is limited to order <= 3")
    if numba_kernels is not None:
        flat = numba_kernels.enumerate_assoc_loop(m)
        return flat.reshape(-1, m, m)
    return enumerate_assoc_tables_numpy(m)


def _check_sample_args(m, count, node_budget):
    if m < 1:
        raise ValueError("order must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    # every attempt stops after node_budget placements and a table takes
    # m*m of them, so a smaller budget would restart forever
    if node_budget < m * m:
        raise ValueError(f"node_budget must be at least m*m = {m * m}, got {node_budget}")


def sample_assoc_tables(m: int, count: int, seed: int = 0, node_budget: int = 200_000):
    """Draw associative m-by-m tables by seeded backtracking fill.

    Draws are with replacement and not uniform over associative tables;
    the output depends only on (m, count, seed, node_budget), never on
    which execution mode runs.
    """
    _check_sample_args(m, count, node_budget)
    if numba_kernels is not None:
        return numba_kernels.sample_many(m, count, seed, node_budget)
    with np.errstate(over="ignore"):
        return python_kernels.sample_many(m, count, seed, node_budget)


def sample_assoc_tables_python(m, count, seed=0, node_budget=200_000):
    _check_sample_args(m, count, node_budget)
    with np.errstate(over="ignore"):
        return python_kernels.sample_many(m, count, seed, node_budget)


def sample_assoc_tables_numba(m, count, seed=0, node_budget=200_000):
    if numba_kernels is None:
        raise RuntimeError("numba path is disabled")
    _check_sample_args(m, count, node_budget)
    return numba_kernels.sample_many(m, count, seed, node_budget)

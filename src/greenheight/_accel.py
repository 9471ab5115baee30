"""Hot kernels: the exact associativity check and witness search (numpy),
and one backtracking fill on plain Python ints that both enumerates every
associative table of order <= 4, trying cell values in ascending order, and
samples them, trying values in an order shuffled by splitmix64, so a sample
depends on nothing but the sampler's arguments.
"""

from __future__ import annotations

import math

import numpy as np

# no compiled kernels exist; kept because perfbench/child.py reads it
numba_kernels = None

_MASK64 = (1 << 64) - 1
# cells per block of the witness scan, to bound its memory (32 rows at order 256)
_WITNESS_CELLS = 1 << 21
# order from which Light's test goes first: a measured speed crossover only
_LIGHT_MIN_ORDER = 48
# failed sampler attempts in a row after which the node budget is deemed
# unworkable; valid inputs were seen to need at most 6
_MAX_FAILED_ATTEMPTS = 1000


def assoc_witness(table):
    """Lexicographically first (a, b, c) with (a*b)*c != a*(b*c), or None
    if the table is associative; exact at every order. From order
    _LIGHT_MIN_ORDER up it first runs Light's test (Clifford and Preston,
    1961, section 1.2): (x*g)*y == x*(g*y) for all x, y and all g in A, where
    A's closure under right multiplication by A is S. The middles that pass
    form a subsemigroup, so then the table is associative. This costs
    m*m*|A|, or m**3 where no smaller A exists, as in null and left-zero
    semigroups. Below that order, and on failure, every element is a middle."""
    t = np.ascontiguousarray(table, dtype=np.int32)
    if len(t) >= _LIGHT_MIN_ORDER and _first_failure(t, _generators(t)) is None:
        return None
    return _first_failure(t, slice(None))


def _generators(t):
    """Sorted A for assoc_witness: elements by how often they occur as entries,
    fewest first, each added if not yet reached; O(m*|A|) lookups in all."""
    reached = np.zeros(len(t), dtype=bool)
    gens = []
    for g in np.argsort(np.bincount(t.ravel(), minlength=len(t)), kind="stable").tolist():
        if not reached[g]:
            gens.append(g)
            # the reached set times g, then each new element times every generator
            new = np.append(t[reached, g], g)
            while new.size:
                new = np.unique(new[~reached[new]])
                reached[new] = True
                new = t[new][:, gens].ravel()
    return np.array(sorted(gens))


def _first_failure(t, middles):
    """Lex-first (a, k, c) with (a*b)*c != a*(b*c), b the k-th of middles (a slice
    or sorted indices), or None; a block of rows has <= _WITNESS_CELLS cells or 1 row."""
    left, right = t[:, middles], t[middles]
    step = max(1, _WITNESS_CELLS // left.size)
    for a0 in range(0, len(t), step):
        neq = t[left[a0 : a0 + step]] != t[a0 : a0 + step, right]
        if neq.any():
            i, k, c = np.unravel_index(int(np.argmax(neq)), neq.shape)
            return int(i) + a0, int(k), int(c)
    return None


def _mix64(state):
    """One splitmix64 step on 64-bit ints: (next state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _shuffler(m, seed):
    """A candidates() for the fill that returns a new Fisher-Yates shuffle
    of range(m) on each call, all drawn from one splitmix64 stream."""
    state, _ = _mix64(seed)

    def shuffled():
        nonlocal state
        cand = list(range(m))
        for k in range(m - 1, 0, -1):
            state, z = _mix64(state)
            j = z % (k + 1)
            cand[k], cand[j] = cand[j], cand[k]
        return cand

    return shuffled


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


def _fill(m, candidates, node_budget):
    """Depth-first backtracking over the cells of an m-by-m table in row-major
    order, each newly reached cell trying the values candidates() returns in
    turn. Yields every associative table as a flat list, in the order met,
    and stops when no branch is left or after node_budget placements."""
    cells = m * m
    t = [-1] * cells
    nodes = 0

    def place(depth):
        nonlocal nodes
        for v in candidates():
            nodes += 1
            if nodes > node_budget:
                return
            t[depth] = v
            if not _placement_ok(t, m, *divmod(depth, m)):
                continue
            if depth + 1 < cells:
                yield from place(depth + 1)
            else:
                yield t.copy()
        t[depth] = -1

    return place(0)


def enumerate_assoc_tables(m: int):
    """Every associative table of order 1 <= m <= 4, in lexicographic order
    of the flattened cells, which is the order the fill meets them in."""
    if not 1 <= m <= 4:
        raise ValueError(f"exhaustive enumeration needs 1 <= order <= 4, got {m}")
    ascending = list(range(m))
    tables = list(_fill(m, lambda: ascending, math.inf))
    return np.array(tables, dtype=np.int32).reshape(-1, m, m)


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
    shuffled = _shuffler(m, int(seed))
    tables = []
    failed = 0
    while len(tables) < count:
        # one attempt: the first table of a fill with fresh shuffles per cell
        t = next(_fill(m, shuffled, node_budget), None)
        if t is not None:
            tables.append(t)
            failed = 0
            continue
        failed += 1
        if failed == _MAX_FAILED_ATTEMPTS:
            raise ValueError(
                f"node_budget {node_budget} is too small for order {m}: "
                f"{failed} attempts in a row ran out of nodes"
            )
    return np.array(tables, dtype=np.int32).reshape(-1, m, m)

"""Hot kernels: the exact associativity check, which is Light's test by
whole-row numpy gathers over a generating set found in one walk on Python
ints, stopping at the first failing generator, and the lex-first witness
scan (numpy); and one backtracking fill on plain Python ints that
enumerates one associative table per isomorphism class through order 5,
pruned by associativity and by a partial lex-leader test over the
relabellings, and run once per order in a process; each table it gives is
checked exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import EngineBug

# no compiled kernels exist; kept because perfbench/child.py reads it
numba_kernels = None

# cells per block of middles in the witness scan, so that a block stays in cache;
# from order 182 up a block is one middle, m*m cells
_WITNESS_CELLS = 1 << 15
# order from which Light's test goes first: a measured speed crossover only
_LIGHT_MIN_ORDER = 48


def assoc_witness(table):
    """Lexicographically first (a, b, c) with (a*b)*c != a*(b*c), or None
    if the table is associative; exact at every order. From order
    _LIGHT_MIN_ORDER up it first runs Light's test (Clifford and Preston,
    1961, section 1.2): (x*g)*y == x*(g*y) for all x, y and all g in A, where
    A's closure under right multiplication by A is S. The middles that pass
    form a subsemigroup, so then the table is associative. For each g both
    sides are whole-row gathers, t[t[:, g]] and t.T[t[g]], compared
    transposed, and the test stops at the first g that fails. It costs
    m*m*|A|, or m**3 where no smaller A exists, as in null and left-zero
    semigroups. Below that order, and when some g fails, the lex-first scan
    over every middle gives the witness."""
    t = np.ascontiguousarray(table, dtype=np.int32)
    if len(t) >= _LIGHT_MIN_ORDER and _light_holds(t):
        return None
    return _first_failure(t)


def _light_holds(t):
    """Whether (x*g)*y == x*(g*y) for all x, y and each g in _generators(t),
    stopping at the first g that fails."""
    tt = np.ascontiguousarray(t.T)
    return all(np.array_equal(t[tt[g]], tt[t[g]].T) for g in _generators(t).tolist())


def _generators(t):
    """Sorted A for assoc_witness: elements by how often they occur as entries,
    fewest first, each added if not yet reached. One walk on Python ints reads
    x*g from a memoryview of column g, so it makes O(m*|A|) lookups in all."""
    m = len(t)
    reached = bytearray(m)
    seen, gens, cols = [], [], []
    for g in np.argsort(np.bincount(t.ravel(), minlength=m), kind="stable").tolist():
        if reached[g]:
            continue
        col = memoryview(t[:, g])
        gens.append(g)
        cols.append(col)
        # g and the reached set times g, then each new element times every generator
        todo = [g, *map(col.__getitem__, seen)]
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = 1
                seen.append(x)
                for c in cols:
                    y = c[x]
                    if not reached[y]:
                        todo.append(y)
        if len(seen) == m:
            break
    return np.array(sorted(gens))


def _first_failure(t):
    """Lex-first (a, b, c) with (a*b)*c != a*(b*c), or None. A block of middles
    has <= _WITNESS_CELLS cells or one middle; after a failure in row a, later
    blocks compare only rows < a."""
    step = max(1, _WITNESS_CELLS // t.size)
    best, rows = None, len(t)
    for b0 in range(0, len(t), step):
        neq = t[t[:rows, b0 : b0 + step]] != t[:rows, t[b0 : b0 + step]]
        first = int(neq.argmax())
        if neq.ravel()[first]:
            a, b, c = np.unravel_index(first, neq.shape)
            best, rows = (int(a), int(b) + b0, int(c)), int(a)
            if rows == 0:
                break
    return best


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


def _fill(m):
    """Depth-first backtracking over the cells of an m-by-m table in row-major
    order, each cell trying its values in ascending order. Yields, as flat
    lists in lexicographic order, the associative tables that are least among
    their relabellings: one per isomorphism class.

    At the end of each row the partial table is compared, cell by cell in
    row-major order, with its image under each non-identity relabelling p
    (the image has p(x*y) at (p(x), p(y))). A comparison stops at the first
    cell that either side has not filled. The branch is cut when an image is
    smaller at a cell both have filled: every completion then has a smaller
    relabelling too, so no lex-least table is lost, and at the last cell the
    test is exact."""
    cells = m * m
    t = [-1] * cells
    # per relabelling p: p, and for each cell of the image the cell of t it maps from
    identity = tuple(range(m))
    images = []
    for p in itertools.permutations(identity):
        if p != identity:
            inv = sorted(identity, key=p.__getitem__)
            images.append((p, [inv[x] * m + inv[y] for x in identity for y in identity]))

    def least(depth):
        for p, src in images:
            for c in range(depth + 1):
                v = t[src[c]]
                if v < 0:
                    break
                if p[v] != t[c]:
                    if p[v] < t[c]:
                        return False
                    break
        return True

    def place(depth):
        row_end = depth % m == m - 1
        for v in range(m):
            t[depth] = v
            if not _placement_ok(t, m, *divmod(depth, m)):
                continue
            if row_end and not least(depth):
                continue
            if depth + 1 < cells:
                yield from place(depth + 1)
            else:
                yield t.copy()
        t[depth] = -1

    return place(0)


# the largest order the fill enumerates
MAX_ORDER = 5

# order -> its read-only array of class representatives, filled on first use
_TABLES = {}


def enumerate_assoc_tables(m: int):
    """One associative table of order 1 <= m <= MAX_ORDER per isomorphism
    class, the lexicographically least of the flattened cells over all
    relabellings, as an int32 array of shape (classes, m, m) in increasing
    lexicographic order. The counts are 1, 5, 24, 188 and 1915 (OEIS
    A027851). Each order is filled once per process, and each table is
    checked by assoc_witness then, so its callers need not check it again;
    a failure raises EngineBug. Later calls return the same read-only array."""
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"enumeration needs 1 <= order <= {MAX_ORDER}, got {m}")
    tables = _TABLES.get(m)
    if tables is None:
        tables = np.array(list(_fill(m)), dtype=np.int32).reshape(-1, m, m)
        for i, table in enumerate(tables):
            witness = assoc_witness(table)
            if witness is not None:
                a, b, c = witness
                raise EngineBug(f"enumerated table {i} of order {m} is not associative:"
                                f" ({a}*{b})*{c} != {a}*({b}*{c})")
        tables.setflags(write=False)
        _TABLES[m] = tables
    return tables

"""Hot kernels: the exact associativity check, which is Light's test over a
generating set found in one walk on Python ints, from given generators or
else the rarest entries, stopping at the first failing generator, each
generator checked by whole-row numpy gathers over the full table or,
where that reads fewer cells, over the rows and columns
its images select, on a narrow unsigned copy of the table; the lex-first
witness scan (numpy), the one associativity scan; and one backtracking fill on
plain Python ints that enumerates one associative table per isomorphism
class through order 5, trying only a forced value where filled cells force
one, pruned by associativity and, at every cell, by a lex-leader test over
the relabellings it carries down, and run once per order in a process; each
table it yields then goes through the exact check.
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
# order from which Light's test goes first; below it the scan runs alone. Not
# a crossover: at smaller orders Light's test is faster on some tables and
# slower on others, depending on the size of the generating set
_LIGHT_MIN_ORDER = 48
# cells that a generator's image path, 2*(k + k')*m, must save on the full
# compare, m*m, to be taken (see _light_holds). One core, CPython 3.11, numpy
# 2.4, narrow copies, a generator each: on null tables the image path costs
# about 16 us whatever the order, since its preimages are found for all
# generators at once, and the full compare grows as m*m. The two tie near the
# order-135 null table (about 17,700 cells); at the order-181 one (32,037
# cells) the image path wins, 16 against 26 us, and it loses on
# bi_ideal_family(16) (-5,973 cells, 47 against 26 us)
_IMAGE_MIN_SAVING = 1 << 15


def assoc_witness(table, generators=()):
    """Lexicographically first (a, b, c) with (a*b)*c != a*(b*c), or None
    if the table is associative; exact at every order. From order
    _LIGHT_MIN_ORDER up it first runs Light's test (Clifford and Preston,
    1961, section 1.2): (x*g)*y == x*(g*y) for all x, y and all g in A, where
    A's closure under right multiplication by A is S. A starts from the
    given generators, element indices, and is completed where they do not
    reach all of S (see _generators): they change the cost, never the
    answer. The middles that pass form a subsemigroup, so then the table is
    associative. For each g the full compare gathers whole rows,
    t[t[:, g]] and t.T[t[g]], compared transposed, m*m cells; where x*g
    and g*y take k and k' values, the image path reads the
    (k + k')*m + k*k' cells those values select (see _light_holds), and g
    takes it when that saves _IMAGE_MIN_SAVING cells. The test stops at
    the first g that fails. It costs m*m*|A| where every g
    takes the full compare, m**3 where no smaller A exists either, as in
    left-zero semigroups; a null table has k = k' = 1 for every g, so about
    2*m*m. Below that order, and when some g fails, the lex-first scan over
    every middle gives the witness. Entries must lie in 0..m-1, as
    FiniteSemigroup and the fill ensure: Light's test reads a copy of the
    table in the narrowest unsigned dtype that holds m-1."""
    t = np.ascontiguousarray(table, dtype=np.int32)
    if len(t) >= _LIGHT_MIN_ORDER and _light_holds(t, generators):
        return None
    return _first_failure(t)


def _light_holds(t, seeds=()):
    """Whether (x*g)*y == x*(g*y) for all x, y and each g in
    _generators(t, seeds), stopping at the first g that fails. Entries of t
    must lie in 0..m-1: both paths read a copy of t in the narrowest
    unsigned dtype that holds m-1 (uint8 to order 256).

    With c = t[:, g] and r = t[g] taking the k values V and the k' values U,
    the full compare reads every cell of t[c] and t.T[r]. The identity holds
    if and only if each row v in V of t is constant on every fibre of r,
    each column u in U is constant on every fibre of c, and t[v, y] ==
    t[x, u] for one y in each fibre of r and one x in each fibre of c, which
    reads (k + k')*m + k*k' cells as row gathers of t and t.T. A generator
    takes this image path when m*m - 2*(k + k')*m >= _IMAGE_MIN_SAVING; k
    and k' of every g come from two (|A|, m) boolean scatters, and the x and
    y of every g that takes it from two more, in t's dtype (_preimages),
    made only when some g takes it."""
    m = len(t)
    gens = _generators(t, seeds)
    t = t.astype(np.min_scalar_type(m - 1))
    # the values of x*g and of g*y, one row of each mask per generator
    at = np.arange(0, len(gens) * m, m)[:, None]
    in_v, in_u = np.zeros((2, len(gens), m), dtype=bool)
    in_v.ravel()[at + t.T[gens]] = True
    in_u.ravel()[at + t[gens]] = True
    saving = m * m - 2 * m * (in_v.sum(axis=1) + in_u.sum(axis=1))
    images = saving >= _IMAGE_MIN_SAVING
    tt = np.ascontiguousarray(t.T)
    if images.any():
        x_of, y_of = _preimages(tt, gens, images), _preimages(t, gens, images)
    for i, (g, image) in enumerate(zip(gens.tolist(), images.tolist())):
        if image:
            ok = _images_agree(t, tt, g, in_v[i], in_u[i], x_of[i], y_of[i])
        else:
            ok = np.array_equal(t[tt[g]], tt[t[g]].T)
        if not ok:
            return False
    return True


def _preimages(side, gens, rows):
    """out[i, v], for each i where the bool mask rows is true, is some x
    with side[gens[i], x] == v, for each v that row takes: with side t.T,
    some x with x*g = v, with side t some y with g*y = v. One scatter, in
    side's dtype; the other rows are left unset."""
    m = side.shape[1]
    out = np.empty((len(gens), m), dtype=side.dtype)
    at = np.flatnonzero(rows)[:, None] * m
    out.ravel()[at + side.take(gens[rows], axis=0)] = np.arange(m, dtype=side.dtype)
    return out


def _images_agree(t, tt, g, in_v, in_u, x_of, y_of):
    """Light's test for g on its images: with c = t[:, g] and r = t[g] taking
    the values marked in in_v and in_u, each row v of t is constant on every
    fibre of r, each column u on every fibre of c, and t[v, y] == t[x, u] for
    y = y_of[u], with g*y = u, and x = x_of[v], with x*g = v (_preimages).
    tt is t.T, contiguous."""
    c, r = tt[g], t[g]
    v, u = np.flatnonzero(in_v), np.flatnonzero(in_u)
    rows, cols = t.take(v, axis=0), tt.take(u, axis=0)
    return ((rows == rows.take(y_of.take(r), axis=1)).all()
            and (cols == cols.take(x_of.take(c), axis=1)).all()
            and (rows.take(y_of.take(u), axis=1) == cols.take(x_of.take(v), axis=1).T).all())


def _generators(t, seeds=()):
    """Sorted A for assoc_witness: the seeds, then, only if they leave some
    element unreached, elements by how often they occur as entries, fewest
    first; each added if not yet reached. One walk on Python ints reads x*g
    from a memoryview of column g, so it makes O(m*|A|) lookups in all."""
    m = len(t)
    reached = bytearray(m)
    seen, gens, cols = [], [], []
    for g in itertools.chain(seeds, _by_count(t)):
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


def _by_count(t):
    """The elements by how often they occur as entries of t, fewest first,
    counted when first read."""
    yield from np.argsort(np.bincount(t.ravel(), minlength=len(t)), kind="stable").tolist()


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


def _forced(t, m, a, b, at):
    """The value that filled cells force on the empty cell (a, b) of the flat
    partial table t, where at[v] lists the cells (x, y) holding v: x*y = a
    forces a*b = x*(y*b), and y*z = b forces a*b = (a*y)*z. -1 if none is
    forced, -2 if two forced values conflict."""
    v = -1
    for x, y in at[a]:
        yb = t[y * m + b]
        if yb >= 0:
            w = t[x * m + yb]
            if w >= 0:
                if v >= 0 and w != v:
                    return -2
                v = w
    for y, z in at[b]:
        ay = t[a * m + y]
        if ay >= 0:
            w = t[ay * m + z]
            if w >= 0:
                if v >= 0 and w != v:
                    return -2
                v = w
    return v


def _placement_ok(t, m, a, b):
    """Whether setting cell (a, b) of the flat partial table t, where -1
    marks an empty cell, kept it associative: checks the fully determined
    triples in which the cell is a factor, (a*b)*z against a*(b*z) and
    (x*a)*b against x*(a*b). Those in which it is the product, x*y = a or
    y*z = b, are _forced's: it cuts a conflict and offers only a forced
    value."""
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
    return True


def _carry(t, depth, waiting):
    """Advance the relabellings waiting on cell depth of the partial table t,
    filled through that cell, and move each one that may still give a smaller
    image to the cell it waits on next. Returns those cells, for the caller
    to pop once the branch is done, or None if some image is smaller.

    waiting[k] holds (p, src, due, c): the image of t under p (p(x*y) at
    (p(x), p(y)), so its cell j is p(t[src[j]])) equals t before cell c, and
    cell c of both is filled once cell due[c] is. The comparison goes on
    until a cell not yet filled on either side or the first cell where they
    differ. A larger image is dropped, since every completion keeps it
    larger; a smaller one cuts the branch, since every completion then has
    a smaller relabelling. An image equal at every cell waits on the sink,
    cell m*m, which is never advanced."""
    moved = []
    for p, src, due, c in waiting[depth]:
        while due[c] <= depth:
            w = p[t[src[c]]]
            if w != t[c]:
                break
            c += 1
        else:
            moved.append(due[c])
            waiting[due[c]].append((p, src, due, c))
            continue
        if w < t[c]:
            for k in moved:
                waiting[k].pop()
            return None
    return moved


def _fill(m):
    """Depth-first backtracking over the cells of an m-by-m table in row-major
    order. Yields, as flat lists in lexicographic order, the associative
    tables that are least among their relabellings: one per isomorphism
    class.

    A cell tries only the value its filled cells force (_forced), or each
    value in ascending order if none is, and _placement_ok checks every
    value tried; between them a triple is checked when its last cell is
    filled. Each non-identity relabelling waits on the cell at which its
    comparison with the partial table can resume (_carry), so the lex-leader
    cut runs at every cell and touches only the relabellings that cell
    wakes; at the last cell the test is exact."""
    cells = m * m
    t = [-1] * cells
    # value -> the filled cells (x, y) holding it
    at = [[] for _ in range(m)]
    # cell -> the relabellings waiting on it; cell m*m is the sink
    waiting = [[] for _ in range(cells + 1)]
    identity = tuple(range(m))
    for p in itertools.permutations(identity):
        if p != identity:
            inv = sorted(identity, key=p.__getitem__)
            src = [inv[x] * m + inv[y] for x in identity for y in identity]
            due = [max(k, j) for k, j in enumerate(src)] + [cells]
            waiting[due[0]].append((p, src, due, 0))

    def place(depth):
        a, b = divmod(depth, m)
        forced = _forced(t, m, a, b, at)
        if forced == -2:
            return
        for v in range(m) if forced < 0 else (forced,):
            t[depth] = v
            at[v].append((a, b))
            if _placement_ok(t, m, a, b):
                moved = _carry(t, depth, waiting)
                if moved is not None:
                    if depth + 1 < cells:
                        yield from place(depth + 1)
                    else:
                        yield t.copy()
                    for k in moved:
                        waiting[k].pop()
            at[v].pop()
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
    A027851). Each order is filled once per process, and every table is
    checked then by assoc_witness, so its callers need not check it again;
    the first failing table raises EngineBug with its index and its
    lex-first witness. Later calls return the same read-only array."""
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

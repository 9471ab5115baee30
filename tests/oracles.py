"""Brute-force reference implementations used to cross-check the engine.

Everything here recomputes from first principles with plain loops, sets,
and dicts. No numpy, no shared code paths with the package: the only
interface is a multiplication table given as a list of lists of ints. The
exceptions are presentation_table_all_pairs, which keeps the engine's
earlier table construction (one reduce_word per pair of normal forms) as
the reference for the faster build that replaced it, and labelled_tables
and relabelled, which turn the engine's isomorphism-class representatives
into labelled test tables, as int32 arrays like the engine's own.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np


def as_rows(table):
    return [[int(x) for x in row] for row in table]


def check_associative(t) -> bool:
    m = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(m)
        for b in range(m)
        for c in range(m)
    )


def naive_assoc_witness(t):
    """Lexicographically first (a, b, c) with (ab)c != a(bc), or None."""
    m = len(t)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a, b, c
    return None


def principal_set(t, a: int, relation: str) -> frozenset:
    """{a} together with the products the relation quantifies over."""
    m = len(t)
    right = {t[a][x] for x in range(m)}
    left = {t[x][a] for x in range(m)}
    both = {t[x][t[a][y]] for x in range(m) for y in range(m)}
    if relation == "R":
        return frozenset({a} | right)
    if relation == "L":
        return frozenset({a} | left)
    if relation == "J":
        return frozenset({a} | right | left | both)
    raise ValueError(relation)


def naive_leq(t, a: int, b: int, relation: str) -> bool:
    if relation == "H":
        return naive_leq(t, a, b, "R") and naive_leq(t, a, b, "L")
    return a in principal_set(t, b, relation)


def naive_classes(t, relation: str):
    """Equivalence classes, each a frozenset, in no particular order."""
    m = len(t)
    seen = {}
    for a in range(m):
        if relation == "H":
            key = (principal_set(t, a, "R"), principal_set(t, a, "L"))
        else:
            key = principal_set(t, a, relation)
        seen.setdefault(key, set()).add(a)
    return [frozenset(v) for v in seen.values()]


def naive_class_leq(t, ca, cb, relation: str) -> bool:
    a = min(ca)
    b = min(cb)
    return naive_leq(t, a, b, relation)


def longest_chain(classes, leq) -> int:
    """Longest chain in the strict order induced by leq, by memoized DFS."""
    n = len(classes)
    strict = [
        [leq(classes[i], classes[j]) and not leq(classes[j], classes[i]) for j in range(n)]
        for i in range(n)
    ]
    memo = {}

    def up(i):
        if i not in memo:
            memo[i] = 1 + max((up(j) for j in range(n) if strict[i][j]), default=0)
        return memo[i]

    return max((up(i) for i in range(n)), default=0)


def naive_height(t, relation: str) -> int:
    classes = naive_classes(t, relation)
    return longest_chain(classes, lambda ca, cb: naive_class_leq(t, ca, cb, relation))


def naive_is_kind(t, members, kind: str) -> bool:
    m = len(t)
    mem = set(members)
    if not mem:
        return False
    if kind == "right_ideal":
        return all(t[a][x] in mem for a in mem for x in range(m))
    if kind == "left_ideal":
        return all(t[x][a] in mem for a in mem for x in range(m))
    if kind == "two_sided_ideal":
        return naive_is_kind(t, mem, "right_ideal") and naive_is_kind(t, mem, "left_ideal")
    if kind == "subsemigroup":
        return all(t[a][b] in mem for a in mem for b in mem)
    if kind == "bi_ideal":
        return naive_is_kind(t, mem, "subsemigroup") and all(
            t[t[a][x]][b] in mem for a in mem for b in mem for x in range(m)
        )
    raise ValueError(kind)


def naive_closure_witness(t, members, kind: str):
    """First product escaping members, in the engine's shapes and order, or
    None where the kind's law holds. Pair closure, for subsemigroups and
    bi-ideals: ("product", a, b, ab), a then b over members. Right and
    two-sided ideals: ("right", a, c, ac), a over members, c over S. Left
    and two-sided ideals, after the right law: ("left", c, a, ca), c over
    S, a over members. Bi-ideals, after pair closure: ("middle", a, u, b,
    aub), a over members, u over S, b over members."""
    if kind not in ("subsemigroup", "bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal"):
        raise ValueError(kind)
    m = len(t)
    mem = sorted(set(members))
    inside = set(mem)

    def products():
        if kind in ("subsemigroup", "bi_ideal"):
            yield from (("product", a, b, t[a][b]) for a in mem for b in mem)
        if kind in ("right_ideal", "two_sided_ideal"):
            yield from (("right", a, c, t[a][c]) for a in mem for c in range(m))
        if kind in ("left_ideal", "two_sided_ideal"):
            yield from (("left", c, a, t[c][a]) for c in range(m) for a in mem)
        if kind == "bi_ideal":
            yield from (("middle", a, u, b, t[t[a][u]][b])
                        for a in mem for u in range(m) for b in mem)

    return next((w for w in products() if w[-1] not in inside), None)


def sub_table(t, members):
    """Multiplication table of a multiplicatively closed subset."""
    mem = sorted(members)
    pos = {a: i for i, a in enumerate(mem)}
    return [[pos[t[a][b]] for b in mem] for a in mem]


def naive_relative_height(t, members, relation: str = "R") -> int:
    return naive_height(sub_table(t, members), relation)


def naive_chain_param(t, members, kind: str) -> int:
    """Longest chain of R-classes meeting the subset; containment for the
    right-sided kinds."""
    mem = set(members)
    classes = naive_classes(t, "R")
    if kind in ("bi_ideal", "left_ideal", "subsemigroup"):
        chosen = [c for c in classes if c & mem]
    else:
        chosen = [c for c in classes if c <= mem]
    return longest_chain(chosen, lambda ca, cb: naive_class_leq(t, ca, cb, "R"))


def all_subsets_of_kind(t, kind: str):
    m = len(t)
    for bits in range(1, 1 << m):
        members = frozenset(i for i in range(m) if bits >> i & 1)
        if naive_is_kind(t, members, kind):
            yield members


def naive_kernel(t) -> frozenset:
    """Minimal two-sided ideal, found by direct subset enumeration."""
    ideals = list(all_subsets_of_kind(t, "two_sided_ideal"))
    best = min(ideals, key=len)
    assert all(best <= i for i in ideals), "kernel must sit inside every ideal"
    return best


def naive_completely_simple(t) -> bool:
    """Is the kernel completely simple: its sub-table one J-class whose R-
    and L-heights are 1?"""
    sub = sub_table(t, naive_kernel(t))
    return (len(naive_classes(sub, "J")) == 1
            and naive_height(sub, "R") == 1 and naive_height(sub, "L") == 1)


def naive_kernel_chain(t, members, k: int):
    """First k-tuple of members, in lexicographic order, whose first element
    is in the kernel and which rises strictly in the R-order of members as a
    semigroup of its own, as a list; None when no such tuple exists."""
    mem = sorted(members)
    sub = sub_table(t, mem)
    pos = {a: i for i, a in enumerate(mem)}
    kern = naive_kernel(t)

    def below(a, b):
        return (naive_leq(sub, pos[a], pos[b], "R")
                and not naive_leq(sub, pos[b], pos[a], "R"))

    for chain in itertools.product(mem, repeat=k):
        if chain[0] in kern and all(below(a, b) for a, b in zip(chain, chain[1:])):
            return list(chain)
    return None


def naive_minimal_right_ideals(t):
    rights = list(all_subsets_of_kind(t, "right_ideal"))
    return [r for r in rights if not any(q < r for q in rights)]


def naive_regular(t) -> frozenset:
    m = len(t)
    return frozenset(a for a in range(m) if any(t[t[a][b]][a] == a for b in range(m)))


def naive_idempotents(t) -> frozenset:
    return frozenset(a for a in range(len(t)) if t[a][a] == a)


def naive_identity(t):
    """The two-sided identity element, or None."""
    m = len(t)
    for e in range(m):
        if all(t[e][x] == x and t[x][e] == x for x in range(m)):
            return e
    return None


def naive_inverse_counts(t):
    """counts[a] = number of b with a*b*a == a and b*a*b == b."""
    m = len(t)
    return [
        sum(1 for b in range(m) if t[t[a][b]][a] == a and t[t[b][a]][b] == b)
        for a in range(m)
    ]


# ---------------------------------------------------------------------------
# rewriting oracles


def apply_rule_at(word, lhs, rhs, pos):
    return word[:pos] + rhs + word[pos + len(lhs):]


def all_redexes(rules, word):
    """Every (rule index, position) whose left side occurs at position."""
    out = []
    for i, (lhs, _) in enumerate(rules):
        start = 0
        while True:
            p = word.find(lhs, start)
            if p < 0:
                break
            out.append((i, p))
            start = p + 1
    return out


def random_reduce(rules, word, rng, zero_token="!"):
    """Reduce by repeatedly firing a randomly chosen redex. Rules are
    (lhs, rhs) string pairs; rhs == zero_token means the absorbing zero."""
    while True:
        if word == zero_token:
            return word
        redexes = all_redexes(rules, word)
        if not redexes:
            return word
        i, p = redexes[rng.randrange(len(redexes))]
        lhs, rhs = rules[i]
        if rhs == zero_token:
            return zero_token
        word = apply_rule_at(word, lhs, rhs, p)


def presentation_normal_forms(rs):
    """The words w with reduce_word(rs, w) == w of a finite presentation, in
    shortlex order by extending each level's words one letter at a time (a
    prefix of a normal form is one), ZERO last iff declared."""
    from greenheight.rewriting import ZERO, reduce_word

    letters = [rs.word([tok]) for tok in rs.letters]
    words, level = [], [""]
    while level:
        level = [u + c for u in level for c in letters if reduce_word(rs, u + c) == u + c]
        words += level
    if rs.has_zero:
        words.append(ZERO)
    return words


def presentation_table_all_pairs(rs):
    """Names and table (list of lists) of a complete presentation, with
    every product u*v of normal forms reduced as one word."""
    from greenheight.rewriting import ZERO, reduce_word

    words = presentation_normal_forms(rs)
    index = {w: i for i, w in enumerate(words)}
    table = [
        [index[ZERO if u is ZERO or v is ZERO else reduce_word(rs, u + v)] for v in words]
        for u in words
    ]
    return [rs.display(w) for w in words], table


def random_word(letters, rng, max_len: int) -> str:
    n = rng.randrange(1, max_len + 1)
    return "".join(rng.choice(letters) for _ in range(n))


# ---------------------------------------------------------------------------
# misc


def brute_force_tables(m: int):
    """Every associative table of order m, as tuples of row-tuples."""
    cells = m * m
    out = []
    for assignment in itertools.product(range(m), repeat=cells):
        t = [list(assignment[i * m:(i + 1) * m]) for i in range(m)]
        if check_associative(t):
            out.append(tuple(tuple(r) for r in t))
    return out


def relabel(t, p):
    """The table of t under the relabelling x -> p[x]: p(x*y) at (p(x), p(y))."""
    m = len(t)
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[p[x]][p[y]] = p[t[x][y]]
    return out


def lex_least_relabelling(t):
    """The least relabelling of t, rows flattened, as a tuple of row-tuples."""
    m = len(t)
    return min(
        tuple(tuple(r) for r in relabel(t, p)) for p in itertools.permutations(range(m))
    )


def automorphism_count(t) -> int:
    """Relabellings p with p(x*y) == p(x)*p(y) for all x, y."""
    m = len(t)
    return sum(
        all(p[t[x][y]] == t[p[x]][p[y]] for x in range(m) for y in range(m))
        for p in itertools.permutations(range(m))
    )


@functools.lru_cache(maxsize=None)
def _representatives(m: int):
    """The engine's class representatives of order m, as lists of rows."""
    from greenheight import _accel

    return tuple(as_rows(t) for t in _accel.enumerate_assoc_tables(m))


@functools.lru_cache(maxsize=None)
def labelled_tables(m: int):
    """Every associative table of order m, labelled: each relabelling of each
    class representative, deduplicated, in lexicographic order of the
    flattened cells; a read-only int32 array of shape (count, m, m)."""
    tables = sorted(
        {tuple(itertools.chain.from_iterable(relabel(t, p)))
         for t in _representatives(m) for p in itertools.permutations(range(m))}
    )
    out = np.array(tables, dtype=np.int32).reshape(-1, m, m)
    out.flags.writeable = False
    return out


def relabelled(m: int, count: int, seed: int):
    """count random labelled tables of order m: seeded picks of class
    representatives, each under a random relabelling; an int32 array of
    shape (count, m, m). Picks are with replacement, uniform over classes."""
    reps = _representatives(m)
    rng = random.Random(seed)
    tables = [relabel(rng.choice(reps), rng.sample(range(m), m)) for _ in range(count)]
    return np.array(tables, dtype=np.int32).reshape(-1, m, m)


def transformation_table(maps):
    """Composition table for right actions: (f then g)(x) = g(f(x)).

    An image of -1 means "undefined", and stays undefined under any g, so
    partial maps compose too."""
    index = {f: i for i, f in enumerate(maps)}
    size = len(maps)
    table = [[0] * size for _ in range(size)]
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            table[i][j] = index[tuple(-1 if x < 0 else g[x] for x in f)]
    return table

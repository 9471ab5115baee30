"""Concrete semigroups: the two presentation families with their tight
bi-ideal/left-ideal witnesses, Brandt extensions and the iterated
right-ideal tower, null extensions, full transformation monoids, symmetric
inverse monoids, and a few stock small semigroups.

The extensions and the map monoids build their tables by whole-array numpy
operations; both map monoids share one composition builder.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

import numpy as np

from . import core, green, ideals, rewriting


@dataclass(frozen=True)
class FamilyInstance:
    """One member of a parametrized family, with its distinguished subset
    and the closed-form values the construction promises, under the keys
    the verify suites report."""

    semigroup: core.FiniteSemigroup
    distinguished: core.SubsetHandle
    expected: dict
    presentation_text: str | None = None


def bi_ideal_family(n: int) -> FamilyInstance:
    """Semigroup of order 12(n-1)+1 with R-height n whose bi-ideal generated
    by {x, y, z, tx} has relative R-height 3n-2 (the sharp CS-kernel case)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    zeros = [
        "x" * n, "yy", "zz", "tt",
        "xz", "xt", "yx", "yt", "zx", "zy", "tz",
        "t" + "x" * (n - 1),
    ]
    lines = ["letters: x y z t", "zero: 0",
             "rule: xyzt -> x", "rule: yzty -> y",
             "rule: ztyz -> z", "rule: tyzt -> t"]
    lines += [f"rule: {w} -> 0" for w in zeros]
    text = "\n".join(lines) + "\n"
    rs = rewriting.parse_presentation(text)
    s = rewriting.semigroup_from_presentation(rs)
    gens = {rewriting.element_index(rs, s, w) for w in ("x", "y", "z", "tx")}
    handle = ideals.generate(s, gens, "bi_ideal")
    expected = {"order": 12 * (n - 1) + 1, "height_r": n, "relative_height": 3 * n - 2,
                "chain_param": n, "complement": ["t", "ty", "tyz", "yzt", "zt"],
                "bound_pass": True, "bound_tight": True}
    return FamilyInstance(s, handle, expected, text)


def left_ideal_cs_family(n: int) -> FamilyInstance:
    """Semigroup of order 6(n-1)+1 with R-height n whose left ideal generated
    by {x, y} has relative R-height 2n-1; its J-classes form one chain."""
    if n < 2:
        raise ValueError("n must be at least 2")
    zeros = ["x" * n, "yy", "zz", "xz", "yx", "z" + "x" * (n - 1)]
    lines = ["letters: x y z", "zero: 0",
             "rule: xyz -> x", "rule: yzy -> y", "rule: zyz -> z"]
    lines += [f"rule: {w} -> 0" for w in zeros]
    text = "\n".join(lines) + "\n"
    rs = rewriting.parse_presentation(text)
    s = rewriting.semigroup_from_presentation(rs)
    gens = {rewriting.element_index(rs, s, w) for w in ("x", "y")}
    handle = ideals.generate(s, gens, "left_ideal")
    expected = {"order": 6 * (n - 1) + 1, "height_r": n, "height_j": 2 * n - 1,
                "relative_height": 2 * n - 1, "chain_param": n, "complement": ["yz", "z"],
                "bound_pass": True, "bound_tight": True}
    return FamilyInstance(s, handle, expected, text)


def brandt_extension(s: core.FiniteSemigroup, k: int) -> core.FiniteSemigroup:
    """Universe (I x S x I) | {0} with |I| = k: (i,a,j)(p,b,q) = (i,ab,q)
    when j = p, else 0. Element (i,a,j) sits at index ((i-1)m + a)k + (j-1);
    the zero is last."""
    if k < 1:
        raise ValueError("index set must be non-empty")
    m = s.order
    size = k * k * m + 1
    zero = size - 1
    names = [f"({p},{b},{q})" for p in range(1, k + 1) for b in s.names for q in range(1, k + 1)]
    names.append("0")
    # 0-based (i, a, j) of every non-zero element, in index order
    i, a, j = (v.astype(np.int32) for v in np.unravel_index(np.arange(size - 1), (k, m, k)))
    table = np.full((size, size), zero, dtype=np.int32)
    table[:-1, :-1] = np.where(
        j[:, None] == i, (i[:, None] * m + s.table[a[:, None], a]) * k + j, zero
    )
    return core.from_table(names, table)


def trivial_semigroup() -> core.FiniteSemigroup:
    return core.from_table(["e"], [[0]])


def left_zero_semigroup(k: int) -> core.FiniteSemigroup:
    """xy = x for all x, y."""
    if not 1 <= k <= 26:
        raise ValueError("order must be between 1 and 26")
    names = list(string.ascii_lowercase[:k])
    table = np.repeat(np.arange(k, dtype=np.int32)[:, None], k, axis=1)
    return core.from_table(names, table)


def null_semigroup(k: int) -> core.FiniteSemigroup:
    """All products equal the zero element; order k counting the zero."""
    if k < 1:
        raise ValueError("order must be positive")
    names = [f"n{i}" for i in range(1, k)] + ["0"]
    table = np.full((k, k), k - 1, dtype=np.int32)
    return core.from_table(names, table)


def brandt_example() -> core.FiniteSemigroup:
    """The 5-element Brandt semigroup: (i,j)(p,q) = (i,q) if j = p, else 0."""
    names = ["(1,1)", "(1,2)", "(2,1)", "(2,2)", "0"]
    table = np.full((5, 5), 4, dtype=np.int32)

    def idx(i, j):
        return (i - 1) * 2 + (j - 1)

    for i, j, p, q in itertools.product((1, 2), repeat=4):
        if j == p:
            table[idx(i, j), idx(p, q)] = idx(i, q)
    return core.from_table(names, table)


def right_ideal_tower(n: int) -> FamilyInstance:
    """Iterated Brandt extensions over the trivial semigroup: order obeys
    t(1) = 1, t(m+1) = 4 t(m) + 1; the principal right ideal of the nested
    element has relative R-height 2n-1 while the semigroup has R-height n.
    n is at most 7 (order 5461): at 8 the table alone would take 1.9 GB."""
    if not 1 <= n <= 7:
        raise ValueError("n must be between 1 and 7")
    s = trivial_semigroup()
    a = 0
    order = 1
    for _ in range(n - 1):
        a = 2 * a  # index of (1, a, 1) in the extension
        s = brandt_extension(s, 2)
        order = 4 * order + 1
    handle = ideals.generate(s, {a}, "right_ideal")
    expected = {"order": order, "height_r": n, "relative_height": 2 * n - 1, "chain_param": n}
    return FamilyInstance(s, handle, expected)


def null_extension(t_sem: core.FiniteSemigroup) -> FamilyInstance:
    """Adjoin a null mirror: S = T | {x_a} | {0} with a*x_b = x_a*b = x_(ab)
    and all other new products 0. The distinguished subset is the two-sided
    ideal N = {x_a} | {0}, with relative R-height 2 and chain parameter
    H_R(T) + 1."""
    m = t_sem.order
    size = 2 * m + 1
    zero = size - 1
    xprefix = "x_"
    while any(name.startswith(xprefix) for name in t_sem.names):
        xprefix = "x" + xprefix
    zname = "0"
    while zname in t_sem.names:
        zname = zname + "*"
    names = list(t_sem.names) + [xprefix + name for name in t_sem.names] + [zname]
    table = np.full((size, size), zero, dtype=np.int32)
    st = t_sem.table
    table[:m, :m] = st
    table[:m, m:2 * m] = m + st
    table[m:2 * m, :m] = m + st
    s = core.from_table(names, table)
    handle = core.SubsetHandle(s, frozenset(range(m, size)), "two_sided_ideal")
    expected = {"order": 2 * m + 1, "relative_height": 2,
                "chain_param": green.height(t_sem, "R") + 1, "bound_pass": True}
    return FamilyInstance(s, handle, expected)


def _composition_table(maps: np.ndarray) -> np.ndarray:
    """Composition table of total maps on {0..k-1}, composing left to right.

    The rows of `maps` are the maps, in increasing lexicographic order, and
    the composites must be among them. Cell (f, g) is the row of g(f(x)):
    `maps.T[maps]` gathers every g(f(x)) at once, and searchsorted finds the
    base-k code of each composite among the codes of the rows.
    """
    k = maps.shape[1]
    weights = k ** np.arange(k - 1, -1, -1)
    composites = maps.T[maps]  # [f, x, g] = g(f(x))
    return np.searchsorted(maps @ weights, weights @ composites)


def full_transformation_monoid(n: int) -> core.FiniteSemigroup:
    """All self-maps of {0..n-1}, composing left to right: (fg)(x) = g(f(x))."""
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    maps = list(itertools.product(range(n), repeat=n))
    names = ["".join(str(v) for v in f) for f in maps]
    return core.from_table(names, _composition_table(np.array(maps)))


def symmetric_inverse_monoid(n: int) -> core.FiniteSemigroup:
    """All partial injections of {0..n-1}, composing left to right; image -1
    marks "undefined" and displays as '-'."""
    if not 1 <= n <= 3:
        raise ValueError("n must be between 1 and 3")
    maps = [
        f
        for f in itertools.product(range(-1, n), repeat=n)
        if len({v for v in f if v >= 0}) == sum(1 for v in f if v >= 0)
    ]
    names = ["".join(str(v) if v >= 0 else "-" for v in f) for f in maps]
    # shifted by one, "undefined" is the point 0, which every map fixes
    total = np.array([(-1, *f) for f in maps]) + 1
    return core.from_table(names, _composition_table(total))

"""Bi-ideals and one-/two-sided ideals: generation, recognition, relative
R-height, the chain parameter and height-bound reports; and, on whole
stacks of tables, subset_arrays, the one entry to the subset scan and to
the table-level facts that the small-order oracle checks.

The relative order inside a subset is always computed inside it, from the
parent's products on its members (green's class poset of a handle, c*M in
the subset_arrays kernel), never by restricting the parent preorder; the two
genuinely differ (the 5-element Brandt example is the regression case).

The stacked scans read S's R and L orders from green.below_matrices; their
boolean product and longest chains keep forms of their own, for the reasons
of scale that green's module docstring measures. SubsetArrays.table_facts
holds the engine's one check that the kernel is completely simple.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import core, green
from .errors import EngineBug

IDEAL_KINDS = ("bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal")


def generate(s: core.FiniteSemigroup, xs, kind: str) -> core.SubsetHandle:
    """Smallest structure of the given kind containing the generators.

    right = X | XS; left = X | SX; two_sided = X | XS | SX | SXS;
    bi = X | X*S^1*X; the members are counted over X and these product
    blocks. A subsemigroup adds its members' products until a round adds none.
    """
    if kind not in core.KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    xa = sorted(set(operator.index(x) for x in xs))
    if not xa:
        raise ValueError("empty generating set")
    if xa[0] < 0 or xa[-1] >= s.order:
        raise ValueError("generator index out of range")
    t = s.table
    members = np.array(xa)
    rows = t.take(members, axis=0)  # XS, read by every kind but left ideals
    if kind == "right_ideal":
        members = _distinct(members, rows)
    elif kind == "left_ideal":
        members = _distinct(members, t.take(members, axis=1))
    elif kind == "two_sided_ideal":
        left = _distinct(t.take(members, axis=1))
        members = _distinct(members, rows, left, t.take(left, axis=0))  # XS, SX, (SX)S
    elif kind == "bi_ideal":
        mids = t.take(_distinct(rows), axis=0)  # (XS)S
        members = _distinct(members, rows.take(members, axis=1),  # XX
                            mids.take(members, axis=1))  # (XS)X
    else:
        while len(grown := _distinct(members, rows.take(members, axis=1))) > len(members):
            members, rows = grown, t.take(grown, axis=0)
    return core.SubsetHandle(s, members.tolist(), kind)


def _distinct(*entries):
    """The sorted distinct values of arrays of element indices; a count,
    not np.unique, whose first call in a process imports numpy.ma."""
    return np.bincount(np.concatenate(entries, axis=None)).nonzero()[0]


# subset_arrays walks all 2^m subsets as the bits of rows of words; at
# m = 16 a row is 1,024 uint64 words, and xm takes 2 MB a table
_SCAN_MAX_ORDER = 16


@dataclass(frozen=True, slots=True)
class SubsetArrays:
    """subset_arrays of a stack of N tables: row i is table i, column k - 1
    is the subset M with bitmask k. laws maps each kind of core.KINDS to an
    (N, 2^m - 1) bool array, true where M obeys its law. relative_height
    is M's R-height inside M, and 0 where M is not closed under products.
    chain_param is the longest chain of the R-classes of S that meet M, for
    every kind the chain parameter that chain_param gives a handle.
    table_facts() gives the stack's table-level facts from the inputs the
    scan read, kept in _inputs."""

    laws: dict
    relative_height: np.ndarray
    chain_param: np.ndarray
    _inputs: tuple = field(repr=False)  # tt, below_r, below_l

    def table_facts(self) -> TableFacts:
        """The table-level facts of the stack, in whole-array steps.

        S's R, L and J orders are stacked boolean below-matrices, R and L
        those the scan read from green.below_matrices, with the table axis
        last: below[c, b] is true where b is in c*S^1, S^1*c or S^1*c*S^1,
        J being the boolean product L.R. The J-height peels the J order as
        the scan peels its masks. The kernel K is the union of the minimal
        R-classes, the members with no member strictly R below them. Each
        minimal R-class must be a right ideal and K a two-sided ideal,
        completely simple (its own R.L all true, its R and L symmetric), or
        EngineBug is raised. The minimal principal right ideals are found by
        raw inclusion of the rows of R, the regular elements are the a in
        a*S*a, and a is in a*M when M meets the b with a*b = a, a set of
        masks in the scan's words.
        """
        tt, below_r, below_l = self._inputs
        m, n = tt.shape[1:]
        a = np.arange(m)[:, None, None]
        weight = np.left_shift(np.int32(1), np.arange(m, dtype=np.int32))
        minimal = ~(below_r & ~below_r.swapaxes(0, 1)).any(axis=1)
        down_r = weight @ below_r  # [c]: c*S^1 as an int32 bitmask
        inside = (down_r & ~down_r[:, None]) == 0  # [c, b]: b*S^1 inside c*S^1
        if (minimal[:, None] & below_r & ~inside).any():
            raise EngineBug("minimal R-class is not a right ideal")
        if (minimal[:, None] & below_l & ~minimal).any():
            raise EngineBug("union of the minimal R-classes is not a two-sided ideal")
        # K's own orders, c*K^1 and K^1*c for c in K: a factor outside K is masked to c
        k_right = green.below_matrices(np.where(minimal, tt, a), "R") & minimal[:, None]
        k_left = (green.below_matrices(np.where(minimal[:, None], tt, a[:, 0]), "L")
                  & minimal[:, None])
        if not ((~minimal[:, None] | (_product(k_right, k_left) == minimal)).all()
                and (k_right == k_right.swapaxes(0, 1)).all()
                and (k_left == k_left.swapaxes(0, 1)).all()):
            raise EngineBug("kernel is not completely simple")
        least = ~(inside & ~inside.swapaxes(0, 1)).any(axis=1)  # no row properly inside
        sandwich = tt[tt, a, np.arange(n)] == a  # [a, b]: a*b*a == a
        mem, full = _mask_words(m)
        fixed = _meets(tt == a, mem)  # [a]: the M with a in a*M
        below_j = _product(below_l, below_r)
        fronts = _peel(below_j & ~below_j.swapaxes(0, 1), np.ones((m, n), dtype=bool))
        return TableFacts(
            height_j=fronts.sum(axis=0, dtype=np.int32),
            kernel=weight @ minimal,
            right_union=weight @ (least[:, None] & below_r).any(axis=0),
            regular=weight @ sandwich.any(axis=1),
            local_right=_unpack(full & ~np.bitwise_or.reduce(mem[:, None] & ~fixed, axis=0),
                                m)[:, 1:],
        )


@dataclass(frozen=True, slots=True)
class TableFacts:
    """SubsetArrays.table_facts() of a stack of N tables, one entry per
    table, every set an int32 bitmask: the J-height, the kernel, the union
    of the minimal principal right ideals and the regular elements.
    local_right, of shape (N, 2^m - 1) with column k - 1 for mask k, is
    true where every a in M has a in a*M."""

    height_j: np.ndarray
    kernel: np.ndarray
    right_union: np.ndarray
    regular: np.ndarray
    local_right: np.ndarray


def subset_arrays(tables) -> SubsetArrays:
    """Laws, relative R-heights and the chain parameter of every nonempty subset
    of every table in a stack of shape (N, m, m), m <= 16, in whole-array
    steps on sets of masks, each a row of words (see _mask_words). The one
    entry to the stacked scans: it checks the stack and reads its
    element-major copy and its R and L below-matrices once, and its
    table_facts() reads the same three.

    Every array keeps its element axes first and the table axis last before
    the words, so each step runs over whole (N, W) slabs: xm[x, z] is the
    set of M with z in x*M, one OR of mem[y] per y. The laws read: x*M
    inside M for every x in M for subsemigroups, and also for every x in
    M*S for bi-ideals; M*S inside M for right ideals, S*M for left ideals,
    both for two-sided ones. In a closed M, b <_R c iff b is in c*M and c is
    not in b*M, so the strict order is xm & ~xm transposed, and a longest
    chain of R-classes counts the rounds that peel off the minimal remaining
    members. The chain parameter peels the R-classes of S that meet M under
    S's strict R order, stacked on the table axis of the same peel. The
    tables are taken to be associative.
    """
    tt = _element_major(tables)
    below_r, below_l = green.below_matrices(tt, "R"), green.below_matrices(tt, "L")
    m, n = tt.shape[1:]
    mem, full = _mask_words(m)
    width = mem.shape[1]
    xm = np.zeros((m, m, n, width), dtype=mem.dtype)
    cells = xm.reshape(m * m * n, width)
    at = (np.arange(m)[:, None, None] * m + tt) * n + np.arange(n)  # [x, y]: xm[x, x*y]
    for y in range(m):
        cells[at[:, y]] |= mem[y]
    in_ms = _meets(below_r.swapaxes(0, 1), mem)  # [x]: the M with x in M*S^1
    in_sm = _meets(below_l.swapaxes(0, 1), mem)
    held, outside = mem[:, None], ~mem[:, None]  # broadcast over the tables
    escapes = np.bitwise_or.reduce(xm & outside, axis=1)  # [x]: the M with x*M not inside M
    right_law = full & ~np.bitwise_or.reduce(in_ms & outside, axis=0)
    left_law = full & ~np.bitwise_or.reduce(in_sm & outside, axis=0)
    closed = full & ~np.bitwise_or.reduce(escapes & held, axis=0)
    law_words = {
        "subsemigroup": closed,
        # x in M*S^1: in M or M*S
        "bi_ideal": full & ~np.bitwise_or.reduce(escapes & in_ms, axis=0),
        "right_ideal": right_law,
        "left_ideal": left_law,
        "two_sided_ideal": right_law & left_law,
    }
    laws = _unpack(np.stack(list(law_words.values())), m)[..., 1:]
    # S's strict R order and its R-classes, as sets of masks: all or none
    above_r = below_r.swapaxes(0, 1)
    fronts = _peel(
        np.concatenate([xm & ~xm.swapaxes(0, 1), (below_r & ~above_r)[..., None] * full], axis=2),
        np.concatenate([held & closed, _meets(below_r & above_r, mem)], axis=1))
    counts = _unpack(fronts, m).sum(axis=0, dtype=np.int32)
    return SubsetArrays(
        laws=dict(zip(law_words, laws)),
        relative_height=counts[:n, 1:],
        chain_param=counts[n:, 1:],
        _inputs=(tt, below_r, below_l),
    )


def _element_major(tables):
    """The stack of tables as tt[x, y, n] = x*y in table n, checked to be
    an integer (N, m, m) stack, m <= 16, with entries in 0..m-1."""
    t = np.asarray(tables)
    if t.ndim != 3 or t.shape[1] != t.shape[2]:
        raise ValueError(f"subset_arrays needs an (N, m, m) stack, got shape {t.shape}")
    if t.shape[1] > _SCAN_MAX_ORDER:
        raise ValueError(f"subset_arrays scans tables of at most {_SCAN_MAX_ORDER}"
                         f" elements, got {t.shape[1]}")
    # checked before any use as an index, which would take a bool as a mask
    if t.dtype.kind not in "iu":
        raise ValueError(f"subset_arrays needs integer entries, got dtype {t.dtype}")
    if t.size and not 0 <= t.min() <= t.max() < t.shape[1]:
        raise ValueError(f"subset_arrays needs entries in 0..{t.shape[1] - 1}")
    return np.ascontiguousarray(t.transpose(1, 2, 0), dtype=np.intp)


@functools.cache
def _mask_words(m):
    """mem[x], the set of masks that hold element x, and full, the set of all
    2^m masks, as read-only rows of words with bit k of a row standing for
    mask k. A word is the narrowest unsigned dtype that holds 2^m bits, up
    to uint64 at m = 6; above that a row has W = 2^(m - 6) of them. mem has
    shape (m, W) and full (W,)."""
    size = 1 << m
    bits = np.ones((m + 1, size), dtype=bool)
    for x in range(m):
        bits[x].reshape(-1, 2, 1 << x)[:, 0] = False  # the masks without bit x
    dtype = np.dtype(f"<u{min(max(size // 8, 1), 8)}")
    words = np.packbits(bits, axis=1, bitorder="little").view(dtype)
    words = words.astype(dtype.newbyteorder("="))
    words.setflags(write=False)
    return words[:m], words[m]


def _unpack(words, m):
    """The 2^m bits of each row of words, as a bool array whose last axis
    has 2^m entries in place of the W words."""
    data = words.astype(words.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    return np.unpackbits(data, axis=-1, count=1 << m, bitorder="little").view(bool)


def _product(x, y):
    """The boolean product of two stacks of below-matrices, table axis last."""
    return (x[:, :, None] & y).any(axis=1)


def _meets(select, mem):
    """out[c] is the set of masks that meet {a : select[c, a]}, the OR of
    mem[a] over those a, for select of shape (m, m, N)."""
    return np.bitwise_or.reduce(select[..., None] * mem[:, None], axis=1)


def _peel(strict, alive):
    """The fronts of peeling alive, of shape (m, ...), in rounds that each
    remove the members with no member left strictly below them, where
    strict[c, b], of shape (m, m, ...), is true where b < c: front r is the
    OR of what is alive after r rounds, up to the round that leaves nothing.
    Sets of masks as words and single bools both peel. When strict orders
    the members, the fronts holding a mask count the classes on a longest
    chain of its members. A cycle cannot be peeled, and raises EngineBug
    after m rounds."""
    m = len(alive)
    fronts = np.zeros_like(alive)  # at most m fronts, each the shape of alive[0]
    for r in range(m):
        fronts[r] = np.bitwise_or.reduce(alive, axis=0)
        if not fronts[r].any():
            return fronts[:r]
        alive = alive & np.bitwise_or.reduce(strict & alive, axis=1)
    if alive.any():
        raise EngineBug("a strict order to peel has a cycle; is the table associative?")
    return fronts


def relative_height(handle: core.SubsetHandle) -> int:
    """R-height of the handle considered as its own semigroup."""
    return green.height(handle, "R")


def chain_param(s: core.FiniteSemigroup, handle: core.SubsetHandle) -> int:
    """Longest chain of the R_S-classes that meet the handle's members, for
    every kind: a right ideal holds the class of each member a (b R a puts b
    in a*S^1), so the classes it meets are the classes inside it."""
    if handle.parent is not s:
        raise ValueError("handle does not belong to this semigroup")
    poset = green.class_poset(s, "R")
    return poset.longest_chain(set(poset.class_of[list(handle.members)]))


@dataclass(frozen=True)
class BoundReport:
    """Verdict for one height-bound theorem instance."""

    kind: str
    theorem_id: str
    relative_height: int
    chain_param: int
    bound: int
    passed: bool
    tight: bool
    sanity_bound: int | None = None

    def to_json_dict(self) -> dict:
        """The report in JSON types; a report on arrays raises TypeError."""
        out = {
            "kind": self.kind,
            "theorem_id": self.theorem_id,
            "relative_height": int(self.relative_height),
            "chain_param": int(self.chain_param),
            "bound": int(self.bound),
            "pass": bool(self.passed),
            "tight": bool(self.tight),
        }
        if self.sanity_bound is not None:
            out["sanity_bound"] = int(self.sanity_bound)
            out["sanity_note"] = "sanity only"
        return out

    def to_text(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"theorem: {self.theorem_id}",
            f"relative_height: {self.relative_height}",
            f"chain_param: {self.chain_param}",
            f"bound: {self.bound}",
            f"pass: {'true' if self.passed else 'false'}",
            f"tight: {'true' if self.tight else 'false'}",
        ]
        if self.sanity_bound is not None:
            lines.append(f"sanity_bound: {self.sanity_bound} (sanity only)")
        return "\n".join(lines) + "\n"


def bound_report(s: core.FiniteSemigroup, handle: core.SubsetHandle) -> BoundReport:
    """Check the height bound of the handle's kind on it."""
    if handle.kind not in IDEAL_KINDS:
        raise ValueError("bound_report requires an ideal kind, not "
                         f"{handle.kind!r}")
    n = chain_param(s, handle)
    h = relative_height(handle)
    return bound_verdict(handle.kind, h, n)


# kind -> the theorem id, its bound as (a, b) for a*n + b at chain parameter
# n, and the sanity-only bound in the same form
_THEOREMS = {
    "bi_ideal": ("bi-ideal-cs-kernel", (3, -2), (3, -1)),
    "right_ideal": ("right-ideal", (2, -1), None),
    "left_ideal": ("left-ideal-cs-kernel", (2, -1), (2, 0)),
    "two_sided_ideal": ("two-sided-ideal", (1, 0), None),
}


def bound_verdict(kind: str, relative_height: int, chain_param: int) -> BoundReport:
    """The height-bound theorem of kind, applied to h and n.

    The kernel of a finite semigroup is completely simple
    (SubsetArrays.table_facts raises EngineBug otherwise), so bi-ideals and
    left ideals get the sharper bounds 3n-2 and 2n-1; the generic bounds
    3n-1 and 2n, which need no such kernel, are reported as sanity lines.

    h and n may be int arrays of one shape, as subset_arrays gives them:
    bound, passed, tight and a sanity bound are then arrays, element by
    element the scalar report's.
    """
    if kind not in IDEAL_KINDS:
        raise ValueError(f"bound_verdict requires an ideal kind, not {kind!r}")
    h, n = relative_height, chain_param
    theorem, (a, b), sanity = _THEOREMS[kind]
    bound = a * n + b
    return BoundReport(
        kind=kind,
        theorem_id=theorem,
        relative_height=h,
        chain_param=n,
        bound=bound,
        passed=h <= bound,
        tight=h == bound,
        sanity_bound=None if sanity is None else sanity[0] * n + sanity[1],
    )


"""Bi-ideals and one-/two-sided ideals: generation, recognition, relative
R-height, the chain parameter, height-bound reports, and kernel chains;
and, on whole stacks of tables, the subset scan and the table-level facts
that the small-order oracle checks.

The relative order inside a subset is always computed inside it, from the
parent's products on its members (green's class poset of a handle, c*M in
the subset_arrays kernel), never by restricting the parent preorder; the two
genuinely differ (the 5-element Brandt example is the regression case).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import core, green
from .errors import EngineBug, PreconditionViolated

IDEAL_KINDS = ("bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal")


def generate(s: core.FiniteSemigroup, xs, kind: str) -> core.SubsetHandle:
    """Smallest structure of the given kind containing the generators.

    right = X | XS; left = X | SX; two_sided = X | XS | SX | SXS;
    bi = X | X*S^1*X; subsemigroup = closure under products.
    """
    if kind not in core.KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    xa = sorted(set(operator.index(x) for x in xs))
    if not xa:
        raise ValueError("empty generating set")
    if xa[0] < 0 or xa[-1] >= s.order:
        raise ValueError("generator index out of range")
    t = s.table
    members = set(xa)
    if kind == "right_ideal":
        members.update(t[xa, :].ravel().tolist())
    elif kind == "left_ideal":
        members.update(t[:, xa].ravel().tolist())
    elif kind == "two_sided_ideal":
        left = _distinct(t[:, xa])
        members.update(t[xa, :].ravel().tolist())
        members.update(left.tolist())
        members.update(t[left, :].ravel().tolist())  # (SX)S
    elif kind == "bi_ideal":
        members.update(t[np.ix_(xa, xa)].ravel().tolist())  # XX
        mids = _distinct(t[xa, :])
        members.update(t[np.ix_(mids, xa)].ravel().tolist())  # (XS)X
    else:
        while True:
            mem_arr = np.array(sorted(members), dtype=np.int64)
            prods = set(t[np.ix_(mem_arr, mem_arr)].ravel().tolist())
            if prods <= members:
                break
            members |= prods
    return core.SubsetHandle(s, frozenset(members), kind)


def _distinct(entries):
    """The sorted distinct values of an array of element indices; a count,
    not np.unique, whose first call in a process imports numpy.ma."""
    return np.flatnonzero(np.bincount(entries.ravel()))


# subset_arrays walks all 2^m - 1 subsets, as int32 masks
_SCAN_MAX_ORDER = 16


@dataclass(frozen=True, slots=True)
class SubsetArrays:
    """subset_arrays of a stack of N tables: row i is table i, column k - 1
    is the subset M with bitmask k. laws maps each kind of core.KINDS to an
    (N, 2^m - 1) bool array, true where M obeys its law. relative_height
    is M's R-height inside M, and 0 where M is not closed under products.
    chain_param is the longest chain of the R-classes of S that meet M, for
    every kind the chain parameter that chain_param gives a handle."""

    laws: dict
    relative_height: np.ndarray
    chain_param: np.ndarray


def subset_arrays(tables) -> SubsetArrays:
    """Laws, relative R-heights and the chain parameter of every nonempty subset
    of every table in a stack of shape (N, m, m), m <= 16, in whole-array
    steps over the N * 2^m masks.

    Every set is an int32 bitmask, bit i for element i. x*M for each x, M*S
    and S*M take one OR-step per element over the mask axis. The laws read:
    x*M inside M for every x in M for subsemigroups, and also for every x in
    M*S for bi-ideals; M*S inside M for right ideals, S*M for left ideals,
    both for two-sided ones. In a closed M, b <=_R c iff b is in the down-set
    {c} | c*M, and a longest chain of R-classes counts the rounds that peel
    off the minimal remaining members. The chain parameter peels the
    R-classes of S that meet M with the same routine, on the column M = S,
    whose down-sets are c*S^1. The tables are taken to be associative.
    """
    bits = _product_bits(tables, "subset_arrays")
    n, m = bits.shape[:2]
    size = 1 << m
    masks = np.arange(size, dtype=np.int32)
    xm = np.zeros((n, size, m), dtype=np.int32)  # xm[:, k, x]: x*M for M = k
    ms = np.zeros((n, size), dtype=np.int32)
    sm = np.zeros((n, size), dtype=np.int32)
    right = np.bitwise_or.reduce(bits, axis=2)  # right[:, a]: aS
    left = np.bitwise_or.reduce(bits, axis=1)  # left[:, a]: Sa
    for b in range(m):  # the masks with top bit b are those below it plus b
        lo, hi = 1 << b, 2 << b
        np.bitwise_or(xm[:, :lo], bits[:, None, :, b], out=xm[:, lo:hi])
        np.bitwise_or(ms[:, :lo], right[:, b, None], out=ms[:, lo:hi])
        np.bitwise_or(sm[:, :lo], left[:, b, None], out=sm[:, lo:hi])
    element = np.arange(m, dtype=np.int32)
    escapes = (xm & ~masks[:, None]) != 0  # x*M leaves M
    closed = ~(escapes & (masks[:, None] >> element & 1).astype(bool)).any(axis=2)
    in_ms = (ms[:, :, None] >> element & 1).astype(bool)
    right_law = (ms & ~masks) == 0
    left_law = (sm & ~masks) == 0
    laws = {
        "subsemigroup": closed,
        "bi_ideal": closed & ~(escapes & in_ms).any(axis=2),
        "right_ideal": right_law,
        "left_ideal": left_law,
        "two_sided_ideal": right_law & left_law,
    }
    down = xm | np.left_shift(np.int32(1), element)  # {c} | c*M
    strict = _strict_below(down)
    heights = _peel(strict, np.where(closed, masks, 0))
    # M = S is the last column: the R-classes of S, and each element's class
    meets = np.zeros((n, size), dtype=np.int32)  # the classes M meets, as elements
    same = down[:, -1] & ~strict[:, -1]
    for b in range(m):
        lo, hi = 1 << b, 2 << b
        np.bitwise_or(meets[:, :lo], same[:, b, None], out=meets[:, lo:hi])
    return SubsetArrays(
        laws={kind: law[:, 1:] for kind, law in laws.items()},
        relative_height=heights[:, 1:],
        chain_param=_peel(strict[:, -1, None, :], meets)[:, 1:],
    )


@dataclass(frozen=True, slots=True)
class TableFacts:
    """table_facts of a stack of N tables, one entry per table, every set an
    int32 bitmask: the J-height, the kernel, the union of the minimal
    principal right ideals and the regular elements. local_right, of shape
    (N, 2^m - 1) with column k - 1 for mask k, is true where every a in M
    has a in a*M."""

    height_j: np.ndarray
    kernel: np.ndarray
    right_union: np.ndarray
    regular: np.ndarray
    local_right: np.ndarray


def table_facts(tables) -> TableFacts:
    """The table-level facts of every table in a stack of shape (N, m, m),
    m <= 16, in whole-array steps on the int32 masks of subset_arrays.

    The R and L down-sets of c are {c} | c*S and {c} | S*c, and the J
    down-set of c joins the R down-sets of its L down-set; the J-height
    peels it as subset_arrays peels the column M = S, whose chain parameter
    is the R-height. The kernel K is the union of the minimal R-classes,
    the members with an empty strict R down-set. As in green.kernel, each
    minimal R-class must be a right ideal and K a two-sided ideal,
    completely simple (its own R.L all true, its R and L symmetric), or
    EngineBug is raised. The minimal principal right ideals
    are found by raw mask inclusion, the regular elements are the a in
    a*S*a, and a is in a*M when M meets the b with a*b = a.
    """
    bits = _product_bits(tables, "table_facts")
    n, m = bits.shape[:2]
    element = np.arange(m, dtype=np.int32)
    weight = np.left_shift(np.int32(1), element)
    full = np.full(n, (1 << m) - 1, dtype=np.int32)
    down_r = np.bitwise_or.reduce(bits, axis=2) | weight  # {c} | c*S
    down_l = np.bitwise_or.reduce(bits, axis=1) | weight  # {c} | S*c
    strict_r = _strict_below(down_r)
    minimal = strict_r == 0  # c lies in a minimal R-class, which is down_r[c]
    kernel = minimal @ weight
    if (minimal & (_join(down_r, down_r) != down_r)).any():
        raise EngineBug("minimal R-class is not a right ideal")
    if (np.bitwise_or.reduce(np.where(minimal, down_l, 0), axis=1) & ~kernel).any():
        raise EngineBug("union of the minimal R-classes is not a two-sided ideal")
    # K's own down-sets {c} | c*K and {c} | K*c, and none outside K
    c_k = np.bitwise_or.reduce(np.where(minimal[:, None, :], bits, 0), axis=2)
    k_c = np.bitwise_or.reduce(np.where(minimal[:, :, None], bits, 0), axis=1)
    k_right = np.where(minimal, c_k | weight, 0)
    k_left = np.where(minimal, k_c | weight, 0)
    if not ((~minimal | (_join(k_right, k_left) == kernel[:, None])).all()
            and (_strict_below(k_right) == 0).all() and (_strict_below(k_left) == 0).all()):
        raise EngineBug("kernel is not completely simple")
    # down_r[b] is a proper subset of down_r[a]
    smaller = ((down_r[:, None, :] & ~down_r[:, :, None]) == 0) & (
        down_r[:, None, :] != down_r[:, :, None])
    least = ~smaller.any(axis=2)
    t = np.asarray(tables)
    row = np.arange(n)[:, None, None]
    a = element[:, None]
    sandwich = t[row, t, a] == a  # [:, a, b]: a*b*a == a
    fixers = (t == a) @ weight  # [:, a]: the b with a*b == a
    masks = np.arange(1, 1 << m, dtype=np.int32)[:, None]
    local = ((fixers[:, None, :] & masks) != 0) | ((masks >> element & 1) == 0)
    return TableFacts(
        height_j=_peel(_strict_below(_join(down_l, down_r)), full),
        kernel=kernel,
        right_union=np.bitwise_or.reduce(np.where(least, down_r, 0), axis=1),
        regular=sandwich.any(axis=2) @ weight,
        local_right=local.all(axis=2),
    )


def _product_bits(tables, caller):
    """bits[:, x, y] = 1 << x*y for a stack of shape (N, m, m), m <= 16."""
    t = np.asarray(tables)
    if t.ndim != 3 or t.shape[1] != t.shape[2]:
        raise ValueError(f"{caller} needs an (N, m, m) stack, got shape {t.shape}")
    if t.shape[1] > _SCAN_MAX_ORDER:
        raise ValueError(f"{caller} scans tables of at most {_SCAN_MAX_ORDER}"
                         f" elements, got {t.shape[1]}")
    # checked before the cast, which would truncate a float or pass a bool
    if t.dtype.kind not in "iu":
        raise ValueError(f"{caller} needs integer entries, got dtype {t.dtype}")
    if t.size and not 0 <= t.min() <= t.max() < t.shape[1]:
        raise ValueError(f"{caller} needs entries in 0..{t.shape[1] - 1}")
    return np.left_shift(np.int32(1), t.astype(np.int32))


def _join(sets, down):
    """out[..., c] is the union of down[..., b] over the b in sets[..., c]."""
    m = sets.shape[-1]
    inside = (sets[..., :, None] >> np.arange(m, dtype=np.int32) & 1).astype(bool)
    return np.bitwise_or.reduce(np.where(inside, down[..., None, :], 0), axis=-1)


def _strict_below(down):
    """down[..., c] is the down-set of c in a preorder on bits 0..m-1; the
    strict down-sets: b < c iff b is in down[c] and c is not in down[b]."""
    m = down.shape[-1]
    element = np.arange(m, dtype=np.int32)
    up = np.zeros_like(down)  # up[..., c]: the b whose down-set holds c
    for b in range(m):
        up |= (down[..., b, None] >> element & 1) << b
    return down & ~up


def _peel(strict, alive):
    """The number of rounds that empty the mask alive when each round removes
    the members with no member strictly below them, strict[..., c] holding
    the strict down-set of c; strict and alive broadcast. When strict orders
    the members, this is the longest chain of classes in alive. A cycle
    cannot be peeled, and raises EngineBug after m rounds."""
    m = strict.shape[-1]
    weight = np.left_shift(np.int32(1), np.arange(m, dtype=np.int32))
    rounds = np.zeros(np.broadcast_shapes(strict.shape[:-1], alive.shape), dtype=np.int32)
    for _ in range(m):
        if not alive.any():
            return rounds
        rounds += alive != 0
        minimal = (strict & alive[..., None]) == 0
        alive = alive & ~(minimal @ weight)
    if alive.any():
        raise EngineBug("a strict order to peel has a cycle; is the table associative?")
    return rounds


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

    The kernel of a finite semigroup is completely simple (green.kernel
    raises EngineBug otherwise), so bi-ideals and left ideals get the
    sharper bounds 3n-2 and 2n-1; the generic bounds 3n-1 and 2n, which
    need no such kernel, are reported as sanity lines.

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


def chain_into_kernel(s: core.FiniteSemigroup, handle: core.SubsetHandle, k: int):
    """A chain b1 <_B b2 <_B ... <_B bk of parent indices with b1 in K(S).

    Strictness is taken inside the handle's own semigroup. Requires
    relative_height(handle) >= k; the chain then exists. A greedy walk
    returns the lexicographically least one (by parent index sequence).
    """
    if handle.parent is not s:
        raise ValueError("handle does not belong to this semigroup")
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if handle.kind not in IDEAL_KINDS:
        raise PreconditionViolated(
            "chain_into_kernel needs a bi-ideal or ideal handle; plain"
            " subsemigroups carry no kernel-chain guarantee"
        )
    poset = green.class_poset(handle, "R")
    if poset.height < k:
        raise PreconditionViolated(
            f"relative height {poset.height} is smaller than k={k}"
        )
    kern = green.kernel(s).members
    parent_of = handle.sorted_members
    cls_of = poset.class_of.tolist()
    # up[c] >= k - pos leaves a class above c that passes, so no step backtracks
    up = poset.chains_above()
    fits = [p in kern for p in parent_of]
    chain = []
    for pos in range(k):
        e = next((e for e, c in enumerate(cls_of) if fits[e] and up[c] >= k - pos), None)
        if e is None:
            raise EngineBug("no kernel-rooted chain found despite sufficient height")
        chain.append(parent_of[e])
        fits = poset.strict[cls_of[e], poset.class_of].tolist()
    return chain

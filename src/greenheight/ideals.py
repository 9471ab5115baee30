"""Bi-ideals and one-/two-sided ideals: generation, recognition, relative
R-height, the chain parameter, height-bound reports, and kernel chains.

The relative order inside a subset is always computed inside it, on the
restricted semigroup for a handle and from the products c*M in the
subset_arrays kernel, never by restricting the parent preorder; the two
genuinely differ (the 5-element Brandt example is the regression case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, green
from .errors import EngineBug, PreconditionViolated

IDEAL_KINDS = ("bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal")
_INTERSECT_KINDS = ("bi_ideal", "left_ideal", "subsemigroup")


def generate(s: core.FiniteSemigroup, xs, kind: str) -> core.SubsetHandle:
    """Smallest structure of the given kind containing the generators.

    right = X | XS; left = X | SX; two_sided = X | XS | SX | SXS;
    bi = X | X*S^1*X; subsemigroup = closure under products.
    """
    if kind not in core.KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    xa = sorted(set(int(x) for x in xs))
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
        right = np.unique(t[xa, :])
        left = np.unique(t[:, xa])
        members.update(right.tolist())
        members.update(left.tolist())
        members.update(t[left, :].ravel().tolist())  # (SX)S
    elif kind == "bi_ideal":
        members.update(core.product_of_sets(s, xa, xa, through_identity=True))
    else:
        while True:
            mem_arr = np.array(sorted(members), dtype=np.int64)
            prods = set(t[np.ix_(mem_arr, mem_arr)].ravel().tolist())
            if prods <= members:
                break
            members |= prods
    return core.SubsetHandle(s, frozenset(members), kind)


# subset_arrays walks all 2^m - 1 subsets, as int32 masks
_SCAN_MAX_ORDER = 16


@dataclass(frozen=True, slots=True)
class SubsetRecord:
    """One subset of the ideal_subsets scan with a kind whose law it obeys,
    its relative R-height and its chain parameter."""

    members: frozenset
    kind: str
    relative_height: int
    chain_param: int


@dataclass(frozen=True, slots=True)
class SubsetArrays:
    """subset_arrays of a stack of N tables: row i is table i, column k - 1
    is the subset M with bitmask k. laws maps each kind of core.KINDS to an
    (N, 2^m - 1) bool array, true where M obeys its law. relative_height
    is M's R-height inside M, and 0 where M is not closed under products.
    meet_chain and inside_chain are the longest chains of the R-classes of
    S that meet M and that lie inside M."""

    laws: dict
    relative_height: np.ndarray
    meet_chain: np.ndarray
    inside_chain: np.ndarray

    def chain_param(self, kind: str) -> np.ndarray:
        """The chain parameter of chain_param for each subset of the kind."""
        return self.meet_chain if kind in _INTERSECT_KINDS else self.inside_chain


def subset_arrays(tables) -> SubsetArrays:
    """Laws, relative R-heights and chain parameters of every nonempty subset
    of every table in a stack of shape (N, m, m), m <= 16, in whole-array
    steps over the N * 2^m masks.

    Every set is an int32 bitmask, bit i for element i. x*M for each x, M*S
    and S*M take one OR-step per element over the mask axis. The laws read:
    x*M inside M for every x in M for subsemigroups, and also for every x in
    M*S for bi-ideals; M*S inside M for right ideals, S*M for left ideals,
    both for two-sided ones. In a closed M, b <=_R c iff b is in the down-set
    {c} | c*M, and a longest chain of R-classes counts the rounds that peel
    off the minimal remaining members. The chain parameters peel the
    R-classes of S with the same routine, on the column M = S, whose
    down-sets are c*S^1. The tables are taken to be associative.
    """
    t = np.asarray(tables)
    if t.ndim != 3 or t.shape[1] != t.shape[2]:
        raise ValueError(f"subset_arrays needs an (N, m, m) stack, got shape {t.shape}")
    n, m = t.shape[:2]
    if m > _SCAN_MAX_ORDER:
        raise ValueError(f"subset_arrays scans tables of at most {_SCAN_MAX_ORDER}"
                         f" elements, got {m}")
    size = 1 << m
    masks = np.arange(size, dtype=np.int32)
    bits = np.left_shift(np.int32(1), t.astype(np.int32))  # bits[:, x, y]: x*y
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
    below_s = strict[:, -1, None, :]
    meets = np.zeros((n, size), dtype=np.int32)  # the classes M meets, as elements
    same = down[:, -1] & ~strict[:, -1]
    for b in range(m):
        lo, hi = 1 << b, 2 << b
        np.bitwise_or(meets[:, :lo], same[:, b, None], out=meets[:, lo:hi])
    inside = (size - 1) & ~meets[:, ::-1]  # meets of the complement, reversed
    return SubsetArrays(
        laws={kind: law[:, 1:] for kind, law in laws.items()},
        relative_height=heights[:, 1:],
        meet_chain=_peel(below_s, meets)[:, 1:],
        inside_chain=_peel(below_s, inside)[:, 1:],
    )


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


def ideal_subsets(s: core.FiniteSemigroup, kinds=IDEAL_KINDS):
    """A SubsetRecord for each nonempty subset, in increasing bitmask (bit i
    for element i), and each kind in `kinds` order whose closure law holds:
    the records of subset_arrays on s's table alone, computed at the call.
    The relative height is taken inside each subset, and the chain
    parameter reads the R-classes of s, as chain_param does.

    The scan is exponential in the order: tables of more than 16 elements,
    and kinds outside core.KINDS, raise ValueError at the call.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in core.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
    return subset_records(subset_arrays(s.table[None]), 0, kinds)


def subset_records(arrays: SubsetArrays, row: int, kinds=IDEAL_KINDS):
    """The SubsetRecords of table `row` of subset_arrays, in the order of
    ideal_subsets: by mask, then by kind in `kinds` order."""
    kinds = tuple(kinds)
    if not kinds:
        return
    laws = np.stack([arrays.laws[kind][row] for kind in kinds], axis=1)
    m = laws.shape[0].bit_length()
    cols, which = np.nonzero(laws)
    chains = [arrays.chain_param(kind)[row].tolist() for kind in kinds]
    heights = arrays.relative_height[row].tolist()
    members, last = None, -1
    for col, j in zip(cols.tolist(), which.tolist()):
        if col != last:
            last, mask = col, col + 1
            members = frozenset(i for i in range(m) if mask >> i & 1)
        yield SubsetRecord(members, kinds[j], heights[col], chains[j][col])


def relative_height(handle: core.SubsetHandle) -> int:
    """R-height of the handle considered as its own semigroup."""
    return green.height(core.restrict_to_subsemigroup(handle), "R")


def chain_param(s: core.FiniteSemigroup, handle: core.SubsetHandle) -> int:
    """Longest chain of R_S-classes that intersect (bi/left/subsemigroup)
    or are contained in (right/two-sided) the handle's members."""
    if handle.parent is not s:
        raise ValueError("handle does not belong to this semigroup")
    poset = green.class_poset(s, "R")
    members = handle.members
    if handle.kind in _INTERSECT_KINDS:
        sel = [i for i, cls in enumerate(poset.classes) if any(a in members for a in cls)]
    else:
        sel = [i for i, cls in enumerate(poset.classes) if all(a in members for a in cls)]
    return poset.longest_chain(sel)


@dataclass(frozen=True)
class BoundReport:
    """Verdict for one height-bound theorem instance."""

    kind: str
    theorem_id: str
    relative_height: int
    chain_param: int
    bound: int
    cs_kernel: bool
    passed: bool
    tight: bool
    sanity_bound: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "theorem_id": self.theorem_id,
            "relative_height": self.relative_height,
            "chain_param": self.chain_param,
            "bound": self.bound,
            "cs_kernel": self.cs_kernel,
            "pass": self.passed,
            "tight": self.tight,
        }
        if self.sanity_bound is not None:
            out["sanity_bound"] = self.sanity_bound
            out["sanity_note"] = "sanity only"
        return out

    def to_text(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"theorem: {self.theorem_id}",
            f"relative_height: {self.relative_height}",
            f"chain_param: {self.chain_param}",
            f"bound: {self.bound}",
            f"cs_kernel: {'true' if self.cs_kernel else 'false'}",
            f"pass: {'true' if self.passed else 'false'}",
            f"tight: {'true' if self.tight else 'false'}",
        ]
        if self.sanity_bound is not None:
            lines.append(f"sanity_bound: {self.sanity_bound} (sanity only)")
        return "\n".join(lines) + "\n"


def bound_report(s: core.FiniteSemigroup, handle: core.SubsetHandle) -> BoundReport:
    """Check the height bound matching (kind, kernel shape) on one handle."""
    if handle.kind not in IDEAL_KINDS:
        raise ValueError("bound_report requires an ideal kind, not "
                         f"{handle.kind!r}")
    n = chain_param(s, handle)
    h = relative_height(handle)
    return bound_verdict(handle.kind, h, n, green.kernel(s).is_completely_simple)


def bound_verdict(kind: str, relative_height: int, chain_param: int,
                  cs_kernel: bool) -> BoundReport:
    """The height-bound theorem for (kind, kernel shape), applied to h and n.

    With a completely simple kernel the sharper variants apply (3n-2 for
    bi-ideals, 2n-1 for left ideals) and the looser generic bounds are
    reported as sanity lines; a finite kernel is always completely simple,
    so the generic bounds can never be exercised as primary here.
    """
    if kind not in IDEAL_KINDS:
        raise ValueError(f"bound_verdict requires an ideal kind, not {kind!r}")
    h, n, cs = relative_height, chain_param, cs_kernel
    sanity = None
    if kind == "bi_ideal":
        if cs:
            theorem, bound, sanity = "bi-ideal-cs-kernel", 3 * n - 2, 3 * n - 1
        else:
            theorem, bound = "bi-ideal", 3 * n - 1
    elif kind == "right_ideal":
        theorem, bound = "right-ideal", 2 * n - 1
    elif kind == "left_ideal":
        if cs:
            theorem, bound, sanity = "left-ideal-cs-kernel", 2 * n - 1, 2 * n
        else:
            theorem, bound = "left-ideal", 2 * n
    else:
        theorem, bound = "two-sided-ideal", n
    return BoundReport(
        kind=kind,
        theorem_id=theorem,
        relative_height=h,
        chain_param=n,
        bound=bound,
        cs_kernel=cs,
        passed=h <= bound,
        tight=h == bound,
        sanity_bound=sanity,
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
    sub = core.restrict_to_subsemigroup(handle)
    poset = green.class_poset(sub, "R")
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

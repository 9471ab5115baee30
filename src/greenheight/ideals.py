"""Bi-ideals and one-/two-sided ideals: generation, recognition, relative
R-height, the chain parameter, height-bound reports, and kernel chains.

The relative order inside a subset is always computed inside it, on the
restricted semigroup for a handle and from the products c*M in the
ideal_subsets scan, never by restricting the parent preorder; the two
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


def is_kind(s: core.FiniteSemigroup, members, kind: str) -> bool:
    """Does the subset satisfy the closure law of the kind?"""
    return core.closure_violation(s, members, kind) is None


# ideal_subsets walks all 2^m - 1 subsets, so it refuses larger tables
_SCAN_MAX_ORDER = 16


@dataclass(frozen=True, slots=True)
class SubsetRecord:
    """One subset of the ideal_subsets scan with a kind whose law it obeys,
    its relative R-height and its chain parameter."""

    members: frozenset
    kind: str
    relative_height: int
    chain_param: int


def _mask(elements) -> int:
    out = 0
    for x in elements:
        out |= 1 << x
    return out


def ideal_subsets(s: core.FiniteSemigroup, kinds=IDEAL_KINDS):
    """A SubsetRecord for each nonempty subset, in increasing bitmask (bit i
    for element i), and each kind in `kinds` order whose closure law holds.

    Subsets are Python-int bitmasks, and nothing is restricted to a
    semigroup of its own. With xM the mask of x*M for every x, the laws
    read: M*M inside M for subsemigroups; aS inside M for every a in M for
    right ideals, Sa for left ideals, both for two-sided ones; M*M and
    x*M inside M for every x in M*S for bi-ideals. Because M is closed
    under products, b <=_R c inside M iff b is in {c} | c*M, so the
    relative R-height is the longest strict chain of those down-sets.
    The chain parameter reads the R-classes of s, as chain_param does.

    The scan is exponential in the order: tables of more than 16 elements,
    and kinds outside core.KINDS, raise ValueError at the call.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in core.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
    if s.order > _SCAN_MAX_ORDER:
        raise ValueError(f"ideal_subsets scans tables of at most {_SCAN_MAX_ORDER}"
                         f" elements, got {s.order}")
    return _scan(s, kinds)


def _scan(s, kinds):
    m = s.order
    t = s.table.tolist()
    elements = range(m)
    right = [_mask(row) for row in t]  # right[a]: aS
    left = [_mask(col) for col in zip(*t)]  # left[a]: Sa
    # x*M for every x packed in one int, the mask of x*M at bits m*x..m*x+m-1
    shifts = [m * x for x in elements]
    column = [sum(1 << (t[x][b] + m * x) for x in elements) for b in elements]
    every = (1 << m) - 1
    poset = green.class_poset(s, "R")
    class_of = poset.class_of.tolist()
    class_ids = range(len(poset.classes))
    every_class = (1 << len(class_ids)) - 1
    # per mask M: packed x*M, M*S, S*M and the R-classes of s that M meets,
    # each one element off a smaller M
    packed, ms_of, sm_of, meets = [0], [0], [0], [0]
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        packed.append(packed[rest] | column[low])
        ms_of.append(ms_of[rest] | right[low])
        sm_of.append(sm_of[rest] | left[low])
        meets.append(meets[rest] | 1 << class_of[low])
    chains = {}  # a selection of R-classes of s, as a mask -> its longest chain
    for mask in range(1, 1 << m):
        ms = ms_of[mask]
        xm = [packed[mask] >> shift & every for shift in shifts]
        members = [a for a in elements if mask >> a & 1]
        closed = all(xm[a] | mask == mask for a in members)
        laws = {
            "subsemigroup": closed,
            "right_ideal": ms | mask == mask,
            "left_ideal": sm_of[mask] | mask == mask,
        }
        laws["two_sided_ideal"] = laws["right_ideal"] and laws["left_ideal"]
        laws["bi_ideal"] = closed and all(
            xm[x] | mask == mask for x in elements if ms >> x & 1)
        subset = None
        for kind in kinds:
            if not laws[kind]:
                continue
            if subset is None:
                # one member c per R-class of M, keyed by its down-set; among
                # those members, c*M without c holds the ones strictly below c
                tops = {1 << c | xm[c]: c for c in members}
                below = [xm[c] & ~(1 << c) for c in elements]
                height = max(green.longest_chains(below, tops.values()))
                subset = frozenset(members)
            if kind in _INTERSECT_KINDS:
                selected = meets[mask]
            else:  # the classes that meet no element outside M
                selected = every_class & ~meets[every ^ mask]
            n = chains.get(selected)
            if n is None:
                n = chains[selected] = poset.longest_chain(
                    i for i in class_ids if selected >> i & 1)
            yield SubsetRecord(subset, kind, height, n)


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
    parent_of = sub.parent_map
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

"""Bi-ideals and one-/two-sided ideals: generation, recognition, relative
R-height, the chain parameter, height-bound reports, and kernel chains.

The relative order inside a handle is always computed on the restricted
semigroup, never by restricting the parent preorder; the two genuinely
differ (the 5-element Brandt example is the regression case).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import core, green
from .errors import EngineBug, NotClosed, PreconditionViolated

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


def ideal_subsets(s: core.FiniteSemigroup, kinds=IDEAL_KINDS):
    """Handles for all 2^m - 1 nonempty subsets, in increasing bitmask (bit i
    for element i), each with the kinds in `kinds` order whose closure law
    holds; the handle's own check is the only closure check."""
    for mask in range(1, 1 << s.order):
        members = frozenset(i for i in range(s.order) if mask >> i & 1)
        for kind in kinds:
            try:
                handle = core.SubsetHandle(s, members, kind)
            except NotClosed:
                continue
            yield handle


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

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
    """Check the height bound matching (kind, kernel shape) on one handle.

    With a completely simple kernel the sharper variants apply (3n-2 for
    bi-ideals, 2n-1 for left ideals) and the looser generic bounds are
    reported as sanity lines; a finite kernel is always completely simple,
    so the generic bounds can never be exercised as primary here.
    """
    if handle.kind not in IDEAL_KINDS:
        raise ValueError("bound_report requires an ideal kind, not "
                         f"{handle.kind!r}")
    n = chain_param(s, handle)
    h = relative_height(handle)
    cs = green.kernel(s).is_completely_simple
    sanity = None
    if handle.kind == "bi_ideal":
        if cs:
            theorem, bound, sanity = "bi-ideal-cs-kernel", 3 * n - 2, 3 * n - 1
        else:
            theorem, bound = "bi-ideal", 3 * n - 1
    elif handle.kind == "right_ideal":
        theorem, bound = "right-ideal", 2 * n - 1
    elif handle.kind == "left_ideal":
        if cs:
            theorem, bound, sanity = "left-ideal-cs-kernel", 2 * n - 1, 2 * n
        else:
            theorem, bound = "left-ideal", 2 * n
    else:
        theorem, bound = "two-sided-ideal", n
    return BoundReport(
        kind=handle.kind,
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
    relative_height(handle) >= k; the chain then exists, and the
    lexicographically smallest one (by parent index sequence) is returned.
    """
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
    strict = poset.strict
    cls_of = poset.class_of
    # longest strict chain upward from each class, for pruning
    up = poset.chains_above()

    order = range(len(sub))

    def dfs(prefix, last_cls):
        pos = len(prefix)
        if pos == k:
            return prefix
        for e in order:
            c = int(cls_of[e])
            if pos == 0:
                if parent_of[e] not in kern:
                    continue
            elif not strict[last_cls, c]:
                continue
            if up[c] < k - pos:
                continue
            found = dfs(prefix + [e], c)
            if found is not None:
                return found
        return None

    found = dfs([], -1)
    if found is None:
        raise EngineBug("no kernel-rooted chain found despite sufficient height")
    return [parent_of[e] for e in found]

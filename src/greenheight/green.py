"""Green's relations R, L, J, H over a finite semigroup: preorders, class
posets with heights, kernel and minimal right ideals, regular elements,
local right identities, and inverse-semigroup classification.

Each preorder is one m-by-m boolean "below" matrix, with below[b, a] true
when a <= b. The S^1 convention is kept without materializing an identity:
a <=_R b iff a = b or a in bS, so the R matrix is the identity plus one
scatter of the table's rows, and L the same from its columns. a <=_J b iff
a <=_L c <=_R b for some c, so J is the boolean product R.L; H is R and L.
Classes are the mutually reachable elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from . import core
from .errors import EngineBug

RELATIONS = ("R", "L", "J", "H")


def _boolean_product(x, y):
    return (x.astype(np.float32) @ y) > 0


def _below(s: core.FiniteSemigroup, relation: str):
    """below[b, a] is true when a <= b in the relation's preorder."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    cached = s._cache.get(("below", relation))
    if cached is not None:
        return cached
    t = s.table
    m = s.order
    if relation in ("R", "L"):
        below = np.eye(m, dtype=bool)
        idx = np.arange(m)
        if relation == "R":
            below[idx[:, None], t] = True  # below[b, b*x]
        else:
            below[idx, t] = True  # below[b, x*b]
    elif relation == "J":
        below = _boolean_product(_below(s, "R"), _below(s, "L"))
    else:  # H
        below = _below(s, "R") & _below(s, "L")
    below.setflags(write=False)
    s._cache[("below", relation)] = below
    return below


def longest_chains(below, ids=None):
    """below[i][j] is true when j < i in a strict order. lengths[i] counts
    the members of ids (default: all) on a longest chain of members with
    top i, and is 0 outside ids. Members are visited by the number of
    elements below them, a linear extension: j < i puts j, and everything
    below j, below i."""
    counts = [sum(row) for row in below]
    lengths = [0] * len(below)
    for i in sorted(range(len(below)) if ids is None else ids, key=counts.__getitem__):
        lengths[i] = 1 + max(compress(lengths, below[i]), default=0)
    return lengths


def leq(s: core.FiniteSemigroup, a: int, b: int, relation: str = "R") -> bool:
    """Green's preorder: is a below-or-equivalent-to b?"""
    a, b = int(a), int(b)
    if not (0 <= a < s.order and 0 <= b < s.order):
        raise ValueError("element index out of range")
    return bool(_below(s, relation)[b, a])


class ClassPoset:
    """Partition into Green's classes plus the induced partial order.

    classes are ordered by smallest member; strict[i, j] (read-only) is
    true when class i is strictly below class j; covers[i] lists the
    classes immediately below class i; height counts classes on a longest
    chain.
    """

    def __init__(self, semigroup, relation, classes, class_of, strict):
        self.semigroup = semigroup
        self.relation = relation
        self.classes = classes
        self.class_of = class_of
        self.strict = strict
        self._below_rows = strict.T.tolist()
        self.height = max(longest_chains(self._below_rows))

    def class_index(self, a: int) -> int:
        return int(self.class_of[int(a)])

    def leq_classes(self, i: int, j: int) -> bool:
        """Is class i below-or-equal class j?"""
        return i == j or bool(self.strict[i, j])

    def minimal_classes(self):
        return tuple(np.flatnonzero(~self.strict.any(axis=0)).tolist())

    def maximal_classes(self):
        return tuple(np.flatnonzero(~self.strict.any(axis=1)).tolist())

    @cached_property
    def covers(self):
        strict = self.strict
        cover = strict & ~_boolean_product(strict, strict)
        ids = range(len(strict))
        return tuple(tuple(compress(ids, col)) for col in cover.T.tolist())

    def longest_chain(self, class_ids=None) -> int:
        """Longest chain (in classes) within the induced subposet."""
        if class_ids is None:
            return self.height
        sel = set(int(i) for i in class_ids)
        if not sel:
            return 0
        return max(longest_chains(self._below_rows, sel))

    def chains_above(self):
        """lengths[i] = classes on a longest chain whose bottom is class i."""
        return longest_chains(self.strict.tolist())

    def to_dot(self) -> str:
        """Hasse diagram, one node per class, edges larger -> smaller."""
        names = self.semigroup.names
        lines = [f"digraph {self.relation}_classes {{"]
        for i, cls in enumerate(self.classes):
            label = "{" + ", ".join(names[a] for a in cls) + "}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  c{i} [label="{label}"];')
        for i in range(len(self.classes)):
            for j in self.covers[i]:
                lines.append(f"  c{i} -> c{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"ClassPoset({self.relation}, {len(self.classes)} classes,"
            f" height={self.height})"
        )


def class_poset(s: core.FiniteSemigroup, relation: str = "R") -> ClassPoset:
    cached = s._cache.get(("poset", relation))
    if cached is not None:
        return cached
    below = _below(s, relation)
    # each element's smallest equivalent; a class first appears at that member
    smallest = (below & below.T).argmax(axis=1).tolist()
    groups = {}
    for a, r in enumerate(smallest):
        groups.setdefault(r, []).append(a)
    reps = list(groups)
    number = {r: i for i, r in enumerate(reps)}
    class_of = np.array([number[r] for r in smallest], dtype=np.int32)
    rep_idx = np.array(reps)
    strict = below[rep_idx[:, None], rep_idx].T
    strict.flat[:: len(reps) + 1] = False
    if (strict & strict.T).any():
        raise EngineBug("class order is not antisymmetric: engine bug")
    strict.setflags(write=False)
    classes = tuple(tuple(g) for g in groups.values())
    poset = ClassPoset(s, relation, classes, class_of, strict)
    s._cache[("poset", relation)] = poset
    return poset


def height(s: core.FiniteSemigroup, relation: str = "R") -> int:
    """Maximum cardinality of a chain of Green's classes (single class = 1)."""
    return class_poset(s, relation).height


@dataclass(frozen=True)
class KernelInfo:
    members: frozenset
    is_completely_simple: bool
    minimal_right_ideals: tuple


def kernel(s: core.FiniteSemigroup) -> KernelInfo:
    """The unique minimal two-sided ideal, with its minimal right ideals.

    Every claim is re-verified on the table (ideal closure, right-ideal
    closure, kernel coverage); failures raise EngineBug since they are
    impossible for an associative table and would indicate an engine bug.
    """
    cached = s._cache.get("kernel")
    if cached is not None:
        return cached
    jp = class_poset(s, "J")
    bottoms = jp.minimal_classes()
    if len(bottoms) != 1:
        raise EngineBug("finite semigroup without a unique minimal J-class")
    members = frozenset(jp.classes[bottoms[0]])
    if core.closure_violation(s, members, "two_sided_ideal") is not None:
        raise EngineBug("minimal J-class is not a two-sided ideal")
    rp = class_poset(s, "R")
    mins = []
    for i in rp.minimal_classes():
        cls = frozenset(rp.classes[i])
        if core.closure_violation(s, cls, "right_ideal") is not None:
            raise EngineBug("minimal R-class is not a right ideal")
        mins.append(cls)
    if frozenset().union(*mins) != members:
        raise EngineBug("minimal right ideals do not cover the kernel")
    sub = core.restrict_to_subsemigroup(core.SubsetHandle(s, members, "two_sided_ideal"))
    simple = len(class_poset(sub, "J").classes) == 1
    cs = simple and height(sub, "R") == 1 and height(sub, "L") == 1
    info = KernelInfo(members, cs, tuple(mins))
    s._cache["kernel"] = info
    return info


def regular_elements(s: core.FiniteSemigroup) -> frozenset:
    """{a : a*b*a = a for some b}."""
    cached = s._cache.get("regular")
    if cached is not None:
        return cached
    t = s.table
    out = frozenset(a for a in range(s.order) if bool((t[t[a], a] == a).any()))
    s._cache["regular"] = out
    return out


def idempotents(s: core.FiniteSemigroup):
    t = s.table
    return tuple(e for e in range(s.order) if int(t[e, e]) == e)


def has_local_right_identity(x, a: int) -> bool:
    """Is a in a*T, for T the semigroup or the handle's member set?"""
    a = int(a)
    if isinstance(x, core.SubsetHandle):
        if a not in x.members:
            raise ValueError("element is not a member of the handle")
        t = x.parent.table
        return any(int(t[a, b]) == a for b in x.members)
    if not 0 <= a < x.order:
        raise ValueError("element index out of range")
    return bool((x.table[a] == a).any())


@dataclass(frozen=True)
class InverseStructure:
    kind: str  # "not_regular" | "regular_not_inverse" | "inverse"
    idempotent_height: int | None = None


def inverse_structure(s: core.FiniteSemigroup) -> InverseStructure:
    """Classify s; for inverse semigroups also measure the idempotent order.

    idempotent_height is the longest chain (in elements) of idempotents
    under e <= f iff ef = fe = e.
    """
    t = s.table
    m = s.order
    if len(regular_elements(s)) != m:
        return InverseStructure("not_regular")
    for a in range(m):
        inverses = 0
        for b in range(m):
            if int(t[t[a, b], a]) == a and int(t[t[b, a], b]) == b:
                inverses += 1
        if inverses != 1:
            return InverseStructure("regular_not_inverse")
    es = np.array(idempotents(s))
    e, f = es[:, None], es[None, :]
    below = (t[e, f] == f) & (t[f, e] == f)  # below[i, j]: es[j] <= es[i]
    np.fill_diagonal(below, False)
    return InverseStructure("inverse", max(longest_chains(below.tolist())))

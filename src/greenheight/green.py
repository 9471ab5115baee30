"""Green's relations R, L, J, H over a finite semigroup: preorders, class
posets with heights, and the inverse-semigroup classification, which decides
regularity on the way.

Each preorder is one m-by-m boolean "below" matrix, with below[b, a] true
when a <= b. The S^1 convention is kept without materializing an identity:
a <=_R b iff a = b or a in bS, so R is the identity plus one scatter of the
rows, L the same from the columns, J the boolean product R.L (a <=_L c <=_R
b for some c), and H is R and L. Classes are the mutually reachable
elements. inverse_structure reads regularity and inverses from one gather,
true where aba = a.

class_poset and height also take a SubsetHandle as a semigroup of its own
(element i is its i-th smallest member), read on the parent's products and
cached on the parent by member set, so handles on one set share them.
Sub-matrices, a handle's products and the order among class
representatives, are read by a row gather, then a column gather,
t[mem][:, mem], never by one 2-D gather: on the 229 H-classes of
bi_ideal_family(20) the class order took 148 us by one and 19 us by two.

below_matrices is the one scatter of tables into R or L matrices; one
semigroup's table is a stack of one. Two steps keep a form per scale.
Boolean products: a float32 matmul here, an `any` over the middle axis in
ideals, which would build 341^3 bools on one order-341 table but beats a
batched matmul on stacks (4.1 against 7.1 us on 50 order-4 tables, 22
against 167 on 1,915 order-5 ones). Longest chains: Python-int levels
here, a peel in ideals at c^2 a round, so c^3 on the 3,333-class J chain
of left_ideal_cs_family(1667).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from . import core
from .errors import EngineBug

RELATIONS = ("R", "L", "J", "H")


def _boolean_product(x, y):
    return (x.astype(np.float32) @ y) > 0


def below_matrices(tt, relation: str):
    """below[a, b, k] is true where b is in a*S^1 (relation "R") or S^1*a
    ("L") in table k of an integer stack tt[x, y, k] = x*y of n tables, by
    one scatter of the cells (a, b, k) at the flat indices (a*m + b)*n + k."""
    if relation not in ("R", "L"):
        raise ValueError(f"below_matrices scatters R or L, not {relation!r}")
    m, _, n = tt.shape
    # below first, or the freed index leaves a hole under it that slowed the
    # boolean product after it by 10% at order 1195; a cast, then adds in
    # place: no cast buffers
    below = np.zeros((m, m, n), dtype=bool)
    at = tt.astype(np.intp)
    at += (np.arange(m) * m).reshape((m, 1, 1) if relation == "R" else (1, m, 1))
    if n > 1:
        at *= n
        at += np.arange(n)
    below.ravel()[at] = True
    below.reshape(m * m, n)[:: m + 1] = True  # b = a
    return below


def _sub_table(t, members):
    """t on members, a sorted index array closed under products, relabelled 0..len-1."""
    back = np.zeros(len(t), dtype=np.int32)
    back[members] = np.arange(len(members), dtype=np.int32)
    return back.take(t[members][:, members])


def _below(x, relation: str):
    """below[b, a] is true when a <= b in the relation's preorder on x, a
    semigroup or a handle's members as a semigroup of their own."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    s, members = (x.parent, x.members) if isinstance(x, core.SubsetHandle) else (x, None)
    key = ("below", relation, members)
    cached = s._cache.get(key)
    if cached is not None:
        return cached
    if relation in ("R", "L"):
        t = s.table if members is None else _sub_table(s.table, np.array(x.sorted_members))
        below = below_matrices(t[:, :, None], relation)[:, :, 0]
    elif relation == "J":
        below = _boolean_product(_below(x, "R"), _below(x, "L"))
    else:  # H
        below = _below(x, "R") & _below(x, "L")
    below.setflags(write=False)
    s._cache[key] = below
    return below


def _row_masks(rows):
    """Each row of a boolean matrix as an int with bit j set where column j is true."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(len(packed))]


def _longest_chains(below, ids=None):
    """below[i] is an int with bit j set when j < i in a strict order.
    lengths[i] counts the members of ids (default: all) on a longest chain of
    members with top i, and is 0 outside ids; bits of other elements are
    ignored. Members are visited by the number of bits of below[i], which
    must be a linear extension: j < i, both in ids, gives below[j] fewer bits,
    as a transitive below does."""
    counts = [b.bit_count() for b in below]
    lengths = [0] * len(below)
    levels = []  # levels[k]: the members visited so far with lengths k + 1
    for i in sorted(range(len(below)) if ids is None else ids, key=counts.__getitem__):
        k = len(levels)
        while k and not below[i] & levels[k - 1]:
            k -= 1
        if k == len(levels):
            levels.append(0)
        levels[k] |= 1 << i
        lengths[i] = k + 1
    return lengths


def leq(s: core.FiniteSemigroup, a: int, b: int, relation: str = "R") -> bool:
    """Green's preorder: is a below-or-equivalent-to b?"""
    a, b = operator.index(a), operator.index(b)
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

    def __init__(self, names, relation, classes, class_of, strict):
        self.names = names
        self.relation = relation
        self.classes = classes
        self.class_of = class_of
        self.strict = strict
        self._below_rows = _row_masks(strict.T)
        self.height = max(_longest_chains(self._below_rows))

    def class_index(self, a: int) -> int:
        a = operator.index(a)
        if not 0 <= a < len(self.class_of):
            raise ValueError("element index out of range")
        return int(self.class_of[a])

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

    def longest_chain(self, class_ids) -> int:
        """Longest chain (in classes) within the induced subposet."""
        sel = set(operator.index(i) for i in class_ids)
        if not sel:
            return 0
        if min(sel) < 0 or max(sel) >= len(self.classes):
            raise ValueError("class id out of range")
        return max(_longest_chains(self._below_rows, sel))

    def to_dot(self) -> str:
        """Hasse diagram, one node per class, edges larger -> smaller."""
        names = self.names
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


def class_poset(x, relation: str = "R") -> ClassPoset:
    """The class poset of a semigroup, or of a handle as a semigroup of its own."""
    s, members = (x.parent, x.members) if isinstance(x, core.SubsetHandle) else (x, None)
    key = ("poset", relation, members)
    cached = s._cache.get(key)
    if cached is not None:
        return cached
    below = _below(x, relation)
    # each element's smallest equivalent; a class first appears at that member
    smallest = (below & below.T).argmax(axis=1).tolist()
    groups = {}
    for a, r in enumerate(smallest):
        groups.setdefault(r, []).append(a)
    reps = list(groups)
    number = {r: i for i, r in enumerate(reps)}
    class_of = np.array([number[r] for r in smallest], dtype=np.int32)
    rep_idx = np.array(reps)
    strict = below[rep_idx][:, rep_idx].T
    strict.flat[:: len(reps) + 1] = False
    if (strict & strict.T).any():
        raise EngineBug("class order is not antisymmetric: engine bug")
    strict.setflags(write=False)
    classes = tuple(tuple(g) for g in groups.values())
    names = s.names if members is None else x.member_names
    poset = ClassPoset(names, relation, classes, class_of, strict)
    s._cache[key] = poset
    return poset


def height(x, relation: str = "R") -> int:
    """Maximum cardinality of a chain of Green's classes (single class = 1)."""
    return class_poset(x, relation).height


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
    a = np.arange(s.order)[:, None]
    sandwich = t[t, a] == a  # sandwich[a, b]: a*b*a == a
    if not sandwich.any(axis=1).all():
        return InverseStructure("not_regular")
    # b is an inverse of a iff a*b*a == a and b*a*b == b
    if not ((sandwich & sandwich.T).sum(axis=1) == 1).all():
        return InverseStructure("regular_not_inverse")
    es = np.flatnonzero(t.diagonal() == np.arange(s.order))
    e, f = es[:, None], es[None, :]
    below = (t[e, f] == f) & (t[f, e] == f)  # below[i, j]: es[j] <= es[i]
    np.fill_diagonal(below, False)
    return InverseStructure("inverse", max(_longest_chains(_row_masks(below))))

"""Finite semigroups as total multiplication tables, plus subset handles.

Elements are indices 0..m-1 into an m-by-m int32 table; names are display
strings only. The formal identity of S^1 is a convention applied inside set
products and preorders, never a materialized element.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _accel
from .errors import NotAssociative, NotClosed, ParseError

KINDS = ("bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal", "subsemigroup")


class FiniteSemigroup:
    """Immutable semigroup on indices 0..m-1 with a verified table. Elements
    known to generate it, if given, seed the associativity check's generating
    set, which still confirms that they do."""

    def __init__(self, names, table, generators=()):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"table must be square, got shape {table.shape}")
        m = table.shape[0]
        if m < 1:
            raise ValueError("semigroup must have at least one element")
        names = tuple(str(n) for n in names)
        if len(names) != m:
            raise ValueError(f"{len(names)} names for {m} elements")
        if len(set(names)) != m:
            raise ValueError("element names must be distinct")
        for n in names:
            # empty, or holds whitespace or '#', which starts a comment in table text
            if n.split() != [n] or "#" in n:
                raise ValueError(f"bad element name {n!r}")
        # range-checked before the cast, which would wrap or truncate
        if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= m:
            raise ValueError("table entries must be element indices")
        generators = tuple(generators)
        if not all(isinstance(g, (int, np.integer)) and 0 <= g < m for g in generators):
            raise ValueError("generators must be element indices")
        # a copy, so that the caller's array is neither frozen nor able to change it
        table = np.array(table, dtype=np.int32, order="C")
        witness = _accel.assoc_witness(table, [int(g) for g in generators])
        if witness is not None:
            raise NotAssociative(witness)
        table.setflags(write=False)
        self.names = names
        self.table = table
        self._name_index = {n: i for i, n in enumerate(names)}
        self._cache = {}

    @property
    def order(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValueError(f"no element named {name!r}") from None

    def product(self, a: int, b: int) -> int:
        a, b = operator.index(a), operator.index(b)
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise ValueError("element index out of range")
        return int(self.table[a, b])

    @cached_property
    def identity(self):
        """The index of the identity element, or None; found on first read."""
        t = self.table
        eye = np.arange(len(t), dtype=t.dtype)
        hits = np.flatnonzero((t == eye).all(axis=1) & (t == eye[:, None]).all(axis=0))
        return int(hits[0]) if hits.size else None

    def __repr__(self):
        ident = "" if self.identity is None else f", identity={self.names[self.identity]!r}"
        return f"FiniteSemigroup(order={self.order}{ident})"


def from_table(names, table) -> FiniteSemigroup:
    """Build and validate a semigroup from names and a multiplication table."""
    return FiniteSemigroup(names, table)


def closure_violation(s: FiniteSemigroup, members, kind: str):
    """First product escaping the subset, or None if the kind's law holds.

    Witness shapes: ("product", a, b, ab) for pair closure, ("right", a, c, ac),
    ("left", c, a, ca), ("middle", a, u, b, aub) for the bi-ideal inner product.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    mem = sorted(set(operator.index(x) for x in members))
    if not mem:
        raise ValueError("empty member set")
    if mem[0] < 0 or mem[-1] >= s.order:
        raise ValueError("member set contains an invalid element index")
    mem = np.array(mem, dtype=np.int64)
    t = s.table
    # looked up by take, not []: on int32 products a third of the time
    outside = np.ones(s.order, dtype=bool)
    outside[mem] = False

    def first(bad):
        # the row-major first true cell; argmax only once any() finds one
        return divmod(int(bad.argmax()), bad.shape[1]) if bad.any() else None

    if kind in ("subsemigroup", "bi_ideal"):
        hit = first(outside.take(t[mem][:, mem]))
        if hit is not None:
            i, j = hit
            a, b = int(mem[i]), int(mem[j])
            return ("product", a, b, int(t[a, b]))
    if kind in ("right_ideal", "two_sided_ideal"):
        hit = first(outside.take(t[mem]))
        if hit is not None:
            i, c = hit
            a = int(mem[i])
            return ("right", a, c, int(t[a, c]))
    if kind in ("left_ideal", "two_sided_ideal"):
        hit = first(outside.take(t[:, mem]))
        if hit is not None:
            c, j = hit
            a = int(mem[j])
            return ("left", c, a, int(t[c, a]))
    if kind == "bi_ideal":
        escapes = outside.take(t[:, mem])  # escapes[x, j]: x*mem[j] is outside
        hit = first(escapes.any(axis=1).take(t[mem]))  # (i, u): mem[i]*u is such an x
        if hit is not None:
            i, u = hit
            a = int(mem[i])
            x = int(t[a, u])
            b = int(mem[np.argmax(escapes[x])])
            return ("middle", a, u, b, int(t[x, b]))
    return None


@dataclass(frozen=True)
class SubsetHandle:
    """A nonempty subset of a semigroup, tagged and closure-checked."""

    parent: FiniteSemigroup
    members: frozenset = field(hash=False)
    kind: str = "subsemigroup"

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(operator.index(x) for x in self.members))
        witness = closure_violation(self.parent, self.members, self.kind)
        if witness is not None:
            raise NotClosed(
                self.kind,
                witness,
                f"subset is not a {self.kind.replace('_', ' ')}: witness {witness}",
            )

    @property
    def sorted_members(self):
        return tuple(sorted(self.members))

    @property
    def member_names(self):
        return tuple(self.parent.names[i] for i in self.sorted_members)


def content_lines(text: str):
    """Iterator of (line number from 1, line cut at its first '#') for each
    line of `text` that holds more than a comment or blanks; a leading
    byte-order mark is dropped. Only a line that holds a '#' is cut."""
    bodies = (raw.split("#", 1)[0] if "#" in raw else raw
              for raw in text.removeprefix("\ufeff").splitlines())
    return ((lineno, body) for lineno, body in enumerate(bodies, 1) if body.strip())


def parse_table_text(text: str) -> FiniteSemigroup:
    """Parse the table text format: `order: m`, `names: ...`, then m rows."""
    lines = list(content_lines(text))
    if not lines:
        raise ParseError(1, 1, "empty table text")

    def expect(idx, key):
        if idx >= len(lines):
            raise ParseError(lines[-1][0], 1, f"missing {key!r} line")
        lineno, body = lines[idx]
        head, sep, rest = body.partition(":")
        if not sep or head.strip() != key:
            raise ParseError(lineno, 1, f"expected {key!r} declaration")
        return lineno, rest

    lineno, rest = expect(0, "order")
    try:
        m = int(rest.strip())
    except ValueError:
        raise ParseError(lineno, len("order:") + 1, "order must be an integer") from None
    if m < 1:
        raise ParseError(lineno, 1, "order must be positive")
    lineno, rest = expect(1, "names")
    names = rest.split()
    if len(names) != m:
        raise ParseError(lineno, 1, f"expected {m} names, got {len(names)}")
    if len(set(names)) != m:  # reported at the first repeat
        k = next(k for k, name in enumerate(names) if name in names[:k])
        col = len(lines[1][1]) - len(rest) + list(re.finditer(r"\S+", rest))[k].start() + 1
        raise ParseError(lineno, col, "element names must be distinct")
    if len(lines) != 2 + m:
        raise ParseError(lines[-1][0], 1, f"expected {m} table rows, got {len(lines) - 2}")
    rows = lines[2:]
    table = _table_by_rows(rows, m)
    if table is None:
        table = _table_by_cells(rows, m)  # raises the first error, as line and message
    return FiniteSemigroup(names, table)


def _table_by_rows(rows, m):
    """The table of m row lines, read by numpy's C text reader; None when a
    row has the wrong length, a bad token or an entry out of range, or is not
    ASCII (the reader can crash on some other code points). Tokens that int()
    takes and the reader refuses, such as 1_0, also give None."""
    bodies = [body for _, body in rows]
    if not all(map(str.isascii, bodies)):
        return None
    try:
        table = np.loadtxt(bodies, dtype=np.int32, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return table if table.shape == (m, m) and table.min() >= 0 and table.max() < m else None


def _table_by_cells(rows, m):
    """The table of m row lines, cell by cell, raising ParseError at the first bad one."""
    table = np.zeros((m, m), dtype=np.int32)
    for a, (lineno, body) in enumerate(rows):
        cells = body.split()
        if len(cells) != m:
            raise ParseError(lineno, 1, f"row has {len(cells)} entries, expected {m}")
        for b, cell in enumerate(cells):
            try:
                v = int(cell)
            except ValueError:
                raise ParseError(lineno, 1, f"bad table entry {cell!r}") from None
            if not 0 <= v < m:
                raise ParseError(lineno, 1, f"table entry {v} out of range")
            table[a, b] = v
    return table


def format_table_text(s: FiniteSemigroup) -> str:
    lines = [f"order: {s.order}", "names: " + " ".join(s.names)]
    lines.extend(" ".join(map(str, row)) for row in s.table.tolist())
    return "\n".join(lines) + "\n"

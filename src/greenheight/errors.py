"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed presentation or table text. Carries 1-based line/column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class NotAssociative(ValueError):
    """Raised when a multiplication table fails (ab)c == a(bc).

    ``triple`` is a witness (a, b, c) of element indices.
    """

    def __init__(self, triple):
        self.triple = tuple(int(x) for x in triple)
        a, b, c = self.triple
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")


class NotClosed(ValueError):
    """A subset fails the closure law for its claimed kind."""

    def __init__(self, kind: str, witness, message: str):
        self.kind = kind
        self.witness = witness
        super().__init__(message)


class NotConfluent(ValueError):
    """A rewriting system has an unresolved critical pair.

    ``witness`` is the offending CriticalPair.
    """

    def __init__(self, witness, message: str):
        self.witness = witness
        super().__init__(message)


class CapExceeded(RuntimeError):
    """Element enumeration passed the configured cap (system may be infinite)."""

    def __init__(self, cap: int, found: int):
        self.cap = cap
        self.found = found
        super().__init__(
            f"enumeration exceeded cap={cap} (at least {found} irreducible words);"
            " the presented semigroup may be infinite"
        )


class EngineBug(RuntimeError):
    """An invariant that holds for every finite semigroup failed inside the
    engine: the fault is in the program, not in its input."""

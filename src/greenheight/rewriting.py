"""Length-reducing string rewriting: reduction, critical pairs, completeness,
and semigroups from presentations, whose irreducible words and right Cayley
graph come from one walk. The rules followed on that graph and the table's
associativity certify a presentation's confluence; critical pairs are
computed only where that fails, for the witness.

Internally a word is a plain str with one character per letter; alphabets
with multi-character tokens map onto private-use characters so matching is
ordinary substring search. ZERO is an absorbing sentinel, never a letter:
0w -> 0 and w0 -> 0 live in concatenation/reduction, not in the rule list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import CapExceeded, EngineBug, NotAssociative, NotConfluent, ParseError

DEFAULT_CAP = 10_000

_PUA_BASE = 0xE000


class _ZeroType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"

    def __len__(self):
        return 0


ZERO = _ZeroType()


@dataclass(frozen=True)
class Rule:
    """One rewriting rule over internal symbols; rhs may be ZERO."""

    lhs: str
    rhs: object


@dataclass(frozen=True)
class CriticalPair:
    """Two distinct one-step reducts of one source word."""

    source: str
    left_result: object
    right_result: object
    overlap_kind: str  # "overlap" or "containment"


def _bracketed(tok: str) -> str:
    """A token as text: bracketed when longer than one character."""
    return tok if len(tok) == 1 else f"[{tok}]"


def _check_token(tok: str, what: str):
    if not isinstance(tok, str) or not tok:
        raise ValueError(f"{what} must be a non-empty string")
    if any(ch.isspace() or ch in "[]#" for ch in tok):
        raise ValueError(f"{what} {tok!r} contains whitespace or reserved characters")
    if len(tok) == 1 and _PUA_BASE <= ord(tok) <= 0xF8FF:
        raise ValueError(f"{what} {tok!r} is in the reserved private-use range")


class RewritingSystem:
    """An ordered alphabet, ordered length-reducing rules, optional zero."""

    def __init__(self, letters, rules, zero=None):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be non-empty")
        for tok in letters:
            _check_token(tok, "letter")
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate letters")
        if zero is not None:
            _check_token(zero, "zero token")
            if zero in letters:
                raise ValueError("the zero token is not a letter")
        self.letters = letters
        self.zero_token = zero
        self._sym_of = {}
        self._tok_of = {}
        for i, tok in enumerate(letters):
            sym = tok if len(tok) == 1 else chr(_PUA_BASE + i)
            self._sym_of[tok] = sym
            self._tok_of[sym] = tok
        self._letter_syms = tuple(self._sym_of[t] for t in letters)
        self._shown = str.maketrans({sym: _bracketed(tok) for sym, tok in self._tok_of.items()})

        built = []
        for item in rules:
            lhs, rhs = (item.lhs, item.rhs) if isinstance(item, Rule) else item
            lhs_w = self.word(lhs)
            if lhs_w is ZERO or not lhs_w:
                raise ValueError("rule lhs must be a non-empty word over the alphabet")
            rhs_w = ZERO if rhs is ZERO else self.word(rhs)
            # the empty word is no element; ZERO, also of length 0, is one
            if rhs_w is not ZERO and not rhs_w:
                raise ValueError(f"rule {self.display(lhs_w)} -> has an empty right side")
            if len(rhs_w) >= len(lhs_w):
                raise ValueError(
                    f"rule {self.display(lhs_w)} -> {self.display(rhs_w)}"
                    " is not length-reducing"
                )
            built.append(Rule(lhs_w, rhs_w))
        self.rules = tuple(built)
        # the first rule with each left side, and the left sides' lengths
        self._rhs_of = {}
        for r in self.rules:
            self._rhs_of.setdefault(r.lhs, r.rhs)
        self._lhs_lengths = sorted({len(lhs) for lhs in self._rhs_of})
        if zero is None and any(r.rhs is ZERO for r in self.rules):
            raise ValueError("rules rewrite to zero but no zero token is declared")
        self.has_zero = zero is not None

    def word(self, w):
        """Internal form of a word given as tokens, text, or internal str."""
        if w is ZERO:
            return ZERO
        if isinstance(w, str):
            if all(c in self._tok_of for c in w):
                return w
            try:
                tokens = _tokenize(w, 0, 0)[0]
            except ParseError as e:
                # a word has no line; the cause tells a caller that w did not tokenize
                raise ValueError(f"word {w!r}, column {e.column}: {e.message}") from e
        else:
            tokens = list(w)
        out = []
        for tok in tokens:
            sym = self._sym_of.get(tok)
            if sym is None:
                raise ValueError(f"symbol outside alphabet: {tok!r}")
            out.append(sym)
        return "".join(out)

    def display(self, w) -> str:
        """Human form: bracketed multi-character tokens, the zero token too."""
        if w is ZERO:
            return _bracketed(self.zero_token) if self.zero_token is not None else "0"
        return w.translate(self._shown)

    def __repr__(self):
        z = "" if self.zero_token is None else f", zero={self.zero_token!r}"
        letters = "".join(map(_bracketed, self.letters))
        return f"RewritingSystem(letters={letters!r}, {len(self.rules)} rules{z})"


def reduce_word(rs: RewritingSystem, w):
    """Normal form under the leftmost-match, lowest-rule-index strategy."""
    w = rs.word(w)
    if w is ZERO:
        return ZERO
    rules = rs.rules
    while True:
        best_pos = -1
        best_rule = None
        for r in rules:
            p = w.find(r.lhs)
            if p >= 0 and (best_pos < 0 or p < best_pos):
                best_pos = p
                best_rule = r
                if p == 0:
                    break
        if best_rule is None:
            return w
        if best_rule.rhs is ZERO:
            return ZERO
        w = w[:best_pos] + best_rule.rhs + w[best_pos + len(best_rule.lhs):]


def critical_pairs(rs: RewritingSystem):
    """All overlap/containment ambiguities with distinct one-step results,
    deduplicated by (source, unordered result pair)."""
    seen = set()
    out = []

    def emit(source, left, right, kind):
        if left == right:
            return
        key = (source, frozenset((left, right)))  # ZERO equals no word
        if key in seen:
            return
        seen.add(key)
        out.append(CriticalPair(source, left, right, kind))

    rules = rs.rules
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            # proper overlap: a strict suffix of li is a strict prefix of lj
            for o in range(1, min(len(li), len(lj))):
                if li.endswith(lj[:o]):
                    source = li + lj[o:]
                    left = ZERO if ri.rhs is ZERO else ri.rhs + lj[o:]
                    right = ZERO if rj.rhs is ZERO else li[: len(li) - o] + rj.rhs
                    emit(source, left, right, "overlap")
            # containment: lj occurs inside li
            if i != j:
                start = 0
                while True:
                    p = li.find(lj, start)
                    if p < 0:
                        break
                    right = ZERO if rj.rhs is ZERO else li[:p] + rj.rhs + li[p + len(lj):]
                    emit(li, ri.rhs, right, "containment")
                    start = p + 1
    return out


def is_complete(rs: RewritingSystem):
    """(True, None) if every critical pair resolves, else (False, witness).

    Rules are length-reducing, so the system is noetherian and resolution
    of all critical pairs is exactly confluence; a pair resolves iff both
    results share one strategy-normal form.
    """
    witness = first_unresolved(rs, critical_pairs(rs))
    return witness is None, witness


def first_unresolved(rs: RewritingSystem, pairs):
    """The first of the critical pairs whose results reduce apart, or None."""
    for cp in pairs:
        if reduce_word(rs, cp.left_result) != reduce_word(rs, cp.right_result):
            return cp
    return None


def _walk(rs: RewritingSystem, cap: int):
    """The normal forms in shortlex order, ZERO last iff declared; for each
    one but ZERO the index of its prefix (-1 for the empty word) and of its
    last letter; and the right Cayley graph (Froidure and Pin, 1997):
    right[i, k] is the index of words[i] times letter k.

    Grows words letter by letter: every factor of a normal form is one, so
    level k+1 extends level k and an empty level ends the walk. As u is
    irreducible, a redex of u·a is a suffix, found by one dict lookup per
    distinct left-side length. Either there is none, and u·a is the next
    word, whose index is the edge and whose prefix and last letter are u
    and a; or u·a = p·lhs -> p·rhs, and the edge is follow(p, rhs), p's
    element sent letter by letter through rhs. Each step leaves a word
    shorter than u, whose row an earlier level has filled; the empty word's
    row holds each letter's element. Raises CapExceeded past ``cap`` words
    (system likely infinite), and NotConfluent, with is_complete's witness,
    where the two sides of a rule, followed from the empty word's row, differ.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    rhs_of, lengths = rs._rhs_of, rs._lhs_lengths
    letter_of = {c: k for k, c in enumerate(rs._letter_syms)}
    # -1 stands for the empty word, -2 for ZERO until the walk ends
    index = {"": -1}
    rows = {-2: [-2] * len(letter_of)}
    words, prefix, last = [], [], []

    def follow(e, w):
        """The element of e times the word w, read from the rows built so far."""
        for d in w:
            e = rows[e][letter_of[d]]
        return e

    level = [""]
    total = 1 if rs.has_zero else 0
    while level:
        first = len(words)
        for u in level:
            i = index[u]
            row = []
            for c in rs._letter_syms:
                w = u + c
                for k in lengths:
                    rhs = rhs_of.get(w[-k:])
                    if rhs is not None:
                        break
                else:
                    index[w] = len(words)
                    row.append(len(words))
                    words.append(w)
                    prefix.append(i)
                    last.append(letter_of[c])
                    continue
                row.append(-2 if rhs is ZERO else follow(index[w[:-k]], rhs))
            rows[i] = row
        total += len(words) - first
        if total > cap:
            raise CapExceeded(cap, total)
        level = words[first:]
    if any(follow(-1, r.lhs) != (-2 if r.rhs is ZERO else follow(-1, r.rhs)) for r in rs.rules):
        _require_complete(rs)
        raise EngineBug("a complete presentation built a table that breaks it")
    if rs.has_zero:
        rows[len(words)] = rows[-2]
        words.append(ZERO)
    right = np.array([rows[i] for i in range(len(words))], dtype=np.int32)
    right[right < 0] = len(words) - 1
    return words, np.array(prefix, dtype=np.int32), np.array(last, dtype=np.int32), right


def semigroup_from_presentation(rs, cap: int = DEFAULT_CAP) -> core.FiniteSemigroup:
    """Build the presented semigroup; elements are irreducible words.

    Accepts a RewritingSystem or presentation text. One walk gives the
    normal forms, each one's prefix and last letter, and the right Cayley
    graph, with no word rewritten by search. Normal forms are prefix-closed,
    so for v = v'a the product u*v is right[u*v', a]: column v of the table
    is one gather from column v'. The words of one length have their
    prefixes among the words one letter shorter, so the columns fill one
    length at a time, by one flat gather each, into the rows of the
    transposed table. The walk reaches every element from the letters
    (Froidure and Pin, 1997), so their elements and ZERO generate the table
    and seed the core constructor's exact associativity check.

    The table certifies confluence: let phi(w) be the product of w's
    letters' elements. If the table is associative and phi(lhs) == phi(rhs)
    for every rule, ZERO's element standing for ZERO, then congruent words
    have one phi, and distinct irreducible words have distinct ones, their
    own elements; so no two irreducible words are congruent, and the
    system, being noetherian, is confluent. A confluent system passes both
    checks: the rules, on the walk's own rows, and associativity, in the
    core constructor. Where either fails, or the walk passes ``cap``,
    is_complete gives NotConfluent its witness; a complete system that
    passes ``cap`` raises CapExceeded.
    """
    if isinstance(rs, str):
        rs = parse_presentation(rs)
    try:
        words, prefix, last, right = _walk(rs, cap)
    except CapExceeded:
        _require_complete(rs)
        raise
    m, k = right.shape
    flat = right.ravel()
    # cols[j] is column j of the table, so every gather reads and writes
    # whole rows; the extra row cols[-1] is the empty word's column, each
    # element itself, and ZERO's column is ZERO
    cols = np.empty((m + 1, m), dtype=np.int32)
    cols[-1] = np.arange(m)
    cols[len(prefix):m] = m - 1
    # lo:hi are the words of one length; the next length is the words whose
    # prefixes lie in lo:hi, and it ends where the prefixes reach hi. take,
    # not [], gathers: a quarter faster on int32 indices
    lo, hi = 0, int(prefix.searchsorted(0))
    # the letters that are words come first; with ZERO they generate
    seeds = [*range(hi), m - 1] if rs.has_zero else range(hi)
    while lo < hi:
        at = cols.take(prefix[lo:hi], axis=0)
        at *= k
        at += last[lo:hi, None]
        cols[lo:hi] = flat.take(at)
        lo, hi = hi, int(prefix.searchsorted(hi))
    names = [rs.display(w) for w in words]
    try:
        return core.FiniteSemigroup(names, cols[:m].T, generators=seeds)
    except NotAssociative:
        pass
    _require_complete(rs)
    raise EngineBug("a complete presentation built a table that breaks it")


def _require_complete(rs: RewritingSystem):
    """Raise NotConfluent with is_complete's witness unless rs is complete."""
    ok, witness = is_complete(rs)
    if not ok:
        raise NotConfluent(
            witness,
            "presentation is not confluent: source "
            f"{rs.display(witness.source)} rewrites to both "
            f"{rs.display(reduce_word(rs, witness.left_result))} and "
            f"{rs.display(reduce_word(rs, witness.right_result))}",
        )


def element_index(rs: RewritingSystem, s: core.FiniteSemigroup, w) -> int:
    """Index in s of the element the word w represents."""
    return s.index(rs.display(reduce_word(rs, w)))


def _tokenize(text: str, lineno: int, col0: int):
    """Split into tokens: one character each, or [multi char]; '#' never appears
    (comments are stripped before tokenizing). Returns the tokens and the
    column of each, that of its '[' for a bracketed one."""
    toks, cols = [], []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise ParseError(lineno, col0 + i + 1, "unclosed '['")
            tok = text[i + 1 : j]
            if not tok or any(ch.isspace() or ch in "[]#" for ch in tok):
                raise ParseError(lineno, col0 + i + 1, f"bad bracketed token {tok!r}")
            toks.append(tok)
            cols.append(col0 + i + 1)
            i = j + 1
        elif c in "]#":
            raise ParseError(lineno, col0 + i + 1, f"unexpected {c!r}")
        else:
            toks.append(c)
            cols.append(col0 + i + 1)
            i += 1
    return toks, cols


def _rule_arrow(text: str) -> int:
    """Index of the first '->' outside brackets, or -1. A '[' that no ']'
    closes opens no bracket, so _tokenize reports it."""
    i = text.find("->")
    while i >= 0 and text.rfind("[", 0, i) > text.rfind("]", 0, i) and text.find("]", i) >= 0:
        i = text.find("->", i + 2)
    return i


def parse_presentation(text: str) -> RewritingSystem:
    """Parse presentation text: `letters:`, optional `zero:`, `rule:` lines."""
    letters = None
    letters_line = 0
    zero = None
    raw_rules = []
    for lineno, body in core.content_lines(text):
        head, sep, rest = body.partition(":")
        key = head.strip()
        col0 = len(head) + 1
        if not sep or key not in ("letters", "zero", "rule"):
            raise ParseError(lineno, 1, "expected 'letters:', 'zero:' or 'rule:'")
        if key == "letters":
            if letters is not None:
                raise ParseError(lineno, 1, "duplicate 'letters:' declaration")
            letters = _tokenize(rest, lineno, col0)[0]
            letters_line = lineno
            if not letters:
                raise ParseError(lineno, col0 + 1, "empty alphabet")
        elif key == "zero":
            if zero is not None:
                raise ParseError(lineno, 1, "duplicate 'zero:' declaration")
            toks = _tokenize(rest, lineno, col0)[0]
            if len(toks) != 1:
                raise ParseError(lineno, col0 + 1, "zero declaration needs exactly one token")
            zero = toks[0]
        else:
            arrow = _rule_arrow(rest)
            if arrow < 0:
                raise ParseError(lineno, col0 + 1, "rule needs '->'")
            lhs_txt, rhs_txt = rest[:arrow], rest[arrow + 2:]
            lhs, lhs_cols = _tokenize(lhs_txt, lineno, col0)
            rhs, rhs_cols = _tokenize(rhs_txt, lineno, col0 + len(lhs_txt) + 2)
            if not lhs:
                raise ParseError(lineno, col0 + 1, "empty rule lhs")
            if not rhs:
                raise ParseError(lineno, col0 + len(lhs_txt) + 3, "empty rule rhs")
            raw_rules.append((lineno, lhs, lhs_cols, rhs, rhs_cols))
    if letters is None:
        raise ParseError(1, 1, "missing 'letters:' declaration")

    rules = []
    letter_set = set(letters)
    for lineno, lhs, lhs_cols, rhs, rhs_cols in raw_rules:
        for tok, col in zip(lhs, lhs_cols):
            if tok not in letter_set:
                raise ParseError(lineno, col, f"rule lhs uses non-letter {tok!r}")
        if zero is not None and rhs == [zero]:
            rules.append((lhs, ZERO))
            continue
        for tok, col in zip(rhs, rhs_cols):
            if tok not in letter_set:
                raise ParseError(lineno, col, f"rule rhs uses non-letter {tok!r}")
        if len(rhs) >= len(lhs):
            raise ParseError(lineno, rhs_cols[0], "rule is not length-reducing")
        rules.append((lhs, rhs))
    try:
        return RewritingSystem(letters, rules, zero=zero)
    except ValueError as e:
        raise ParseError(letters_line or 1, 1, str(e)) from None


def format_presentation(rs: RewritingSystem) -> str:
    """Presentation text that parses back to an equivalent system; tokens
    longer than one character, the zero token too, are bracketed, and so
    are '-' and '>' letters in rules, where "->" outside brackets is the
    arrow."""
    lines = ["letters: " + " ".join(map(_bracketed, rs.letters))]
    if rs.zero_token is not None:
        lines.append(f"zero: {rs.display(ZERO)}")
    shown = str.maketrans({sym: f"[{tok}]" if tok in ("-", ">") else _bracketed(tok)
                           for sym, tok in rs._tok_of.items()})
    for r in rs.rules:
        rhs = rs.display(ZERO) if r.rhs is ZERO else r.rhs.translate(shown)
        lines.append(f"rule: {r.lhs.translate(shown)} -> {rhs}")
    return "\n".join(lines) + "\n"

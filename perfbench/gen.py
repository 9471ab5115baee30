"""Seeded inputs for the benchmark, written without importing greenheight.

Every input is a construction whose answers are known in closed form: the
two presentation families of the paper, the right-ideal tower of Brandt
extensions, the full transformation monoid T4, the symmetric inverse monoid
I3, and a bi-ideal-family table. The seed changes only the representation
(letter names and order, rule order, element numbering), never the
semigroup, so the closed-form facts hold for every seed. The same seed
always gives the same bytes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

ZERO = None  # normal form of the adjoined zero in the reducer below


@dataclass(frozen=True)
class Presentation:
    text: str
    facts: dict
    generators: tuple  # generator words, as the CLI accepts them


@dataclass(frozen=True)
class Table:
    text: str
    facts: dict
    generators: tuple = ()  # element names


def seeded(*parts) -> random.Random:
    """A Random stream keyed by its parts; string seeds hash with sha512."""
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# presentation families (rules as in the paper's constructions)


def bi_ideal_rules(n: int):
    """Canonical rules over x y z t with zero '0'; 12(n-1)+1 elements."""
    zeros = ["x" * n, "yy", "zz", "tt", "xz", "xt", "yx", "yt", "zx", "zy", "tz",
             "t" + "x" * (n - 1)]
    rules = [("xyzt", "x"), ("yzty", "y"), ("ztyz", "z"), ("tyzt", "t")]
    return "xyzt", rules + [(w, ZERO) for w in zeros]


def left_ideal_rules(n: int):
    """Canonical rules over x y z with zero '0'; 6(n-1)+1 elements."""
    zeros = ["x" * n, "yy", "zz", "xz", "yx", "z" + "x" * (n - 1)]
    rules = [("xyz", "x"), ("yzy", "y"), ("zyz", "z")]
    return "xyz", rules + [(w, ZERO) for w in zeros]


_SINGLE = "abcdefghijklmnopqrstuvwxyz"


def _rename(rng: random.Random, letters: str, multi_char: bool):
    """Fresh token per letter: all one character, or all bracketed
    multi-character tokens. Returns (token map, zero token).

    The style is fixed per file, not drawn per letter: a multi-character
    token maps to a private-use character, which makes the engine's
    internal words two-byte strings, and about 20% slower to rewrite.
    """
    singles = rng.sample(_SINGLE, len(letters) + 1)
    if multi_char:
        tokens = {c: f"{singles[i]}{rng.randrange(10, 100)}" for i, c in enumerate(letters)}
    else:
        tokens = dict(zip(letters, singles))
    zero = rng.choice(["0", f"{singles[-1]}0", "nil"])
    return tokens, zero


def _show(word: str, tokens) -> str:
    return "".join(tokens[c] if len(tokens[c]) == 1 else f"[{tokens[c]}]" for c in word)


def _presentation_text(rng, letters, rules, multi_char):
    tokens, zero = _rename(rng, letters, multi_char)
    order = list(letters)
    rng.shuffle(order)
    lines = list(rules)
    rng.shuffle(lines)
    zero_text = zero if len(zero) == 1 else f"[{zero}]"
    out = ["letters: " + " ".join(_show(c, tokens) for c in order), f"zero: {zero_text}"]
    for lhs, rhs in lines:
        out.append(f"rule: {_show(lhs, tokens)} -> {zero_text if rhs is ZERO else _show(rhs, tokens)}")
    return "\n".join(out) + "\n", tokens


def bi_ideal_presentation(n: int, rng: random.Random, multi_char: bool = False) -> Presentation:
    letters, rules = bi_ideal_rules(n)
    text, tokens = _presentation_text(rng, letters, rules, multi_char)
    facts = {
        "order": 12 * (n - 1) + 1,
        "rules": len(rules),
        "height_r": n,
        "relative_height": 3 * n - 2,
        "chain_param": n,
        "bound": 3 * n - 2,
        "theorem": "bi-ideal-cs-kernel",
    }
    gens = tuple(_show(w, tokens) for w in ("x", "y", "z", "tx"))
    return Presentation(text, facts, gens)


def left_ideal_presentation(n: int, rng: random.Random, multi_char: bool = False) -> Presentation:
    letters, rules = left_ideal_rules(n)
    text, tokens = _presentation_text(rng, letters, rules, multi_char)
    facts = {
        "order": 6 * (n - 1) + 1,
        "rules": len(rules),
        "height_r": n,
        "height_j": 2 * n - 1,
        "relative_height": 2 * n - 1,
        "chain_param": n,
        "bound": 2 * n - 1,
        "theorem": "left-ideal-cs-kernel",
    }
    gens = tuple(_show(w, tokens) for w in ("x", "y"))
    return Presentation(text, facts, gens)


# ---------------------------------------------------------------------------
# multiplication tables (canonical numbering, then a seeded relabelling)


def _reduce(word: str, rules):
    """Normal form of a word under a complete length-reducing system; ZERO
    when a rule sends it to zero. Confluence makes the strategy irrelevant."""
    while True:
        for lhs, rhs in rules:
            p = word.find(lhs)
            if p >= 0:
                if rhs is ZERO:
                    return ZERO
                word = word[:p] + rhs + word[p + len(lhs):]
                break
        else:
            return word


def presented_table(letters: str, rules):
    """(names, rows) of the presented semigroup; elements are the irreducible
    words in shortlex order, then the zero, named '0'."""
    lhss = [lhs for lhs, _ in rules]
    words, level = [], [""]
    while level:
        level = [w + c for w in level for c in letters
                 if not any((w + c).endswith(l) for l in lhss)]
        words.extend(level)
    index = {w: i for i, w in enumerate(words)}
    zero = len(words)
    rows = [[index.get(_reduce(u + v, rules), zero) for v in words] + [zero] for u in words]
    rows.append([zero] * (zero + 1))
    return words + ["0"], rows


def brandt_tower(n: int):
    """Iterated Brandt extension B(S, 2) over the trivial semigroup: element
    (i, a, j) at ((i-1)m + a)2 + (j-1), the new zero last. Order t(1) = 1,
    t(k+1) = 4 t(k) + 1."""
    names, rows = ["e"], [[0]]
    for _ in range(n - 1):
        m = len(names)
        size = 4 * m + 1
        zero = size - 1
        new_names = [f"({i},{names[a]},{j})" for i in (1, 2) for a in range(m) for j in (1, 2)]
        new_rows = [[zero] * size for _ in range(size)]
        for i, a, j in itertools.product((1, 2), range(m), (1, 2)):
            row = new_rows[((i - 1) * m + a) * 2 + (j - 1)]
            for b, q in itertools.product(range(m), (1, 2)):
                row[((j - 1) * m + b) * 2 + (q - 1)] = ((i - 1) * m + rows[a][b]) * 2 + (q - 1)
        names, rows = new_names + ["0"], new_rows
    return names, rows


def full_transformations(n: int):
    """All self-maps of {0..n-1}, composing left to right."""
    maps = list(itertools.product(range(n), repeat=n))
    index = {f: i for i, f in enumerate(maps)}
    names = ["".join(map(str, f)) for f in maps]
    rows = [[index[tuple(g[f[x]] for x in range(n))] for g in maps] for f in maps]
    return names, rows


def partial_bijections(n: int):
    """All partial injections of {0..n-1}; -1 marks undefined, shown as '-'."""
    maps = [f for f in itertools.product(range(-1, n), repeat=n)
            if len({v for v in f if v >= 0}) == sum(v >= 0 for v in f)]
    index = {f: i for i, f in enumerate(maps)}
    names = ["".join(str(v) if v >= 0 else "-" for v in f) for f in maps]
    rows = [[index[tuple(-1 if f[x] < 0 else g[f[x]] for x in range(n))] for g in maps]
            for f in maps]
    return names, rows


def relabel(names, rows, rng: random.Random) -> str:
    """Table text of the same semigroup under a random element numbering;
    each name moves with its element. The last element stays last: the
    tower and the bi-family table have their zero there, as the engine's
    own constructions do.

    The zero's index matters for speed, not for the answers: most products
    of a large table with a zero are the zero, and CPython shares the int
    objects up to 256 only, so on the tower the zero's index alone changes
    the cost of the current J poset by about 2x. Keeping it last measures
    the numbering users load and keeps that cost the same for every seed.
    """
    m = len(names)
    perm = list(range(m - 1))
    rng.shuffle(perm)  # old index -> new index
    perm.append(m - 1)
    inv = [0] * m
    for old, new in enumerate(perm):
        inv[new] = old
    lines = [f"order: {m}", "names: " + " ".join(names[inv[k]] for k in range(m))]
    for k in range(m):
        row = rows[inv[k]]
        lines.append(" ".join(str(perm[row[inv[c]]]) for c in range(m)))
    return "\n".join(lines) + "\n"


def tower_table(n: int, rng: random.Random) -> Table:
    names, rows = brandt_tower(n)
    facts = {
        "order": len(names),
        "height_r": n,
        "relative_height": 2 * n - 1,
        "chain_param": n,
        "bound": 2 * n - 1,
        "theorem": "right-ideal",
    }
    # element 0 is the innermost (1, ..., 1) nesting; its right ideal is tight
    return Table(relabel(names, rows, rng), facts, (names[0],))


def transformation_table(n: int, rng: random.Random) -> Table:
    names, rows = full_transformations(n)
    facts = {"order": n**n, "height_r": n, "height_l": n, "height_j": n, "height_h": n,
             "j_classes": n}
    return Table(relabel(names, rows, rng), facts)


def partial_bijection_table(n: int, rng: random.Random) -> Table:
    names, rows = partial_bijections(n)
    order = sum(math.comb(n, k) * math.perm(n, k) for k in range(n + 1))
    facts = {"order": order, "height_r": n + 1, "height_j": n + 1, "j_classes": n + 1}
    return Table(relabel(names, rows, rng), facts)


def bi_ideal_table(n: int, rng: random.Random) -> Table:
    letters, rules = bi_ideal_rules(n)
    names, rows = presented_table(letters, rules)
    facts = {
        "order": 12 * (n - 1) + 1,
        "height_r": n,
        "relative_height": 3 * n - 2,
        "chain_param": n,
        "bound": 3 * n - 2,
        "theorem": "bi-ideal-cs-kernel",
    }
    return Table(relabel(names, rows, rng), facts, ("x", "y", "z", "tx"))

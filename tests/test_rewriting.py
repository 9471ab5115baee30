"""Parsing, reduction, critical pairs, completeness, and enumeration."""

import collections
import hashlib
import itertools
import random
import sys
import tracemalloc

import pytest

import oracles
from greenheight import (
    ZERO,
    CapExceeded,
    NotConfluent,
    ParseError,
    RewritingSystem,
    Rule,
    critical_pairs,
    element_index,
    format_presentation,
    is_complete,
    parse_presentation,
    reduce_word,
    semigroup_from_presentation,
)
from greenheight import _accel, cli, rewriting
from greenheight.errors import EngineBug
from greenheight.constructions import bi_ideal_family, left_ideal_cs_family


AB_SYSTEM = "letters: a b\nrule: ab -> a\nrule: ba -> b\n"


def rules_as_strings(rs):
    out = []
    for r in rs.rules:
        rhs = "!" if r.rhs is ZERO else rs.display(r.rhs)
        out.append((rs.display(r.lhs), rhs))
    return out


def test_parse_and_format_round_trip():
    rs = parse_presentation(bi_ideal_family(3).presentation_text)
    again = parse_presentation(format_presentation(rs))
    assert rules_as_strings(again) == rules_as_strings(rs)
    assert again.letters == rs.letters


@pytest.mark.parametrize("zero", ["zz", "nil"])
def test_format_round_trip_brackets_a_long_zero_token(zero):
    rs = RewritingSystem(("x", "y"), [("xx", ZERO), ("yy", "y")], zero=zero)
    text = format_presentation(rs)
    assert f"zero: [{zero}]" in text.splitlines()
    assert f"rule: xx -> [{zero}]" in text.splitlines()
    again = parse_presentation(text)
    assert again.letters == rs.letters
    assert again.zero_token == zero
    assert again.rules == rs.rules


def test_a_long_zero_token_is_displayed_bracketed():
    # else the zero [ab] and the word ab would share the name ab
    rs = RewritingSystem(("a", "b"), [("aa", ZERO)], zero="ab")
    assert (rs.display(ZERO), rs.display("ab")) == ("[ab]", "ab")
    assert RewritingSystem(("a",), [("aa", ZERO)], zero="0").display(ZERO) == "0"
    assert RewritingSystem(("a",), [("aa", "a")]).display(ZERO) == "0"


def test_rewriting_system_repr():
    rs = parse_presentation(bi_ideal_family(2).presentation_text)
    assert repr(rs) == "RewritingSystem(letters='xyzt', 16 rules, zero='0')"
    assert repr(RewritingSystem(("a",), [("aa", "a")])) == "RewritingSystem(letters='a', 1 rules)"
    # else a b c and a [bc] would print alike
    assert repr(RewritingSystem(("a", "bc"), [])) == "RewritingSystem(letters='a[bc]', 0 rules)"


def test_parse_accepts_comments_and_blank_lines():
    rs = parse_presentation("# heading\n\nletters: a b  # trailing\nrule: ab -> a\n")
    assert rs.letters == ("a", "b")
    assert len(rs.rules) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("rule: ab -> a\n", "letters"),
        ("letters: a a\nrule: aa -> a\n", "duplicate"),
        ("letters: a b\nrule: ac -> a\n", "non-letter"),
        ("letters: a b\nrule: ab = a\n", "->"),
        ("letters: a b\nrule: a -> ab\n", "length-reducing"),
        ("letters: a b\nrule: ab -> ab\n", "length-reducing"),
        ("letters: a b\nrule:  -> a\n", "empty"),
        ("letters: a b\nzero: a\nrule: ab -> a\n", "zero"),
        ("letters: a b\nnonsense: 3\n", "expected"),
        ("letters: a [b\n", "line 1, column 12: unclosed '['"),
        ("letters: a []\n", "line 1, column 12: bad bracketed token ''"),
        ("letters: a ]\n", "line 1, column 12: unexpected ']'"),
        ("letters: a\nletters: b\n", "line 2, column 1: duplicate 'letters:' declaration"),
        ("letters:  \n", "line 1, column 9: empty alphabet"),
        ("letters: a\nzero: 0\nzero: 1\n", "line 3, column 1: duplicate 'zero:' declaration"),
        ("letters: a\nzero: 0 1\n", "line 2, column 6: zero declaration needs exactly one token"),
        ("letters: a b\nrule: ab -> \n", "line 2, column 12: empty rule rhs"),
        # an arrow inside brackets is part of a token, not the rule arrow
        ("letters: a b\nrule: [p->q]b\n", "line 2, column 6: rule needs '->'"),
        # a '[' that nothing closes is reported, whatever follows it
        ("letters: a b\nrule: a [b -> a\n", "line 2, column 9: unclosed '['"),
        # a rule's letter errors point at the token, its length at the rhs
        ("letters: a b\nrule: abbbc -> a\n", "line 2, column 11: rule lhs uses non-letter 'c'"),
        ("letters: a b\nrule: ab -> ac\n", "line 2, column 14: rule rhs uses non-letter 'c'"),
        ("letters: a b\nrule: a[cd] -> a\n",
         "line 2, column 8: rule lhs uses non-letter 'cd'"),
        ("letters: a b\nrule: ab -> abb\n", "line 2, column 13: rule is not length-reducing"),
        ("letters: a b\nrule:ab->[b]a\n", "line 2, column 10: rule is not length-reducing"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("letters, rules, message", [
    (("",), [], "letter must be a non-empty string"),
    (("a b",), [], "letter 'a b' contains whitespace or reserved characters"),
    (("\ue000",), [], "letter '\\ue000' is in the reserved private-use range"),
    ((), [], "alphabet must be non-empty"),
    (("a",), [("", "a")], "rule lhs must be a non-empty word over the alphabet"),
    (("a",), [("a", "aa")], "rule a -> aa is not length-reducing"),
    (("a",), [("aa", ZERO)], "rules rewrite to zero but no zero token is declared"),
])
def test_rewriting_system_refuses_bad_input(letters, rules, message):
    with pytest.raises(ValueError) as exc:
        RewritingSystem(letters, rules)
    assert str(exc.value) == message


@pytest.mark.parametrize("build", [
    # '-' then '>' would read as the arrow unless bracketed
    lambda: RewritingSystem(("-", ">", "a"), [("->", "a")]),
    # a bracketed token may hold "->"; the rule arrow is the one outside brackets
    lambda: parse_presentation("letters: [p->q] b\nrule: [p->q]b -> b\n"),
], ids=["dash and angle letters", "arrow inside a token"])
def test_format_round_trip_of_arrow_characters(build):
    rs = build()
    again = parse_presentation(format_presentation(rs))
    assert again.letters == rs.letters
    assert rules_as_strings(again) == rules_as_strings(rs)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("letters: a b\nrule: a -> aa\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("a[b", "word 'a[b', column 2: unclosed '['"),
    ("a]", "word 'a]', column 2: unexpected ']'"),
    ("ab[]", "word 'ab[]', column 3: bad bracketed token ''"),
])
def test_a_word_that_does_not_tokenize_names_its_column_and_no_line(capsys, tmp_path,
                                                                    text, message):
    rs = parse_presentation("letters: a b\nrule: aa -> a\nrule: bb -> b\n"
                            "rule: aba -> a\nrule: bab -> b\n")
    s = semigroup_from_presentation(rs)
    for call in (rs.word, lambda w: element_index(rs, s, w),
                 lambda w: RewritingSystem(rs.letters, [(w, "a")])):
        with pytest.raises(ValueError) as exc:
            call(text)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message
    # the CLI falls back to element names, as before
    p = tmp_path / "p.txt"
    p.write_text(format_presentation(rs))
    assert cli.main(["bounds", str(p), "--kind", "bi", "--generators", text]) == 2
    assert capsys.readouterr() == ("", f"error: no element named {text!r}\n")


def test_zero_only_allowed_alone_on_rhs():
    rs = parse_presentation("letters: a\nzero: 0\nrule: aa -> 0\n")
    assert rs.rules[0].rhs is ZERO
    with pytest.raises(ParseError):
        parse_presentation("letters: a\nzero: 0\nrule: aaa -> a0\n")
    with pytest.raises(ParseError):
        parse_presentation("letters: a\nzero: 0\nrule: a0 -> a\n")


def test_empty_rhs_rejected_but_zero_accepted():
    # the empty word is no element of the semigroup
    for rule in (Rule("aa", ""), ("aa", "")):
        with pytest.raises(ValueError, match="empty right side"):
            RewritingSystem(("a",), [rule])
    with pytest.raises(ValueError, match="empty right side"):
        RewritingSystem(("g1", "g2"), [("[g1][g2]", "")])
    # an input fault, not an internal error, on the way to a semigroup
    with pytest.raises(ValueError):
        semigroup_from_presentation(RewritingSystem(("a",), [Rule("aa", "")]))
    rs = RewritingSystem(("a",), [Rule("aa", ZERO)], zero="0")
    assert rs.rules[0].rhs is ZERO
    assert semigroup_from_presentation(rs).order == 2


def test_multi_char_letters_use_brackets():
    rs = parse_presentation("letters: [g1] [g2]\nrule: [g1][g1] -> [g2]\n")
    w = rs.word("[g1][g1][g1]")
    assert rs.display(reduce_word(rs, w)) == "[g2][g1]"


def test_reduce_word_leftmost_lowest_rule():
    # both rules match "aaa"; position wins first, then rule index
    rs = RewritingSystem(("a", "b"), (Rule("aa", "b"), Rule("ab", "a")))
    assert rs.display(reduce_word(rs, rs.word("aaa"))) == "ba"
    # same position, lower index fires: aab -> ab (rule 0) -> b (rule 0)
    rs2 = RewritingSystem(("a", "b"), (Rule("ab", "b"), Rule("ab", "a")))
    assert rs2.display(reduce_word(rs2, rs2.word("aab"))) == "b"


def test_reduce_word_zero_absorbs():
    rs = parse_presentation("letters: x y\nzero: 0\nrule: xx -> 0\nrule: xy -> x\n")
    assert reduce_word(rs, rs.word("yxxy")) is ZERO
    assert reduce_word(rs, ZERO) is ZERO
    assert rs.display(ZERO) == "0"


def test_irreducible_word_is_fixed_point():
    rs = parse_presentation(AB_SYSTEM)
    w = reduce_word(rs, rs.word("abba"))
    assert reduce_word(rs, w) == w


def test_critical_pairs_ab_ba_contains_documented_pair():
    rs = parse_presentation(AB_SYSTEM)
    pairs = critical_pairs(rs)
    shapes = {
        (rs.display(p.source), frozenset({rs.display(p.left_result),
                                          rs.display(p.right_result)}))
        for p in pairs
    }
    assert ("aba", frozenset({"aa", "ab"})) in shapes
    assert ("bab", frozenset({"bb", "ba"})) in shapes


def test_critical_pairs_filter_trivial_overlap():
    rs = parse_presentation("letters: a\nrule: aa -> a\n")
    assert critical_pairs(rs) == []


def test_critical_pairs_include_zero_sided_pair():
    rs = parse_presentation(bi_ideal_family(2).presentation_text)
    hits = [
        p
        for p in critical_pairs(rs)
        if rs.display(p.source) == "xztyz"
    ]
    assert hits
    p = hits[0]
    results = {p.left_result if p.left_result is ZERO else rs.display(p.left_result),
               p.right_result if p.right_result is ZERO else rs.display(p.right_result)}
    assert results == {ZERO, "xz"}
    assert reduce_word(rs, p.left_result) is ZERO
    assert reduce_word(rs, p.right_result) is ZERO


@pytest.mark.parametrize("text, expected", [
    ("letters: a\nzero: 0\nrule: aaaa -> 0\nrule: aa -> a\n",
     [("aaaaa", "0", "aaaa", "overlap"), ("aaaa", "0", "aaa", "containment")]),
    ("letters: b\nrule: bbbb -> b\nrule: bb -> b\n",
     [("bbbbb", "bb", "bbbb", "overlap"), ("bbbb", "b", "bbb", "containment")]),
])
def test_critical_pairs_keep_one_pair_per_source_and_result_pair(text, expected):
    # the two-letter lhs sits at three places in the four-letter one, with one result
    rs = parse_presentation(text)

    def show(w):
        return "0" if w is ZERO else rs.display(w)

    assert [(show(p.source), show(p.left_result), show(p.right_result), p.overlap_kind)
            for p in critical_pairs(rs)] == expected


def test_is_complete_families():
    for n in range(2, 6):
        for fam in (bi_ideal_family, left_ideal_cs_family):
            rs = parse_presentation(fam(n).presentation_text)
            ok, witness = is_complete(rs)
            assert ok and witness is None


def test_is_complete_reports_nonconfluent_witness():
    rs = parse_presentation(AB_SYSTEM)
    ok, witness = is_complete(rs)
    assert not ok
    assert rs.display(witness.source) == "aba"
    sides = {
        rs.display(reduce_word(rs, witness.left_result)),
        rs.display(reduce_word(rs, witness.right_result)),
    }
    assert sides == {"aa", "a"}


def test_walk_small():
    rs = parse_presentation("letters: a\nrule: aa -> a\n")
    words = rewriting._walk(rs, 100)[0]
    assert {rs.display(w) for w in words} == {"a"}


def test_walk_counts_zero():
    rs = parse_presentation(bi_ideal_family(2).presentation_text)
    words = rewriting._walk(rs, 100)[0]
    assert len(words) == 13
    assert ZERO in words


def test_walk_cap():
    rs = RewritingSystem(("a", "b"), (Rule("aaaa", "a"),))
    with pytest.raises(CapExceeded) as exc:
        rewriting._walk(rs, 10)
    assert exc.value.cap == 10
    with pytest.raises(ValueError, match="^cap must be positive$"):
        rewriting._walk(rs, 0)


def test_semigroup_from_presentation_matches_table_route():
    fi = bi_ideal_family(2)
    s = semigroup_from_presentation(fi.presentation_text)
    assert s.order == 13
    assert s.names == fi.semigroup.names
    assert (s.table == fi.semigroup.table).all()


def bracketed(text):
    """The same presentation with each letter c renamed to the token [c1]."""
    out = []
    for line in text.splitlines():
        head, sep, rest = line.partition(":")
        if head != "zero":
            rest = "".join(f"[{c}1]" if c.isalpha() else c for c in rest)
        out.append(head + sep + rest)
    return "\n".join(out) + "\n"


PINNED_PRESENTATIONS = (
    [pytest.param(bi_ideal_family(n).presentation_text, id=f"bi{n}") for n in range(2, 7)]
    + [pytest.param(left_ideal_cs_family(n).presentation_text, id=f"left{n}")
       for n in range(2, 9)]
    + [
        pytest.param(bracketed(bi_ideal_family(3).presentation_text), id="bracketed-bi3"),
        pytest.param("letters: a b\nrule: aa -> a\nrule: bb -> b\n"
                     "rule: aba -> a\nrule: bab -> b\n", id="no-zero"),
        pytest.param("letters: a\nrule: aaa -> a\n", id="one-letter"),
    ]
)


@pytest.mark.parametrize("text", PINNED_PRESENTATIONS)
def test_presentation_table_matches_all_pairs_oracle(text):
    rs = parse_presentation(text)
    s = semigroup_from_presentation(rs)
    names, table = oracles.presentation_table_all_pairs(rs)
    assert s.names == tuple(names)
    assert s.table.tolist() == table


def random_presentations(seed, draws):
    """draws random systems with a zero over {a, b} or {a, b, c}. A rule set
    may kill a letter (a -> 0), and one in ten also sends every word of
    length 4 (two letters) or 3 (three letters) to zero, so that larger
    finite tables come up too."""
    rng = random.Random(seed)
    for _ in range(draws):
        letters = "abc"[: rng.choice((2, 3))]
        rules = []
        for _ in range(rng.randint(2, 6)):
            length = 1 if rng.random() < 0.1 else rng.randint(2, 3)
            lhs = "".join(rng.choice(letters) for _ in range(length))
            if length == 1 or rng.random() < 0.4:
                rhs = ZERO
            else:
                rhs = "".join(rng.choice(letters) for _ in range(rng.randint(1, length - 1)))
            rules.append((lhs, rhs))
        if rng.random() < 0.1:
            depth = 4 if len(letters) == 2 else 3
            rules += [("".join(w), ZERO) for w in itertools.product(letters, repeat=depth)]
        yield RewritingSystem(letters, rules, zero="0")


def random_complete_presentations(seed, draws, max_order):
    """The complete systems with at most max_order elements among
    random_presentations(seed, draws)."""
    kept = []
    for rs in random_presentations(seed, draws):
        if not is_complete(rs)[0]:
            continue
        try:
            rewriting._walk(rs, max_order)
        except CapExceeded:
            continue
        kept.append(rs)
    return kept


def test_random_complete_presentations_match_all_pairs_oracle():
    kept = random_complete_presentations(20261019, 3000, 60)
    assert len(kept) == 228
    killed = [rs for rs in kept if any(len(r.lhs) == 1 for r in rs.rules)]
    assert len(killed) == 206
    for rs in kept:
        words = rewriting._walk(rs, rewriting.DEFAULT_CAP)[0]
        # the words are the irreducible ones, checked by reduction alone
        listed = set(words)
        for u in [""] + words[:-1]:
            for c in rs.letters:
                assert (reduce_word(rs, u + c) == u + c) == (u + c in listed)
        s = semigroup_from_presentation(rs)
        names, table = oracles.presentation_table_all_pairs(rs)
        assert s.names == tuple(names), format_presentation(rs)
        assert s.table.tolist() == table, format_presentation(rs)


def assert_rows_are_reduced_products(rs):
    """Each edge of the walk's right Cayley graph, words[i]·a, against the
    normal form of that word, with the words from the oracle."""
    words, _, _, right = rewriting._walk(rs, rewriting.DEFAULT_CAP)
    assert words == oracles.presentation_normal_forms(rs), format_presentation(rs)
    index = {w: i for i, w in enumerate(words)}
    for i, u in enumerate(words):
        for k, tok in enumerate(rs.letters):
            product = ZERO if u is ZERO else reduce_word(rs, u + rs.word([tok]))
            assert right[i, k] == index[product], format_presentation(rs)


def test_walk_rows_are_reduced_products_of_random_presentations():
    for rs in random_complete_presentations(20261019, 3000, 60):
        assert_rows_are_reduced_products(rs)


@pytest.mark.parametrize("family", [bi_ideal_family, left_ideal_cs_family])
@pytest.mark.parametrize("n", range(2, 7))
def test_walk_rows_are_reduced_products_of_the_families(family, n):
    assert_rows_are_reduced_products(parse_presentation(family(n).presentation_text))


def assert_prefixes_spell_words(rs):
    """Each word but ZERO is its recorded prefix, -1 the empty word,
    followed by its recorded last letter."""
    words, prefix, last, _ = rewriting._walk(rs, rewriting.DEFAULT_CAP)
    assert len(prefix) == len(last) == len(words) - rs.has_zero
    assert words[len(prefix):] == ([ZERO] if rs.has_zero else [])
    for j, (p, a) in enumerate(zip(prefix.tolist(), last.tolist())):
        spelled = ("" if p == -1 else words[p]) + rs.word([rs.letters[a]])
        assert spelled == words[j], format_presentation(rs)


def test_walk_prefixes_spell_the_words_of_random_presentations():
    for rs in random_complete_presentations(20261019, 3000, 60):
        assert_prefixes_spell_words(rs)


@pytest.mark.parametrize("family", [bi_ideal_family, left_ideal_cs_family])
@pytest.mark.parametrize("n", range(2, 7))
def test_walk_prefixes_spell_the_words_of_the_families(family, n):
    assert_prefixes_spell_words(parse_presentation(family(n).presentation_text))


@pytest.mark.parametrize("family, n, digest", [
    pytest.param(bi_ideal_family, 16,
                 "695f032429836ee4dd85e4965bd383068c261de07692cbd6f455784b0a347287",
                 id="bi16"),
    pytest.param(bi_ideal_family, 20,
                 "0e28f2c10174d340ff255b289280375c494af37cd5beb6b1c895e9e93c8aa28f",
                 id="bi20"),
    pytest.param(bi_ideal_family, 60,
                 "0063222a3917c974a33b66f7da444063572ffb1a570aa03a536b67168d0f90fa",
                 id="bi60"),
    pytest.param(left_ideal_cs_family, 24,
                 "3630d8b18a5c300791746d32b4d6fe77776ce7e03e06d9b878f62aca9ef9398f",
                 id="left24"),
    pytest.param(left_ideal_cs_family, 40,
                 "824fc7e874e5300a8291e762a8955f37f4dadd745aedeff7a873dbc0e8da9c89",
                 id="left40"),
])
def test_family_presentation_tables_are_pinned(family, n, digest):
    s = semigroup_from_presentation(family(n).presentation_text)
    h = hashlib.sha256(s.table.tobytes())
    h.update("\n".join(s.names).encode())
    assert h.hexdigest() == digest


def test_table_build_peaks_within_four_and_a_half_tables():
    # the column gathers, the transposed copy and the associativity check
    # together: 4.3 tables at order 1,189
    text = bi_ideal_family(100).presentation_text
    tracemalloc.start()
    try:
        s = semigroup_from_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.order == 1189
    assert peak <= 4.5 * s.table.nbytes


def test_table_build_reduces_words_only_to_check_completeness(monkeypatch):
    # a complete system is certified by its table: no critical pair and no
    # reduction; a system that is not is refused with is_complete's witness
    text = bi_ideal_family(4).presentation_text
    assert critical_pairs(parse_presentation(text))
    callers = []
    for name in ("reduce_word", "critical_pairs"):
        real = getattr(rewriting, name)

        def spy(*args, real=real):
            callers.append((real.__name__, sys._getframe(1).f_code.co_name))
            return real(*args)

        monkeypatch.setattr(rewriting, name, spy)
    semigroup_from_presentation(text)
    assert callers == []
    with pytest.raises(NotConfluent):
        semigroup_from_presentation(AB_SYSTEM, cap=10)
    # every pair up to the witness, the first, then the witness's two sides
    assert callers == ([("critical_pairs", "is_complete")]
                       + [("reduce_word", "first_unresolved")] * 2
                       + [("reduce_word", "_require_complete")] * 2)


def record_verdicts(monkeypatch, verdicts):
    """Append to verdicts whether each associativity check passed, that is
    whether _accel.assoc_witness gave None."""
    real = _accel.assoc_witness

    def spy(*args):
        result = real(*args)
        verdicts.append(f"assoc_witness {'passes' if result is None else 'fails'}")
        return result

    monkeypatch.setattr(_accel, "assoc_witness", spy)


# one system for each way the build refuses a presentation, with the error
# that is_complete gave it when it ran before every walk; a broken rule is
# refused by the walk, before any table is built
UNRESOLVED = "presentation is not confluent: source "
FAILURE_PATHS = [
    pytest.param("letters: a b\nrule: aa -> b\nrule: ab -> a\nrule: bb -> a\n", NotConfluent,
                 UNRESOLVED + "aaa rewrites to both ba and a",
                 ["assoc_witness fails"], id="not-associative"),
    # the walk applies bb -> b, so bbb -> a does not hold on its rows
    pytest.param("letters: a b\nrule: ab -> b\nrule: bb -> b\nrule: bbb -> a\nrule: aa -> a\n",
                 NotConfluent, UNRESOLVED + "abbb rewrites to both b and a",
                 [], id="rule-broken"),
    pytest.param("letters: a\nzero: 0\nrule: aa -> a\nrule: aaa -> 0\n", NotConfluent,
                 UNRESOLVED + "aaaa rewrites to both a and 0",
                 [], id="zero-rule-broken"),
    pytest.param(AB_SYSTEM, NotConfluent, UNRESOLVED + "aba rewrites to both aa and a",
                 [], id="past-the-cap"),
    pytest.param("letters: a b\nrule: aa -> a\nrule: bb -> b\n", CapExceeded,
                 "enumeration exceeded cap=10 (at least 12 irreducible words);"
                 " the presented semigroup may be infinite", [], id="confluent-infinite"),
]


@pytest.mark.parametrize("text, error, message, verdicts", FAILURE_PATHS)
def test_each_failure_path_keeps_its_error(monkeypatch, capsys, tmp_path,
                                           text, error, message, verdicts):
    seen = []
    record_verdicts(monkeypatch, seen)
    with pytest.raises(error) as exc:
        semigroup_from_presentation(text, cap=10)
    assert str(exc.value) == message
    assert seen == verdicts
    p = tmp_path / "p.txt"
    p.write_text(text)
    assert cli.main(["height", str(p), "--cap", "10"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_complete_system_whose_table_breaks_it_is_an_internal_error(monkeypatch):
    # a broken rule raises in the walk, a table that is not associative
    # after the constructor; neither can happen to a system that is complete
    monkeypatch.setattr(rewriting, "is_complete", lambda rs: (True, None))
    text_of = {p.id: p.values[0] for p in FAILURE_PATHS}
    for path, site in [("rule-broken", "_walk"),
                       ("not-associative", "semigroup_from_presentation")]:
        with pytest.raises(EngineBug) as exc:
            semigroup_from_presentation(text_of[path])
        assert str(exc.value) == "a complete presentation built a table that breaks it"
        assert exc.traceback[-1].name == site


def test_build_refuses_exactly_the_systems_is_complete_refuses():
    # every draw, complete or not: the table's certificate against critical pairs
    outcomes = collections.Counter()
    for rs in random_presentations(20261019, 6000):
        ok, witness = is_complete(rs)
        try:
            s = semigroup_from_presentation(rs, cap=200)
        except NotConfluent as e:
            assert not ok, format_presentation(rs)
            left, right = (rs.display(reduce_word(rs, w))
                           for w in (witness.left_result, witness.right_result))
            assert str(e) == (f"{UNRESOLVED}{rs.display(witness.source)}"
                              f" rewrites to both {left} and {right}")
            outcomes["not confluent"] += 1
        except CapExceeded:
            assert ok, format_presentation(rs)
            outcomes["past the cap"] += 1
        else:
            assert ok, format_presentation(rs)
            assert s.names == tuple(map(rs.display, oracles.presentation_normal_forms(rs)))
            outcomes["built"] += 1
    assert outcomes == {"not confluent": 4450, "built": 423, "past the cap": 1127}


def test_semigroup_from_presentation_rejects_incomplete():
    with pytest.raises(NotConfluent) as exc:
        semigroup_from_presentation(AB_SYSTEM)
    assert "aba" in str(exc.value)


def test_element_index_resolves_words():
    fi = bi_ideal_family(2)
    rs = parse_presentation(fi.presentation_text)
    s = fi.semigroup
    assert element_index(rs, s, "xyzt") == s.index("x")
    assert element_index(rs, s, "tx") == s.index("0")
    assert element_index(rs, s, "zty") == s.index("zty")


def test_strategy_independence_on_complete_systems():
    rng = random.Random(20240814)
    for fam, n in ((bi_ideal_family, 2), (bi_ideal_family, 4),
                   (left_ideal_cs_family, 3), (left_ideal_cs_family, 5)):
        fi = fam(n)
        rs = parse_presentation(fi.presentation_text)
        raw_rules = [
            (rs.display(r.lhs), "!" if r.rhs is ZERO else rs.display(r.rhs))
            for r in rs.rules
        ]
        for _ in range(300):
            w = oracles.random_word(rs.letters, rng, 12)
            theirs = oracles.random_reduce(raw_rules, w, rng)
            mine = reduce_word(rs, rs.word(w))
            mine_str = "!" if mine is ZERO else rs.display(mine)
            assert mine_str == theirs, (w, mine_str, theirs)


@pytest.mark.parametrize("family, digest", [
    (bi_ideal_family, "8366e789acc1c71ef671cbd8878b2c05f393d6e1bf9eae24a4ff9c317c713bb7"),
    (left_ideal_cs_family, "a23c596311865328f99b42e43068e452c5212b088cb47bc03f2c71dbb21c2260"),
])
def test_critical_pairs_of_the_families_are_pinned(family, digest):
    # digests taken while the dedup keys still tagged ZERO apart from words
    h = hashlib.sha256()
    for n in range(2, 9):
        h.update(repr(critical_pairs(parse_presentation(family(n).presentation_text))).encode())
    assert h.hexdigest() == digest

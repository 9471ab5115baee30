"""Tables, parsing, subset handles, and a handle read as a semigroup of its own."""

import ast
import inspect
import random

import numpy as np
import pytest

import greenheight
import oracles
from greenheight import _accel, core
from greenheight import (
    NotAssociative,
    NotClosed,
    ParseError,
    SubsetHandle,
    class_poset,
    closure_violation,
    format_presentation,
    format_table_text,
    from_table,
    parse_presentation,
    parse_table_text,
)
from greenheight.constructions import (
    bi_ideal_family,
    brandt_example,
    full_transformation_monoid,
    left_zero_semigroup,
    null_semigroup,
    right_ideal_tower,
    symmetric_inverse_monoid,
)

LEFT_ZERO_3 = "order: 3\nnames: a b c\n0 0 0\n1 1 1\n2 2 2\n"


def test_parse_table_text_basic():
    s = parse_table_text(LEFT_ZERO_3)
    assert s.order == 3
    assert s.names == ("a", "b", "c")
    assert s.product(s.index("b"), s.index("c")) == s.index("b")


def test_parse_table_text_comments():
    s = parse_table_text("# two-element\norder: 2\nnames: e o\n0 1  # identity row\n1 0\n")
    assert s.names == ("e", "o")
    assert s.identity == 0


def test_both_parsers_skip_a_leading_byte_order_mark():
    s = parse_table_text("\ufeff" + LEFT_ZERO_3)
    assert s.names == ("a", "b", "c")
    assert (s.table == parse_table_text(LEFT_ZERO_3).table).all()
    text = bi_ideal_family(2).presentation_text
    assert format_presentation(parse_presentation("\ufeff" + text)) == text
    # a mark is dropped only at the start of the text
    with pytest.raises(ParseError, match="^line 2, column 1: expected 'names' declaration$"):
        parse_table_text("\ufefforder: 1\n\ufeffnames: a\n0\n")


def test_format_round_trip():
    s = brandt_example()
    again = parse_table_text(format_table_text(s))
    assert again.names == s.names
    assert (again.table == s.table).all()


def test_format_writes_the_parsed_text_back():
    assert format_table_text(parse_table_text(LEFT_ZERO_3)) == LEFT_ZERO_3


def test_format_round_trip_of_tower_five():
    s = right_ideal_tower(5).semigroup  # order 341
    text = format_table_text(s)
    assert text.splitlines()[2] == " ".join(str(v) for v in s.table[0].tolist())
    again = parse_table_text(text)
    assert again.names == s.names
    assert (again.table == s.table).all()


# (text, short name, the exact error); a case's id is "text-short name"
PARSE_ERRORS = [
    ("names: a\n0\n", "order", "line 1, column 1: expected 'order' declaration"),
    ("order: 0\n", "positive", "line 1, column 1: order must be positive"),
    ("order: 2\n0 1\n1 0\n", "names", "line 2, column 1: expected 'names' declaration"),
    ("order: 2\nnames: a b\n0 1\n", "rows", "line 3, column 1: expected 2 table rows, got 1"),
    ("order: 2\nnames: a b\n0 1 0\n1 0\n", "entries",
     "line 3, column 1: row has 3 entries, expected 2"),
    # one entry must not fill the row
    ("order: 2\nnames: a b\n0\n1 0\n", "one entry",
     "line 3, column 1: row has 1 entries, expected 2"),
    ("order: 2\nnames: a b\n0 2\n1 0\n", "range", "line 3, column 1: table entry 2 out of range"),
    ("order: 2\nnames: a b\n0 1\n-1 0\n", "negative",
     "line 4, column 1: table entry -1 out of range"),
    # past int32, still reported as out of range
    ("order: 2\nnames: a b\n0 99999999999\n1 0\n", "past int32",
     "line 3, column 1: table entry 99999999999 out of range"),
    # the first bad row wins, whatever the kind of error in a later one
    ("order: 2\nnames: a b\n0 2\n1 x\n", "first row wins",
     "line 3, column 1: table entry 2 out of range"),
    ("order: 3\nnames: a b c\n# rows\n0 0 0\n\n1 1 1\n2 2 -5\n", "line numbers",
     "line 7, column 1: table entry -5 out of range"),
    ("order: 2\nnames: a\n0 1\n1 0\n", "names", "line 2, column 1: expected 2 names, got 1"),
    ("order: 2\nnames: a a\n0 1\n1 0\n", "distinct",
     "line 2, column 10: element names must be distinct"),
    ("# c\norder: 4\nnames:\tb ab  a a\n" + "0 0 0 0\n" * 4, "distinct at the repeat",
     "line 3, column 16: element names must be distinct"),
    ("order: 2\nnames: a b\n0 x\n1 0\n", "bad table entry", "line 3, column 1: bad table entry 'x'"),
    ("", "empty", "line 1, column 1: empty table text"),
    ("# a comment\n\n", "comments only", "line 1, column 1: empty table text"),
    ("order: 2\n", "no names line", "line 1, column 1: missing 'names' line"),
    ("order: x\n", "integer", "line 1, column 7: order must be an integer"),
]


@pytest.mark.parametrize("text, message", [
    pytest.param(text, message, id=f"{text}-{name}") for text, name, message in PARSE_ERRORS])
def test_parse_table_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_table_text(text)
    assert str(exc.value) == message


def test_parse_table_accepts_full_width_digits_and_signs():
    # a full-width digit is a decimal digit to int()
    s = parse_table_text("order: 4\nnames: a b c d\n0 0 0 0\n1 1 1 1\n2 2 2 2\n\uff13 +3 3 3\n")
    assert s.table.tolist() == [[0] * 4, [1] * 4, [2] * 4, [3] * 4]


@pytest.mark.parametrize(
    "build",
    [
        lambda: right_ideal_tower(4).semigroup,
        lambda: full_transformation_monoid(3),
        lambda: symmetric_inverse_monoid(3),
        lambda: bi_ideal_family(6).semigroup,
    ],
    ids=["tower4", "T3", "I3", "bi6"],
)
def test_written_tables_are_read_without_the_cell_reader(monkeypatch, build):
    # a silent fall back to the cell-by-cell reader would only show as a slowdown
    def refuse(rows, m):
        raise AssertionError("the row reader refused a table that format_table_text wrote")

    monkeypatch.setattr(core, "_table_by_cells", refuse)
    s = build()
    again = parse_table_text(format_table_text(s))
    assert (again.table == s.table).all()


@pytest.mark.parametrize("sep", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003"])
def test_both_readers_give_the_table_int_gives(sep):
    # left zero of order 12: row a holds a in every cell, some written as int() also reads them
    m = 12
    spelled = {3: "+3", 5: "05", 7: "\uff17", 10: "1_0"}
    bodies = [sep.join([spelled.get(a, str(a))] + [str(a)] * (m - 1)) for a in range(m)]
    want = [[int(c) for c in body.split()] for body in bodies]
    assert want == [[a] * m for a in range(m)]
    rows = list(enumerate(bodies, 3))
    fast = core._table_by_rows(rows, m)
    assert fast is None or fast.tolist() == want
    assert core._table_by_cells(rows, m).tolist() == want
    text = "order: 12\nnames: " + " ".join("abcdefghijkl") + "\n" + "\n".join(bodies) + "\n"
    if len(text.splitlines()) == 2 + m:  # \x0b, \x0c and \x1c also end a line
        assert parse_table_text(text).table.tolist() == want


def test_row_reader_takes_ascii_rows_only(monkeypatch):
    # numpy's text reader can crash on some other code points, such as U+9C6CA
    def refuse(*args, **kwargs):
        raise AssertionError("a non-ASCII row reached np.loadtxt")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert core._table_by_rows([(3, "0\U0009c6ca")], 1) is None
    with pytest.raises(ParseError) as exc:
        parse_table_text("order: 1\nnames: a\n0\U0009c6ca\n")
    assert str(exc.value) == "line 3, column 1: bad table entry " + repr("0\U0009c6ca")


def test_parse_table_rejects_non_associative():
    bad = "order: 2\nnames: a b\n1 0\n0 0\n"
    with pytest.raises(NotAssociative) as exc:
        parse_table_text(bad)
    a, b, c = exc.value.triple
    t = [[1, 0], [0, 0]]
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_from_table_witness_is_lex_first():
    with pytest.raises(NotAssociative) as exc:
        from_table(["p", "q"], [[1, 0], [0, 0]])
    assert exc.value.triple == (0, 0, 1)


def one_bad_cell_null_table(m, i, j):
    """Null semigroup of order m with zero m-1, except t[i][j] = i: its only
    non-associative triple is (i, j, j)."""
    t = [[m - 1] * m for _ in range(m)]
    t[i][j] = i
    return t


@pytest.mark.parametrize("m", [260, 300])
@pytest.mark.parametrize("i, j", [(5, 200), (7, 11), (150, 3)])
def test_one_bad_triple_rejected_above_old_exhaustive_limit(m, i, j):
    # the only failing triple, so also the lexicographically first
    with pytest.raises(NotAssociative) as exc:
        from_table([str(k) for k in range(m)], one_bad_cell_null_table(m, i, j))
    assert exc.value.triple == (i, j, j)


def test_identity_detection():
    assert full_transformation_monoid(2).identity is not None
    assert null_semigroup(3).identity is None
    assert left_zero_semigroup(2).identity is None
    # found on first read, not at construction
    for m in (1, 2, 3):
        for t in oracles.labelled_tables(m):
            s = from_table([str(i) for i in range(m)], t)
            assert "identity" not in vars(s)
            assert s.identity == oracles.naive_identity(t.tolist())
            assert vars(s)["identity"] == s.identity


def test_len_and_repr():
    s = null_semigroup(3)
    assert (len(s), repr(s)) == (3, "FiniteSemigroup(order=3)")
    s = full_transformation_monoid(2)
    assert (len(s), repr(s)) == (4, f"FiniteSemigroup(order=4, identity={s.names[s.identity]!r})")


def test_every_exported_name_resolves_once():
    names = greenheight.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(greenheight, name), name
    star = {}
    exec("from greenheight import *", star)
    assert set(names) <= set(star)
    # and every name __init__ imports is exported, so none is left stale
    tree = ast.parse(inspect.getsource(greenheight))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert imported == set(names)


def test_index_and_names():
    s = parse_table_text(LEFT_ZERO_3)
    assert s.index("c") == 2
    with pytest.raises(ValueError, match="no element named 'zz'"):
        s.index("zz")


# "a#" too: table text reads '#' as the start of a comment, so that name
# could be written out but not read back
@pytest.mark.parametrize("name", ["", "a b", "a\t", "\u2003a", "a\x1c", "\u3000", "a#"])
def test_names_with_whitespace_are_refused(name):
    with pytest.raises(ValueError, match="bad element name"):
        from_table([name], [[0]])


@pytest.mark.parametrize("names, table, message", [
    (["a"], [[0, 0]], "table must be square, got shape (1, 2)"),
    ([], np.zeros((0, 0), dtype=np.int32), "semigroup must have at least one element"),
    (["a"], [[0, 0], [0, 0]], "1 names for 2 elements"),
])
def test_semigroup_refuses_bad_shapes_and_name_counts(names, table, message):
    with pytest.raises(ValueError) as exc:
        core.FiniteSemigroup(names, table)
    assert str(exc.value) == message


def test_names_of_non_space_characters_are_kept():
    names = ("\u200b", "\xb7", "a\u2060")
    assert from_table(names, [[0, 0, 0], [1, 1, 1], [2, 2, 2]]).names == names


@pytest.mark.parametrize(
    "table",
    [
        np.array([[0, 2**32], [0, 0]]),  # int32 would wrap 2**32 to 0
        np.array([[0.7, 0], [0, 0]]),  # int32 would truncate 0.7 to 0
        np.zeros((2, 2), dtype=bool),
        [[0, 2**64], [0, 0]],  # past every numpy integer: an object array
    ],
    ids=["wraps", "truncates", "bool", "object"],
)
def test_tables_an_int32_cast_would_rewrite_are_refused(table):
    with pytest.raises(ValueError, match="table entries must be element indices"):
        from_table(["a", "b"], table)


def test_a_checked_table_is_not_shared_with_the_caller():
    a = np.zeros((2, 2), np.int32)
    v = a.view()
    s = from_table(["a", "b"], a)
    v[...] = [[1, 0], [0, 0]]  # not associative: (0*0)*1 != 0*(0*1)
    assert a.flags.writeable
    assert s.table.tolist() == [[0, 0], [0, 0]]
    assert _accel.assoc_witness(s.table) is None
    assert not s.table.flags.writeable


def test_closure_violation_matches_oracle_on_all_small_tables():
    shapes = set()
    for m in (1, 2, 3):
        for t in oracles.labelled_tables(m):
            s = from_table([str(i) for i in range(m)], t)
            rows = t.tolist()
            for bits in range(1, 1 << m):
                members = frozenset(i for i in range(m) if bits >> i & 1)
                for kind in core.KINDS:
                    witness = closure_violation(s, members, kind)
                    assert witness == oracles.naive_closure_witness(rows, members, kind)
                    assert (witness is None) == oracles.naive_is_kind(rows, members, kind)
                    shapes.add(None if witness is None else witness[0])
    assert shapes == {None, "product", "right", "left", "middle"}


def test_bi_ideal_witness_is_lex_first():
    middles = 0
    for m in (1, 2, 3):
        for t in oracles.labelled_tables(m):
            s = from_table([str(i) for i in range(m)], t)
            rows = t.tolist()
            for bits in range(1, 1 << m):
                members = frozenset(i for i in range(m) if bits >> i & 1)
                witness = closure_violation(s, members, "bi_ideal")
                assert witness == oracles.naive_closure_witness(rows, members, "bi_ideal")
                middles += witness is not None and witness[0] == "middle"
    assert middles > 0


def test_closure_witnesses_on_random_subsets_of_bi_family():
    rng = random.Random(5)
    s = bi_ideal_family(3).semigroup
    rows = s.table.tolist()
    shapes = set()
    for _ in range(300):
        members = frozenset(rng.sample(range(s.order), rng.randint(1, s.order)))
        for kind in core.KINDS:
            witness = closure_violation(s, members, kind)
            assert witness == oracles.naive_closure_witness(rows, members, kind)
            shapes.add(None if witness is None else witness[0])
    assert shapes == {None, "product", "right", "left", "middle"}


@pytest.mark.parametrize("members", [{0, 2}, {-1}])
def test_closure_violation_refuses_members_out_of_range(members):
    with pytest.raises(ValueError, match="^member set contains an invalid element index$"):
        closure_violation(left_zero_semigroup(2), members, "right_ideal")


def test_closure_violation_witness_is_real():
    s = parse_table_text("order: 2\nnames: e g\n0 1\n1 0\n")  # group of order 2
    w = closure_violation(s, {1}, "subsemigroup")
    assert w is not None
    tag, a, b, result = w
    assert tag == "product"
    assert s.product(a, b) == result
    assert result not in {1}


def test_subset_handle_validates_and_sorts():
    s = brandt_example()
    members = {s.index("(1,1)"), s.index("(1,2)"), s.index("0")}
    h = SubsetHandle(s, frozenset(members), "right_ideal")
    assert h.sorted_members == tuple(sorted(members))
    assert h.member_names == tuple(s.names[i] for i in sorted(members))
    with pytest.raises(NotClosed):
        SubsetHandle(s, frozenset({s.index("(1,1)")}), "right_ideal")
    with pytest.raises(ValueError):
        SubsetHandle(s, frozenset(), "right_ideal")
    with pytest.raises(ValueError):
        SubsetHandle(s, frozenset(members), "ideal-ish")


def _whole(s, i):
    return [i, *range(s.order)]  # a two-sided ideal that holds i


INDEX_ENTRY_POINTS = {
    "product": lambda s, i: s.product(i, i),
    "SubsetHandle": lambda s, i: SubsetHandle(s, _whole(s, i), "two_sided_ideal").members,
    "closure_violation": lambda s, i: closure_violation(s, _whole(s, i), "two_sided_ideal"),
    "leq": lambda s, i: greenheight.leq(s, i, i, "J"),
    "class_index": lambda s, i: class_poset(s, "R").class_index(i),
    "longest_chain": lambda s, i: class_poset(s, "R").longest_chain([i]),
    "generate": lambda s, i: greenheight.generate(s, [i], "bi_ideal").members,
}


@pytest.mark.parametrize("call", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS)
def test_index_entry_points_refuse_floats_and_take_numpy_ints(call):
    s = brandt_example()
    with pytest.raises(TypeError):
        call(s, 0.5)
    assert call(s, np.int64(1)) == call(s, 1)


def test_class_poset_of_a_handle_matches_oracle():
    for t in oracles.relabelled(5, 20, seed=3):
        s = from_table([str(i) for i in range(5)], t)
        rows = t.tolist()
        for bits in range(1, 32):
            members = frozenset(i for i in range(5) if bits >> i & 1)
            if not oracles.naive_is_kind(rows, members, "subsemigroup"):
                continue
            h = SubsetHandle(s, members, "subsemigroup")
            sub = oracles.sub_table(rows, members)
            for rel in ("R", "L", "J", "H"):
                poset = class_poset(h, rel)
                assert poset.names == tuple(str(i) for i in sorted(members))
                assert sorted(map(frozenset, poset.classes)) == sorted(
                    oracles.naive_classes(sub, rel))
                assert [c[0] for c in poset.classes] == sorted(c[0] for c in poset.classes)
                assert all(poset.class_index(a) == i
                           for i, cls in enumerate(poset.classes) for a in cls)
                assert poset.height == oracles.naive_height(sub, rel)


def test_sampled_tables_round_trip_through_parser():
    for t in oracles.relabelled(4, 10, seed=4):
        s = from_table([f"g{i}" for i in range(4)], t)
        again = parse_table_text(format_table_text(s))
        assert (again.table == s.table).all()
        assert again.names == s.names

"""Property-based invariants over randomly sampled semigroups and words."""

import random

from hypothesis import given, settings, strategies as st

import oracles
from greenheight import (
    SubsetHandle,
    ZERO,
    bound_report,
    chain_param,
    class_poset,
    closure_violation,
    from_table,
    height,
    leq,
    reduce_word,
    relative_height,
)
from greenheight.green import RELATIONS

# a pool of randomly relabelled tables per order, drawn once; hypothesis picks indices
_POOL = {
    m: oracles.relabelled(m, 60, seed=1000 + m) for m in (2, 3, 4, 5)
}


def pick(order, idx):
    tables = _POOL[order]
    t = tables[idx % len(tables)]
    return from_table([str(i) for i in range(order)], t)


table_strategy = st.builds(
    pick, st.sampled_from(sorted(_POOL)), st.integers(min_value=0, max_value=59)
)


@given(table_strategy)
@settings(max_examples=60, deadline=None)
def test_leq_is_a_preorder(s):
    m = s.order
    for rel in RELATIONS:
        for a in range(m):
            assert leq(s, a, a, rel)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if leq(s, a, b, rel) and leq(s, b, c, rel):
                        assert leq(s, a, c, rel)


@given(table_strategy)
@settings(max_examples=60, deadline=None)
def test_classes_partition_and_mutual_comparability(s):
    for rel in RELATIONS:
        poset = class_poset(s, rel)
        seen = sorted(a for cls in poset.classes for a in cls)
        assert seen == list(range(s.order))
        for cls in poset.classes:
            rep = min(cls)
            for a in cls:
                assert leq(s, a, rep, rel) and leq(s, rep, a, rel)


@given(table_strategy)
@settings(max_examples=60, deadline=None)
def test_height_dominance_and_h_classes(s):
    # J coarsens R and L, so J-height dominates both
    assert height(s, "R") <= height(s, "J")
    assert height(s, "L") <= height(s, "J")
    # every H-class sits inside an R-class and an L-class
    h_classes = {frozenset(c) for c in class_poset(s, "H").classes}
    r_classes = {frozenset(c) for c in class_poset(s, "R").classes}
    for hc in h_classes:
        assert any(hc <= rc for rc in r_classes)


@given(table_strategy)
@settings(max_examples=40, deadline=None)
def test_kernel_is_minimum_ideal_and_cs(s):
    rows = s.table.tolist()
    kern = oracles.naive_kernel(rows)
    assert closure_violation(s, kern, "two_sided_ideal") is None
    assert oracles.naive_completely_simple(rows)
    # union of minimal right ideals lemma
    union = frozenset().union(*oracles.naive_minimal_right_ideals(rows))
    assert union == kern
    assert (height(s, "R") == 1) == (union == frozenset(range(s.order)))


@given(table_strategy, st.integers(min_value=1, max_value=2 ** 5 - 1))
@settings(max_examples=120, deadline=None)
def test_subset_kind_agreement_and_bounds(s, bits):
    members = frozenset(i for i in range(s.order) if bits >> i & 1 and i < s.order)
    if not members:
        return
    rows = s.table.tolist()
    for kind in ("bi_ideal", "right_ideal", "left_ideal", "two_sided_ideal"):
        engine = closure_violation(s, members, kind) is None
        assert engine == oracles.naive_is_kind(rows, members, kind)
        if not engine:
            continue
        h = SubsetHandle(s, members, kind)
        rep = bound_report(s, h)
        assert rep.passed
        assert 1 <= rep.relative_height <= rep.bound
        assert rep.chain_param >= 1


@given(table_strategy, st.integers(min_value=1, max_value=2 ** 5 - 1))
@settings(max_examples=80, deadline=None)
def test_local_right_identity_pairs_mirror_parent_order(s, bits):
    members = frozenset(i for i in range(s.order) if bits >> i & 1 and i < s.order)
    if not members or closure_violation(s, members, "bi_ideal") is not None:
        return
    h = SubsetHandle(s, members, "bi_ideal")
    rows = s.table.tolist()
    sub = oracles.sub_table(rows, members)
    pos = {p: i for i, p in enumerate(h.sorted_members)}
    with_lri = [a for a in members if oracles.naive_local_right_identity(rows, members, a)]
    for b in with_lri:
        for c in with_lri:
            inner = oracles.naive_leq(sub, pos[b], pos[c], "R")
            outer = leq(s, b, c, "R")
            assert inner == outer


@given(table_strategy, st.integers(min_value=1, max_value=2 ** 5 - 1))
@settings(max_examples=60, deadline=None)
def test_regular_left_ideals_attain_chain_param(s, bits):
    members = frozenset(i for i in range(s.order) if bits >> i & 1 and i < s.order)
    if not members or closure_violation(s, members, "left_ideal") is not None:
        return
    if not members <= oracles.naive_regular(s.table.tolist()):
        return
    h = SubsetHandle(s, members, "left_ideal")
    assert relative_height(h) == chain_param(s, h)


# --- rewriting properties ---------------------------------------------------

letters = st.sampled_from("ab")


@st.composite
def random_system_and_word(draw):
    n_rules = draw(st.integers(min_value=1, max_value=3))
    rules = []
    for _ in range(n_rules):
        lhs = "".join(draw(letters) for _ in range(draw(st.integers(2, 3))))
        rhs_len = draw(st.integers(0, len(lhs) - 1))
        rhs = "".join(draw(letters) for _ in range(rhs_len))
        rules.append((lhs, rhs if rhs else "!"))
    word = "".join(draw(letters) for _ in range(draw(st.integers(1, 10))))
    return rules, word


def build_system(raw_rules):
    from greenheight import RewritingSystem

    has_zero = any(rhs == "!" for _, rhs in raw_rules)
    return RewritingSystem(
        ("a", "b"),
        [(lhs, ZERO if rhs == "!" else rhs) for lhs, rhs in raw_rules],
        zero="0" if has_zero else None,
    )


@given(random_system_and_word())
@settings(max_examples=150, deadline=None)
def test_reduce_word_is_idempotent_and_irreducible(payload):
    raw_rules, word = payload
    rs = build_system(raw_rules)
    out = reduce_word(rs, rs.word(word))
    assert reduce_word(rs, out) == out
    if out is not ZERO:
        text = rs.display(out)
        for lhs, _ in raw_rules:
            assert lhs not in text


@given(random_system_and_word())
@settings(max_examples=150, deadline=None)
def test_reduction_result_is_reachable_by_some_strategy(payload):
    # on a complete system every strategy agrees; on any system the
    # leftmost result must lie in the set of random-strategy outcomes
    raw_rules, word = payload
    rs = build_system(raw_rules)
    from greenheight import is_complete

    ok, _ = is_complete(rs)
    if not ok:
        return
    mine = reduce_word(rs, rs.word(word))
    mine_str = "!" if mine is ZERO else rs.display(mine)
    rng = random.Random(7)
    for _ in range(5):
        assert oracles.random_reduce(raw_rules, word, rng) == mine_str

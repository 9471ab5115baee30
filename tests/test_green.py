"""Green's preorders, class posets, and inverse-structure cross-checks."""

import random

import pytest

import oracles
from greenheight import green
from greenheight import (
    class_poset,
    from_table,
    height,
    inverse_structure,
    leq,
)
from greenheight.constructions import (
    bi_ideal_family,
    brandt_example,
    full_transformation_monoid,
    left_zero_semigroup,
    null_semigroup,
    right_ideal_tower,
    symmetric_inverse_monoid,
    trivial_semigroup,
)
from greenheight.green import RELATIONS

ALL_SMALL = [t for m in (1, 2, 3) for t in oracles.labelled_tables(m)]


def make(t):
    return from_table([str(i) for i in range(len(t))], t)


def test_leq_matches_oracle_on_all_small_tables():
    for t in ALL_SMALL:
        s = make(t)
        rows = t.tolist()
        m = len(rows)
        for rel in RELATIONS:
            for a in range(m):
                for b in range(m):
                    assert leq(s, a, b, rel) == oracles.naive_leq(rows, a, b, rel), (
                        rows, rel, a, b,
                    )


def test_class_partition_matches_oracle_on_all_small_tables():
    for t in ALL_SMALL:
        s = make(t)
        rows = t.tolist()
        for rel in RELATIONS:
            got = {frozenset(c) for c in class_poset(s, rel).classes}
            want = set(oracles.naive_classes(rows, rel))
            assert got == want


def test_height_matches_oracle_on_all_small_tables():
    for t in ALL_SMALL:
        s = make(t)
        rows = t.tolist()
        for rel in RELATIONS:
            assert height(s, rel) == oracles.naive_height(rows, rel)


def test_height_matches_oracle_on_sampled_order_five():
    for t in oracles.relabelled(5, 40, seed=17):
        s = make(t)
        rows = t.tolist()
        for rel in RELATIONS:
            assert height(s, rel) == oracles.naive_height(rows, rel)


def strict_of(s, poset):
    # from leq on each class's smallest member, not from poset.strict
    reps = [min(cls) for cls in poset.classes]
    le = [[leq(s, a, b, poset.relation) for b in reps] for a in reps]
    n = len(reps)
    return [[le[i][j] and not le[j][i] for j in range(n)] for i in range(n)]


def test_poset_strict_order_properties():
    for t in oracles.relabelled(4, 40, seed=8):
        s = make(t)
        for rel in ("R", "J"):
            poset = class_poset(s, rel)
            strict = strict_of(s, poset)
            n = len(poset.classes)
            for i in range(n):
                assert not strict[i][i]
                for j in range(n):
                    if not strict[i][j]:
                        continue
                    assert not strict[j][i]
                    for k in range(n):
                        if strict[j][k]:
                            assert strict[i][k]


def assert_covers_are_transitive_reduction(s, poset):
    strict = strict_of(s, poset)
    n = len(poset.classes)
    # covers[i] lists the classes i covers, i.e. immediately below i
    for i in range(n):
        for j in poset.covers[i]:
            assert strict[j][i]
            assert not any(strict[j][k] and strict[k][i] for k in range(n))
    # completeness: every strictly-below pair is reachable through covers
    for i in range(n):
        reach = set()
        stack = list(poset.covers[i])
        while stack:
            j = stack.pop()
            if j not in reach:
                reach.add(j)
                stack.extend(poset.covers[j])
        assert reach == {j for j in range(n) if strict[j][i]}


def test_covers_are_transitive_reduction():
    for t in oracles.relabelled(4, 25, seed=9):
        s = make(t)
        assert_covers_are_transitive_reduction(s, class_poset(s, "R"))


# (classes, height) per relation, pinned from the frozenset-key
# implementation that the reachability matrices replaced
PINNED_POSETS = [
    (lambda: right_ideal_tower(5).semigroup,
     {"R": (31, 5), "L": (31, 5), "J": (5, 5), "H": (341, 5)}),
    (lambda: full_transformation_monoid(4),
     {"R": (15, 4), "L": (15, 4), "J": (4, 4), "H": (71, 4)}),
    (lambda: bi_ideal_family(16).semigroup,
     {"R": (61, 16), "L": (91, 31), "J": (31, 31), "H": (181, 16)}),
]


@pytest.mark.parametrize("build,want", PINNED_POSETS, ids=["tower5", "T4", "bi16"])
def test_pinned_class_counts_heights_and_covers(build, want):
    s = build()
    for rel in RELATIONS:
        poset = class_poset(s, rel)
        assert (len(poset.classes), poset.height) == want[rel], rel
        assert_covers_are_transitive_reduction(s, poset)


def test_minimal_maximal_and_class_index():
    s = brandt_example()
    poset = class_poset(s, "R")
    assert poset.height == 2
    assert len(poset.classes) == 3
    zero_class = poset.class_index(s.index("0"))
    assert poset.minimal_classes() == (zero_class,)
    assert len(poset.maximal_classes()) == 2
    for i, cls in enumerate(poset.classes):
        for a in cls:
            assert poset.class_index(a) == i


def test_product_class_index_and_longest_chain_reject_indices_out_of_range():
    # numpy would read -1 as the last row or class, and the chain walk would
    # fail on it with a shift error
    s = brandt_example()
    poset = class_poset(s, "R")
    for bad in (-1, s.order):
        with pytest.raises(ValueError, match="element index out of range"):
            s.product(bad, 0)
        with pytest.raises(ValueError, match="element index out of range"):
            s.product(0, bad)
        with pytest.raises(ValueError, match="element index out of range"):
            poset.class_index(bad)
    for bad in (-1, len(poset.classes)):
        with pytest.raises(ValueError, match="class id out of range"):
            poset.longest_chain([0, bad])
    assert s.product(0, 0) == 0 and poset.longest_chain(range(3)) == 2


def test_leq_classes_consistent_with_members():
    s = brandt_example()
    poset = class_poset(s, "R")
    for i in range(len(poset.classes)):
        for j in range(len(poset.classes)):
            want = leq(s, min(poset.classes[i]), min(poset.classes[j]), "R")
            assert (i == j or poset.strict[i, j]) == want


def test_longest_chain_restricted_matches_oracle():
    for t in oracles.relabelled(4, 25, seed=10):
        s = make(t)
        rows = t.tolist()
        poset = class_poset(s, "R")
        classes = poset.classes
        n = len(classes)
        for bits in range(1 << n):
            sel = [i for i in range(n) if bits >> i & 1]
            chosen = [frozenset(classes[i]) for i in sel]
            want = oracles.longest_chain(
                chosen, lambda ca, cb: oracles.naive_class_leq(rows, ca, cb, "R")
            )
            assert poset.longest_chain(sel) == want


def test_longest_chains_on_masks_matches_oracle():
    # random strict orders of up to 12 points: each point takes random points
    # of lower rank, and everything below them, as its below mask
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 12)
        rank = rng.sample(range(n), n)
        below = [0] * n
        for i in sorted(range(n), key=rank.__getitem__):
            for j in range(n):
                if rank[j] < rank[i] and rng.random() < 0.3:
                    below[i] |= 1 << j | below[j]
        for ids in (None, [i for i in range(n) if rng.random() < 0.6]):
            got = green._longest_chains(below, ids)
            members = range(n) if ids is None else ids
            for i in range(n):
                if i not in members:
                    assert got[i] == 0
                    continue
                # a longest chain among the members at or below i has top i
                downs = [j for j in members if j == i or below[i] >> j & 1]
                assert got[i] == oracles.longest_chain(
                    downs, lambda a, b: a == b or bool(below[b] >> a & 1))


def test_public_strict_order():
    for t in oracles.relabelled(4, 25, seed=10):
        s = make(t)
        poset = class_poset(s, "R")
        assert poset.strict.tolist() == strict_of(s, poset)
        assert not poset.strict.flags.writeable


def test_to_dot_shape():
    s = brandt_example()
    dot = class_poset(s, "R").to_dot()
    assert dot.startswith("digraph R_classes {")
    assert dot.rstrip().endswith("}")
    assert '[label="{0}"]' in dot
    assert dot.count("->") == 2
    # quotes and backslashes in names are escaped inside the DOT labels
    odd = from_table(['a"b', "c\\"], [[0, 0], [0, 0]])
    dot = class_poset(odd, "R").to_dot()
    assert 'c0 [label="{a\\"b}"];' in dot
    assert 'c1 [label="{c\\\\}"];' in dot
    assert "c1 -> c0;" in dot


def test_height_single_class_is_one():
    assert height(trivial_semigroup(), "R") == 1
    assert height(left_zero_semigroup(3), "R") == 1
    assert height(left_zero_semigroup(3), "L") == 1


def test_class_poset_repr():
    s = brandt_example()
    assert repr(class_poset(s, "R")) == "ClassPoset(R, 3 classes, height=2)"
    assert repr(class_poset(s, "J")) == "ClassPoset(J, 2 classes, height=2)"


def test_bad_relation_rejected():
    with pytest.raises(ValueError):
        height(trivial_semigroup(), "D")


def test_identity_matches_oracle_on_every_order_four_table():
    for t in oracles.labelled_tables(4):
        rows = t.tolist()
        assert make(t).identity == oracles.naive_identity(rows), rows


def test_leq_refuses_elements_out_of_range():
    s = left_zero_semigroup(2)
    for a, b in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="^element index out of range$"):
            leq(s, a, b)


def test_inverse_structure_classification():
    assert inverse_structure(null_semigroup(3)).kind == "not_regular"
    assert inverse_structure(left_zero_semigroup(2)).kind == "regular_not_inverse"
    assert inverse_structure(full_transformation_monoid(2)).kind == "regular_not_inverse"
    info = inverse_structure(symmetric_inverse_monoid(2))
    assert info.kind == "inverse"
    assert info.idempotent_height == 3  # chain {} < {1} < {1,2} of domain idempotents
    info3 = inverse_structure(symmetric_inverse_monoid(3))
    assert info3.kind == "inverse"
    assert info3.idempotent_height == 4
    assert height(symmetric_inverse_monoid(3), "R") == 4


def test_inverse_structure_on_groups():
    cyclic2 = from_table(["e", "g"], [[0, 1], [1, 0]])
    info = inverse_structure(cyclic2)
    assert info.kind == "inverse"
    assert info.idempotent_height == 1


def test_heights_are_cached_consistently():
    s = brandt_example()
    p1 = class_poset(s, "R")
    p2 = class_poset(s, "R")
    assert p1 is p2


def _naive_inverse_kind(rows):
    if oracles.naive_regular(rows) != frozenset(range(len(rows))):
        return "not_regular"
    if all(c == 1 for c in oracles.naive_inverse_counts(rows)):
        return "inverse"
    return "regular_not_inverse"


def test_inverse_structure_matches_oracle():
    tables = [t.tolist() for m in (1, 2, 3, 4) for t in oracles.labelled_tables(m)]
    tables += [symmetric_inverse_monoid(3).table.tolist(),
               full_transformation_monoid(3).table.tolist()]
    kinds = set()
    for rows in tables:
        got = inverse_structure(make(rows))
        kinds.add(got.kind)
        assert got.kind == _naive_inverse_kind(rows), rows
        if got.kind == "inverse":
            es = sorted(oracles.naive_idempotents(rows))
            chain = oracles.longest_chain(
                [frozenset({e}) for e in es],
                lambda x, y: rows[min(x)][min(y)] == min(x) == rows[min(y)][min(x)],
            )
            assert got.idempotent_height == chain, rows
    assert kinds == {"not_regular", "regular_not_inverse", "inverse"}


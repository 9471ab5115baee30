"""Acceptance gate: one test per required result, each printing a verdict
line. Every check recomputes from the engine; expected values are the
closed formulas plus independently derived constants from oracles.py.

Run with -s to see the verdict lines as they happen; pytest's summary
shows them on failure regardless.
"""

import random
import time

import numpy as np

import oracles
from greenheight import (
    SubsetHandle,
    ZERO,
    bound_report,
    chain_param,
    class_poset,
    from_table,
    height,
    inverse_structure,
    is_complete,
    parse_presentation,
    reduce_word,
    relative_height,
)
from greenheight.constructions import (
    bi_ideal_family,
    brandt_example,
    brandt_extension,
    full_transformation_monoid,
    left_ideal_cs_family,
    left_zero_semigroup,
    null_extension,
    right_ideal_tower,
    symmetric_inverse_monoid,
    trivial_semigroup,
)
from greenheight.green import RELATIONS
from greenheight.ideals import IDEAL_KINDS, subset_arrays


def verdict(num, ok, label):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_bi_ideal_family():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        fi = bi_ideal_family(n)
        s = fi.semigroup
        ok &= s.order == 12 * (n - 1) + 1
        ok &= height(s, "R") == n
        ok &= relative_height(fi.distinguished) == 3 * n - 2
        complement = set(s.names) - set(fi.distinguished.member_names)
        ok &= complement == {"t", "zt", "ty", "yzt", "tyz"}
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    verdict(1, ok, f"bi-ideal family n=2..6 exact values ({elapsed:.2f}s)")


def test_criterion_2_left_ideal_family():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        fi = left_ideal_cs_family(n)
        s = fi.semigroup
        ok &= s.order == 6 * (n - 1) + 1
        ok &= height(s, "R") == n
        ok &= relative_height(fi.distinguished) == 2 * n - 1
        ok &= set(s.names) - set(fi.distinguished.member_names) == {"z", "yz"}
        jp = class_poset(s, "J")
        ok &= jp.height == 2 * n - 1
        ok &= len(jp.classes) == 2 * n - 1  # single chain: every class on it
        ok &= all(len(c) <= 1 for c in jp.covers)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    verdict(2, ok, f"left-ideal family n=2..8 exact values ({elapsed:.2f}s)")


def test_criterion_3_brandt_theorem():
    start = time.perf_counter()
    ok = True
    bases = (trivial_semigroup(), left_zero_semigroup(2),
             bi_ideal_family(2).semigroup)
    for s in bases:
        t = brandt_extension(s, 2)
        ok &= height(t, "R") == height(s, "R") + 1
        for a in range(s.order):
            principal = SubsetHandle(
                s, oracles.principal_set(s.table.tolist(), a, "R"), "right_ideal"
            )
            lifted_elt = 2 * a  # (1, a, 1) in the extension layout
            lifted = SubsetHandle(
                t,
                oracles.principal_set(t.table.tolist(), lifted_elt, "R"),
                "right_ideal",
            )
            ok &= relative_height(lifted) == relative_height(principal) + 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    verdict(3, ok, f"one-step extension height laws ({elapsed:.2f}s)")


def test_criterion_4_tower():
    start = time.perf_counter()
    ok = True
    orders = {1: 1, 2: 5, 3: 21, 4: 85}
    for n in range(1, 5):
        fi = right_ideal_tower(n)
        ok &= fi.semigroup.order == orders[n]
        ok &= height(fi.semigroup, "R") == n
        ok &= relative_height(fi.distinguished) == 2 * n - 1
    ok &= np.array_equal(right_ideal_tower(2).semigroup.table,
                         brandt_example().table)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    verdict(4, ok, f"tower orders 1,5,21,85 and height laws ({elapsed:.2f}s)")


def test_criterion_5_five_element_example():
    s = brandt_example()
    rows = s.table.tolist()
    a_members = oracles.principal_set(rows, s.index("(1,1)"), "R")
    handle = SubsetHandle(s, a_members, "right_ideal")
    sp = class_poset(s, "R")
    ap_height = relative_height(handle)
    sub_rows = oracles.sub_table(rows, a_members)
    ok = height(s, "R") == 2
    ok &= ap_height == 3
    ok &= {s.names[i] for i in a_members} == {"(1,1)", "(1,2)", "0"}
    # the restricted poset is a 3-chain: three classes, height 3
    ok &= len(oracles.naive_classes(sub_rows, "R")) == 3
    ok &= oracles.naive_height(sub_rows, "R") == 3
    zero_class = sp.class_index(s.index("0"))
    ok &= len(sp.classes) == 3
    ok &= sp.minimal_classes() == (zero_class,)
    ok &= len(sp.maximal_classes()) == 2
    verdict(5, ok, "5-element example posets and heights")


def test_criterion_6_null_extension():
    t_sem = left_ideal_cs_family(3).semigroup
    fi = null_extension(t_sem)
    s, handle = fi.semigroup, fi.distinguished
    ok = relative_height(handle) == 2
    ok &= chain_param(s, handle) == 4
    ok &= chain_param(s, handle) == height(t_sem, "R") + 1
    verdict(6, ok, "null extension H_R(N)=2, chain parameter 4")


def test_criterion_7_reference_monoids():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        s = full_transformation_monoid(n)
        for rel in RELATIONS:
            ok &= height(s, rel) == n
    info = inverse_structure(symmetric_inverse_monoid(3))
    ok &= info.kind == "inverse"
    ok &= info.idempotent_height == 4
    ok &= height(symmetric_inverse_monoid(3), "R") == 4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    verdict(7, ok, f"transformation monoids and partial bijections ({elapsed:.2f}s)")


def test_criterion_7_optional_t4():
    start = time.perf_counter()
    s = full_transformation_monoid(4)
    ok = all(height(s, rel) == 4 for rel in RELATIONS)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    verdict(7, ok, f"optional order-256 transformation monoid ({elapsed:.2f}s)")


def _oracle_checks_one_table(t):
    """All criterion-8 assertions for one table, via the naive oracles."""
    rows = t.tolist() if hasattr(t, "tolist") else [list(r) for r in t]
    m = len(rows)
    s = from_table([str(i) for i in range(m)], t)
    failures = []

    kern = oracles.naive_kernel(rows)
    if subset_arrays(s.table[None]).table_facts().kernel[0] != sum(1 << a for a in kern):
        failures.append("kernel mismatch")
    cs = oracles.naive_completely_simple(rows)
    if not cs:
        failures.append("kernel not completely simple")

    hr, hj = height(s, "R"), height(s, "J")
    if hr > hj:
        failures.append("H_R > H_J")

    union = frozenset().union(
        *(frozenset(r) for r in oracles.naive_minimal_right_ideals(rows))
    )
    if (hr == 1) != (union == frozenset(range(m))):
        failures.append("height-1 union lemma")

    reg = oracles.naive_regular(rows)
    for bits in range(1, 1 << m):
        members = frozenset(i for i in range(m) if bits >> i & 1)
        for kind in IDEAL_KINDS:
            if not oracles.naive_is_kind(rows, members, kind):
                continue
            h = oracles.naive_relative_height(rows, members)
            n_int = oracles.naive_chain_param(rows, members, "bi_ideal")
            n_cont = oracles.naive_chain_param(rows, members, kind)
            # the six bound formulas, checked from oracle quantities
            if kind == "bi_ideal":
                if h > 3 * n_int - 1:
                    failures.append("bi-ideal bound")
                if cs and h > 3 * n_int - 2:
                    failures.append("bi-ideal cs bound")
            elif kind == "right_ideal":
                if h > 2 * n_cont - 1:
                    failures.append("right ideal bound")
            elif kind == "left_ideal":
                if h > 2 * n_int:
                    failures.append("left ideal bound")
                if cs and h > 2 * n_int - 1:
                    failures.append("left ideal cs bound")
            else:
                if h > n_cont:
                    failures.append("two-sided bound")
            # engine report agrees and passes
            rep = bound_report(s, SubsetHandle(s, members, kind))
            if not rep.passed or rep.relative_height != h:
                failures.append(f"report mismatch on {kind}")
            # hypothesis-guarded propositions
            if kind == "bi_ideal":
                if all(oracles.naive_local_right_identity(rows, members, a) for a in members):
                    if h != n_int:
                        failures.append("local-right-identity proposition")
            if kind == "left_ideal" and members <= reg:
                if h != n_int:
                    failures.append("regular left ideal proposition")
    return failures


def test_criterion_8_small_order_oracle():
    start = time.perf_counter()
    failures = []
    counts = {}
    for m in (1, 2, 3):
        tables = oracles.labelled_tables(m)
        counts[m] = len(tables)
        for t in tables:
            failures.extend(_oracle_checks_one_table(t))
    ok = not failures
    ok &= counts == {1: 1, 2: 8, 3: 113}
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    verdict(
        8, ok,
        f"exhaustive order<=3 oracle, {sum(counts.values())} tables, "
        f"{len(failures)} violations ({elapsed:.2f}s)",
    )


def test_criterion_8_sampled_orders_4_and_5():
    # beyond the required scope: sampled spot-check at orders 4 and 5
    start = time.perf_counter()
    failures = []
    for m, count in ((4, 40), (5, 15)):
        for t in oracles.relabelled(m, count, seed=99):
            failures.extend(_oracle_checks_one_table(t))
    ok = not failures
    elapsed = time.perf_counter() - start
    verdict(8, ok, f"sampled order 4-5 oracle extension ({elapsed:.2f}s)")


def test_criterion_9_rewriting():
    start = time.perf_counter()
    ok = True
    systems = []
    for n in range(2, 9):
        for fam in (bi_ideal_family, left_ideal_cs_family):
            rs = parse_presentation(fam(n).presentation_text)
            complete, witness = is_complete(rs)
            ok &= complete and witness is None
            systems.append(rs)
    bad = parse_presentation("letters: a b\nrule: ab -> a\nrule: ba -> b\n")
    complete, witness = is_complete(bad)
    ok &= not complete
    ok &= bad.display(witness.source) == "aba"
    sides = {
        bad.display(reduce_word(bad, witness.left_result)),
        bad.display(reduce_word(bad, witness.right_result)),
    }
    ok &= sides == {"aa", "a"}
    # strategy independence: 10^4 random words split across the systems
    rng = random.Random(1)
    per_system = 10_000 // len(systems) + 1
    checked = 0
    for rs in systems:
        raw_rules = [
            (rs.display(r.lhs), "!" if r.rhs is ZERO else rs.display(r.rhs))
            for r in rs.rules
        ]
        for _ in range(per_system):
            w = oracles.random_word(rs.letters, rng, 14)
            theirs = oracles.random_reduce(raw_rules, w, rng)
            mine = reduce_word(rs, rs.word(w))
            ok &= ("!" if mine is ZERO else rs.display(mine)) == theirs
            checked += 1
    ok &= checked >= 10_000
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    verdict(
        9, ok,
        f"completeness n=2..8, witness, {checked} strategy checks ({elapsed:.2f}s)",
    )

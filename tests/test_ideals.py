"""Ideal-kind subsets: generation, relative heights, bounds, kernel chains."""

import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from greenheight import (
    IDEAL_KINDS,
    EngineBug,
    SubsetHandle,
    bound_report,
    bound_verdict,
    chain_param,
    class_poset,
    closure_violation,
    from_table,
    generate,
    height,
    relative_height,
)
from greenheight import _accel, core, green, ideals
from greenheight.constructions import (
    bi_ideal_family,
    brandt_example,
    brandt_extension,
    full_transformation_monoid,
    left_ideal_cs_family,
    left_zero_semigroup,
    null_extension,
    null_semigroup,
    right_ideal_tower,
    symmetric_inverse_monoid,
)
from greenheight.green import RELATIONS
from greenheight.ideals import subset_arrays, table_facts

ALL_KINDS = IDEAL_KINDS + ("subsemigroup",)


def make(t):
    return from_table([str(i) for i in range(len(t))], t)


def test_is_kind_matches_oracle_on_all_small_tables():
    for m in (1, 2, 3):
        for t in oracles.labelled_tables(m):
            s = make(t)
            rows = t.tolist()
            for bits in range(1, 1 << m):
                members = frozenset(i for i in range(m) if bits >> i & 1)
                for kind in ALL_KINDS:
                    engine = closure_violation(s, members, kind) is None
                    assert engine == oracles.naive_is_kind(rows, members, kind)


def test_is_kind_matches_oracle_on_sampled_order_four():
    for t in oracles.relabelled(4, 20, seed=21):
        s = make(t)
        rows = t.tolist()
        for bits in range(1, 16):
            members = frozenset(i for i in range(4) if bits >> i & 1)
            for kind in ALL_KINDS:
                engine = closure_violation(s, members, kind) is None
                assert engine == oracles.naive_is_kind(rows, members, kind)


def _scanned_tables():
    for m in (1, 2, 3):
        yield from oracles.labelled_tables(m)
    yield from oracles.relabelled(4, 20, seed=27)
    yield from oracles.relabelled(5, 8, seed=29)


def _scan(s, kinds=IDEAL_KINDS):
    """(sorted members, kind, h, n) for each nonempty subset of s, by
    increasing bitmask (bit i for element i), and each kind in `kinds` order
    whose law it obeys: subset_arrays of s's table alone."""
    arrays = subset_arrays(s.table[None])
    laws = np.stack([arrays.laws[kind][0] for kind in kinds], axis=1)
    chains = arrays.chain_param[0].tolist()
    heights = arrays.relative_height[0].tolist()
    members, last = None, -1
    for col, j in zip(*np.nonzero(laws)):
        if col != last:
            last = col
            members = [i for i in range(s.order) if (col + 1) >> i & 1]
        yield members, kinds[j], heights[col], chains[col]


def test_ideal_subsets_match_oracle_in_bitmask_then_kind_order():
    for t in _scanned_tables():
        s = make(t)
        rows = t.tolist()
        m = len(rows)
        expected = []
        for bits in range(1, 1 << m):
            members = frozenset(i for i in range(m) if bits >> i & 1)
            for kind in ALL_KINDS:
                if oracles.naive_is_kind(rows, members, kind):
                    expected.append((members, kind))
        records = [(frozenset(members), kind) for members, kind, _, _ in _scan(s, ALL_KINDS)]
        assert records == expected
        default = [(frozenset(members), kind) for members, kind, _, _ in _scan(s)]
        assert default == [pair for pair in expected if pair[1] in IDEAL_KINDS]


def test_ideal_subsets_records_match_handles_oracle_and_bound_report():
    for t in _scanned_tables():
        s = make(t)
        rows = t.tolist()
        assert oracles.naive_completely_simple(rows)
        for members, kind, h, n in _scan(s, ALL_KINDS):
            handle = SubsetHandle(s, frozenset(members), kind)
            assert h == relative_height(handle)
            assert h == oracles.naive_relative_height(rows, handle.members)
            assert n == chain_param(s, handle)
            assert n == oracles.naive_chain_param(rows, handle.members, kind)
            if kind in IDEAL_KINDS:
                assert bound_verdict(kind, h, n) == bound_report(s, handle)


def test_restriction_is_shared_by_member_set():
    # handles of different kinds on one member set share one class poset,
    # and relative heights read through it still match the oracle
    shared = 0
    for t in _scanned_tables():
        s = make(t)
        rows = t.tolist()
        by_members = {}
        for members, kind, _, _ in _scan(s, ALL_KINDS):
            h = SubsetHandle(s, frozenset(members), kind)
            poset = class_poset(h, "R")
            shared += h.members in by_members
            assert by_members.setdefault(h.members, poset) is poset
            assert relative_height(h) == oracles.naive_relative_height(rows, h.members)
        whole = frozenset(range(s.order))
        first, *rest = (SubsetHandle(s, whole, kind) for kind in ALL_KINDS)
        poset = class_poset(first, "R")
        assert all(class_poset(h, "R") is poset for h in rest)
        # the cache belongs to the parent, not to its table
        assert class_poset(SubsetHandle(make(t), whole), "R") is not poset
    assert shared > 1000


def test_bound_report_on_a_handle_checks_no_associativity(monkeypatch):
    # the members of a handle are closed in an associative table, so reading
    # them as a semigroup of their own needs no second associativity check
    fi = bi_ideal_family(4)
    calls = []
    check = _accel.assoc_witness
    monkeypatch.setattr(_accel, "assoc_witness", lambda t: calls.append(len(t)) or check(t))
    for handle in (fi.distinguished, generate(fi.semigroup, {1, 2}, "left_ideal")):
        assert bound_report(fi.semigroup, handle).passed
    assert calls == []


def test_generate_right_ideal_is_principal_set():
    for t in oracles.relabelled(4, 20, seed=22):
        s = make(t)
        rows = t.tolist()
        for a in range(4):
            h = generate(s, {a}, "right_ideal")
            assert h.members == oracles.principal_set(rows, a, "R")
            h2 = generate(s, {a}, "two_sided_ideal")
            assert h2.members == oracles.principal_set(rows, a, "J")
            h3 = generate(s, {a}, "left_ideal")
            assert h3.members == oracles.principal_set(rows, a, "L")


def test_generate_is_minimal_superset():
    # generated subset sits inside every kind-closed superset of the seeds;
    # seed sets of two and three elements bring X*X and (X*S)*X into bi-ideals
    seed_sets = [frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(range(3), k)]
    for t in oracles.labelled_tables(3):
        s = make(t)
        rows = t.tolist()
        for kind in ALL_KINDS:
            closed = oracles.all_subsets_of_kind(rows, kind)
            for seeds in seed_sets:
                h = generate(s, seeds, kind)
                assert oracles.naive_is_kind(rows, h.members, kind)
                assert seeds <= h.members
                for members in closed:
                    if seeds <= members:
                        assert h.members <= members


def test_generate_matches_naive_closure_on_random_seeds():
    # 50 random seed sets of 1-4 elements per semigroup, every kind; some
    # subsemigroup needs a second round: X | XX is not yet closed
    rng = random.Random(11)
    semigroups = [bi_ideal_family(3).semigroup, right_ideal_tower(3).semigroup,
                  full_transformation_monoid(3), symmetric_inverse_monoid(3),
                  null_extension(left_zero_semigroup(2)).semigroup]
    rounds_needed = 0
    for s in semigroups:
        rows = s.table.tolist()
        for _ in range(50):
            seeds = rng.sample(range(s.order), rng.randint(1, min(4, s.order)))
            for kind in core.KINDS:
                assert generate(s, seeds, kind).members == oracles.naive_generate(rows, seeds, kind)
            once = set(seeds) | {rows[a][b] for a in seeds for b in seeds}
            rounds_needed += not oracles.naive_is_kind(rows, once, "subsemigroup")
    assert rounds_needed > 0


def test_generate_requires_seeds():
    s = left_zero_semigroup(2)
    with pytest.raises(ValueError):
        generate(s, set(), "right_ideal")


def test_generate_refuses_unknown_kinds_and_generators_out_of_range():
    s = left_zero_semigroup(2)
    with pytest.raises(ValueError, match="^unknown kind 'ideal'$"):
        generate(s, {0}, "ideal")
    with pytest.raises(ValueError, match="^generator index out of range$"):
        generate(s, {2}, "right_ideal")


def test_relative_height_matches_oracle():
    fi = bi_ideal_family(3)
    rows = fi.semigroup.table.tolist()
    assert relative_height(fi.distinguished) == oracles.naive_relative_height(
        rows, fi.distinguished.members
    )
    for t in oracles.relabelled(4, 15, seed=23):
        s = make(t)
        rows = t.tolist()
        for bits in range(1, 16):
            members = frozenset(i for i in range(4) if bits >> i & 1)
            if not oracles.naive_is_kind(rows, members, "bi_ideal"):
                continue
            h = SubsetHandle(s, members, "bi_ideal")
            assert relative_height(h) == oracles.naive_relative_height(rows, members)


def test_chain_param_matches_oracle_all_kinds():
    for t in oracles.relabelled(4, 15, seed=24):
        s = make(t)
        rows = t.tolist()
        for bits in range(1, 16):
            members = frozenset(i for i in range(4) if bits >> i & 1)
            for kind in ALL_KINDS:
                if not oracles.naive_is_kind(rows, members, kind):
                    continue
                h = SubsetHandle(s, members, kind)
                assert chain_param(s, h) == oracles.naive_chain_param(
                    rows, members, kind
                ), (rows, sorted(members), kind)


def _right_sided_handles():
    """Every right and two-sided ideal of sampled order-4 tables, and the
    principal ones of two semigroups whose R-classes have several members."""
    for t in oracles.relabelled(4, 20, seed=26):
        s = make(t)
        rows = t.tolist()
        for bits in range(1, 16):
            members = frozenset(i for i in range(4) if bits >> i & 1)
            for kind in ("right_ideal", "two_sided_ideal"):
                if oracles.naive_is_kind(rows, members, kind):
                    yield s, SubsetHandle(s, members, kind)
    for s in (right_ideal_tower(3).semigroup, brandt_example()):
        for a in range(s.order):
            for kind in ("right_ideal", "two_sided_ideal"):
                yield s, generate(s, [a], kind)


def test_right_ideal_intersect_equals_contained():
    # an R-class meeting a right ideal lies inside it, so the two chain
    # selections coincide on right and two-sided ideals
    for s, h in _right_sided_handles():
        rows = s.table.tolist()
        contained = oracles.naive_chain_param(rows, h.members, h.kind)
        intersecting = oracles.naive_chain_param(rows, h.members, "bi_ideal")
        assert contained == intersecting == chain_param(s, h), (s.order, sorted(h.members))


def test_chain_param_intersect_vs_contained():
    # {0} inside left-zero(2): meets one singleton R-class, contains it too
    s = left_zero_semigroup(2)
    h_right = SubsetHandle(s, frozenset({0}), "right_ideal")
    assert chain_param(s, h_right) == 1
    # the whole of brandt example meets both levels
    s = brandt_example()
    whole = SubsetHandle(s, frozenset(range(5)), "two_sided_ideal")
    assert chain_param(s, whole) == 2


def test_bound_report_family_values_and_json():
    fi = bi_ideal_family(3)
    rep = bound_report(fi.semigroup, fi.distinguished)
    assert rep.kind == "bi_ideal"
    assert rep.relative_height == 7
    assert rep.chain_param == 3
    assert rep.bound == 7
    assert rep.passed and rep.tight
    d = rep.to_json_dict()
    assert set(d) == {"kind", "theorem_id", "relative_height", "chain_param", "bound",
                      "pass", "tight", "sanity_bound", "sanity_note"}
    assert d["pass"] and d["tight"]
    assert d["sanity_bound"] == 3 * 3 - 1


def test_bound_report_all_kinds_on_small_tables():
    # every bound holds with zero exceptions over all order <= 3 tables
    for t in oracles.labelled_tables(3):
        s = make(t)
        for bits in range(1, 8):
            members = frozenset(i for i in range(3) if bits >> i & 1)
            for kind in IDEAL_KINDS:
                if closure_violation(s, members, kind) is not None:
                    continue
                rep = bound_report(s, SubsetHandle(s, members, kind))
                assert rep.passed
                assert rep.relative_height <= rep.bound
                if rep.sanity_bound is not None:
                    assert rep.relative_height <= rep.sanity_bound


@pytest.mark.parametrize("kind", IDEAL_KINDS)
def test_bound_report_json_of_numpy_scalars_is_the_json_of_ints(kind):
    # one table scanned as a stack of one gives np.int32 heights and chains
    as_numpy = bound_verdict(kind, np.int32(5), np.int32(3)).to_json_dict()
    assert json.dumps(as_numpy) == json.dumps(bound_verdict(kind, 5, 3).to_json_dict())


def test_theorem_table_has_one_entry_per_kind_and_no_sanity_bound_below_its_bound():
    # a sanity bound a'n + b' never below the bound an + b for n >= 1, so a
    # "sanity bound fails" message can only come with a "bound fails" one
    assert sorted(ideals._THEOREMS) == sorted(IDEAL_KINDS)
    for _, (a, b), sanity in ideals._THEOREMS.values():
        if sanity is not None:
            slope, offset = sanity[0] - a, sanity[1] - b
            assert slope >= 0 and slope + offset >= 0  # the gap at n = 1 only grows


def test_bound_verdict_on_arrays_is_the_scalar_verdict_elementwise():
    # the small-order oracle applies the theorem table to whole arrays of
    # relative heights and chain parameters at once
    h, n = np.meshgrid(np.arange(10), np.arange(6), indexing="ij")
    for kind in IDEAL_KINDS:
        rep = bound_verdict(kind, h, n)
        sanity = rep.sanity_bound
        assert (sanity is None) == (kind in ("right_ideal", "two_sided_ideal"))
        for i, j in np.ndindex(h.shape):
            one = bound_verdict(kind, i, j)
            assert (rep.theorem_id, rep.passed[i, j], rep.tight[i, j], rep.bound[i, j]) == (
                one.theorem_id, one.passed, one.tight, one.bound)
            assert (None if sanity is None else sanity[i, j]) == one.sanity_bound


def test_bound_report_rejects_subsemigroup():
    s = left_zero_semigroup(2)
    h = SubsetHandle(s, frozenset({0}), "subsemigroup")
    with pytest.raises(ValueError):
        bound_report(s, h)


def test_bound_verdict_rejects_subsemigroup():
    with pytest.raises(ValueError,
                       match="^bound_verdict requires an ideal kind, not 'subsemigroup'$"):
        bound_verdict("subsemigroup", 1, 1)


def test_chain_param_rejects_a_handle_of_another_semigroup():
    handle = generate(left_zero_semigroup(2), {0}, "right_ideal")
    with pytest.raises(ValueError, match="^handle does not belong to this semigroup$"):
        chain_param(left_zero_semigroup(2), handle)


def test_two_sided_bound_uses_contained_classes():
    fi = left_ideal_cs_family(3)
    s = fi.semigroup
    k = oracles.naive_kernel(s.table.tolist())
    h = SubsetHandle(s, k, "two_sided_ideal")
    rep = bound_report(s, h)
    assert rep.passed
    assert rep.bound == rep.chain_param


def test_every_ideal_type_subset_has_a_kernel_rooted_chain_up_to_its_relative_height():
    # a subset of relative height h holds a strictly R-rising chain of k <= h
    # members whose first member lies in the kernel K(S)
    tables = [t for m in (1, 2, 3) for t in _accel.enumerate_assoc_tables(m)]
    tables += list(oracles.relabelled(4, 10, seed=14))
    checked = 0
    for t in tables:
        rows = oracles.as_rows(t)
        for kind in IDEAL_KINDS:
            for members in oracles.all_subsets_of_kind(rows, kind):
                for k in range(1, oracles.naive_relative_height(rows, members) + 1):
                    assert oracles.naive_kernel_chain(rows, members, k) is not None
                    checked += 1
    assert checked == 864


def test_relative_height_of_whole_semigroup():
    s = null_semigroup(4)
    whole = SubsetHandle(s, frozenset(range(s.order)), "two_sided_ideal")
    from greenheight import height

    assert relative_height(whole) == height(s, "R")


def _invariants(t):
    s = make(t)
    records = sorted((kind, h, n) for _, kind, h, n in _scan(s))
    return (records, oracles.naive_completely_simple(oracles.as_rows(t)),
            [height(s, rel) for rel in RELATIONS])


def test_scan_kernel_and_heights_are_invariant_under_relabelling():
    # the premise of the small-order oracle, which checks one table per class:
    # every labelled table of order <= 4 reads as its class representative
    for m in (1, 2, 3, 4):
        want = {}
        for rep in _accel.enumerate_assoc_tables(m).tolist():
            facts = _invariants(rep)
            for p in itertools.permutations(range(m)):
                want[tuple(itertools.chain.from_iterable(oracles.relabel(rep, p)))] = facts
        labelled = oracles.labelled_tables(m)
        assert len(want) == len(labelled)
        for t in labelled:
            assert _invariants(t) == want[tuple(t.ravel().tolist())]


def test_census_of_largest_relative_heights_through_order_five():
    # the largest relative R-height per kind and chain parameter n over every
    # semigroup of order <= 5, against the bounds 3n - 2 (bi-ideals), 2n - 1
    # (one-sided) and n (two-sided): two-sided ideals attain n for every n,
    # one-sided ideals 2n - 1 only for n <= 2 (for n = 2 first at order 5),
    # and bi-ideals 3n - 2 only for n = 1
    best = {}
    for m in range(1, 6):
        for t in _accel.enumerate_assoc_tables(m):
            for _, kind, h, n in _scan(make(t)):
                best[kind, n] = max(best.get((kind, n), 0), h)
    census = {kind: [best[kind, n] for n in range(1, 6)] for kind in IDEAL_KINDS}
    assert census == {
        "bi_ideal": [1, 3, 4, 4, 5],
        "left_ideal": [1, 3, 4, 4, 5],
        "right_ideal": [1, 3, 3, 4, 5],
        "two_sided_ideal": [1, 2, 3, 4, 5],
    }
    assert len(best) == 4 * 5


def test_scan_records_match_the_scan_on_lists_of_rows():
    # sha256 of (members, kind, h, n) of every record over every class of
    # orders 1-4 and every 8th class of order 5, as the scan gave them when it
    # took its chains from lists of boolean rows
    digest = hashlib.sha256()
    tables = records = 0
    for m in range(1, 6):
        reps = _accel.enumerate_assoc_tables(m)
        for t in reps if m < 5 else reps[::8]:
            tables += 1
            for record in _scan(make(t)):
                records += 1
                digest.update(repr(record).encode())
    assert (tables, records) == (458, 11255)
    assert digest.hexdigest() == (
        "3970dd9d1eb5ee0b00022b8641a2dea9509380be4e7a9efa514e7288eec51b5e"
    )


# the tables above order 5 with longer chains: orders 6 and 7 fill one and
# two 64-bit words of masks, and bi_ideal_family(2) has a bi-ideal at 3n - 2
_STRUCTURED = {
    "brandt_extension6": lambda: brandt_extension(brandt_example(), 1),
    "symmetric_inverse7": lambda: symmetric_inverse_monoid(2),
    "bi_ideal_family13": lambda: bi_ideal_family(2).semigroup,
}


@pytest.mark.parametrize("build, count, digest", [
    (lambda: null_semigroup(16), 131072,
     "626a2d35fc8b7058c3690c0d1e4968d0c40a37fe145dac1fe5c0d1f33a3e24e4"),
    (lambda: left_zero_semigroup(16), 131072,
     "2e22e159c2c10004843452bc71c26bcc9696dbbe1e9e72f9ea9cf179d9c1c658"),
    (lambda: null_semigroup(12), 8192,
     "dc3693fd7cdfc9f652a0484802a1f72c19ee30157211a13c95960f992113d9e3"),
    (_STRUCTURED["brandt_extension6"], 24,
     "afddeae4d14b5d5bd6c0988d12658f9d52be5a4c0c21a7ffbf63c031453bdfd3"),
    (_STRUCTURED["symmetric_inverse7"], 24,
     "3978a329ac937ccbae8fe107a1560769c39fd803b154f3b73c17a76a8cdf42ac"),
    (_STRUCTURED["bi_ideal_family13"], 236,
     "deeb21495228a9555fea2205127f59e7fa7e0f9ae6aa598724eae0855c17cc05"),
], ids=["null16", "left_zero16", "null12", *_STRUCTURED])
def test_scan_records_of_large_tables_are_pinned(build, count, digest):
    # the first three digests taken from the scan on Python-int bitmasks, one
    # table at a time, the others from the scan on int32 masks
    sha = hashlib.sha256()
    records = 0
    for record in _scan(build()):
        records += 1
        sha.update(repr(record).encode())
    assert records == count
    assert sha.hexdigest() == digest


def test_each_row_of_a_stack_is_the_scan_of_its_table_alone():
    for m, step in ((4, 1), (5, 8)):
        stack = _accel.enumerate_assoc_tables(m)[::step]
        whole = subset_arrays(stack)
        assert whole.relative_height.shape == (len(stack), 2**m - 1)
        for i, table in enumerate(stack):
            alone = subset_arrays(table[None])
            for kind in ALL_KINDS:
                assert (whole.laws[kind][i] == alone.laws[kind][0]).all()
            for name in ("relative_height", "chain_param"):
                assert (getattr(whole, name)[i] == getattr(alone, name)[0]).all()


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.intp])
def test_below_matrices_are_the_matrices_green_keeps_per_semigroup(dtype):
    stacks = [_accel.enumerate_assoc_tables(m) for m in range(1, 5)]
    stacks += [build().table[None] for build in _STRUCTURED.values()]
    checked = 0
    for stack in stacks:
        tt = stack.transpose(1, 2, 0).astype(dtype)  # element-major
        below = {rel: green.below_matrices(tt, rel) for rel in "RL"}
        for i, t in enumerate(stack):
            s = make(t)
            for rel in "RL":
                assert below[rel].shape == tt.shape and below[rel].dtype == bool
                assert (below[rel][..., i] == green._below(s, rel)).all()
            checked += 1
    assert checked == 1 + 5 + 24 + 188 + 3


def test_below_matrices_of_an_order_zero_stack_and_other_relations():
    assert green.below_matrices(np.zeros((0, 0, 0), dtype=np.int32), "R").shape == (0, 0, 0)
    with pytest.raises(ValueError, match="scatters R or L, not 'J'"):
        green.below_matrices(np.zeros((1, 1, 1), dtype=np.int32), "J")


def test_subset_arrays_rejects_bad_shapes_and_large_orders():
    with pytest.raises(ValueError, match=r"\(N, m, m\) stack"):
        subset_arrays(null_semigroup(3).table)
    with pytest.raises(ValueError, match="at most 16 elements, got 17"):
        subset_arrays(null_semigroup(17).table[None])
    empty = subset_arrays(_accel.enumerate_assoc_tables(3)[:0])
    assert empty.relative_height.shape == (0, 7)
    assert subset_arrays(np.zeros((2, 0, 0), dtype=np.int32)).chain_param.shape == (2, 0)


@pytest.mark.parametrize("entry", [-1, 2])
@pytest.mark.parametrize("scan", [subset_arrays, table_facts])
def test_stacked_kernels_reject_entries_outside_the_table(scan, entry):
    with pytest.raises(ValueError, match=r"entries in 0\.\.1"):
        scan(np.array([[[0, entry], [0, 0]]]))


@pytest.mark.parametrize("stack", [
    # truncated by a cast, this is the all-zero table, which is associative
    np.array([[[0.0, 0.9], [0.9, 0.0]]]),
    np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    np.array([[[False, True], [True, False]]]),
], ids=["fractional", "integral-float", "bool"])
@pytest.mark.parametrize("scan", [subset_arrays, table_facts])
def test_stacked_kernels_refuse_float_and_bool_stacks(scan, stack):
    with pytest.raises(ValueError, match=f"integer entries, got dtype {stack.dtype}"):
        scan(stack)


def test_subset_arrays_stops_on_the_cycle_of_a_non_associative_table():
    # x*M for x in S: 0 -> {0, 1}, 1 -> {1, 2}, 2 -> {0} ((0*0)*2 != 0*(0*2)),
    # so the down-sets of S put 0 < 2 < 1 < 0
    with pytest.raises(EngineBug, match="has a cycle"):
        subset_arrays(np.array([[[0, 0, 1], [1, 1, 2], [0, 0, 0]]]))


def _mask(members):
    return sum(1 << a for a in members)


def _stacks_for_facts():
    for m in range(1, 6):
        yield _accel.enumerate_assoc_tables(m)
    for m in (1, 2, 3):
        yield oracles.labelled_tables(m)
    for build in _STRUCTURED.values():
        yield build().table[None]


def test_table_facts_match_the_oracles_and_the_per_table_green_path():
    checked = 0
    for stack in _stacks_for_facts():
        facts = table_facts(stack)
        height_r = subset_arrays(stack).chain_param[:, -1]
        for i, t in enumerate(stack):
            s, rows = make(t), t.tolist()
            assert height_r[i] == height(s, "R") == oracles.naive_height(rows, "R")
            assert facts.height_j[i] == height(s, "J") == oracles.naive_height(rows, "J")
            assert facts.kernel[i] == _mask(oracles.naive_kernel(rows))
            assert oracles.naive_completely_simple(rows)  # as a finite kernel always is
            assert facts.right_union[i] == _mask(
                frozenset().union(*oracles.naive_minimal_right_ideals(rows)))
            assert facts.regular[i] == _mask(oracles.naive_regular(rows))
            checked += 1
    assert checked == 1 + 5 + 24 + 188 + 1915 + 1 + 8 + 113 + 3


def test_table_facts_local_right_identity_premise_on_every_closed_mask():
    closed_masks = 0
    for m in range(1, 5):
        stack = _accel.enumerate_assoc_tables(m)
        facts = table_facts(stack)
        closed = subset_arrays(stack).laws["subsemigroup"]
        for i, t in enumerate(stack):
            rows = t.tolist()
            for col in np.flatnonzero(closed[i]).tolist():
                members = frozenset(a for a in range(m) if (col + 1) >> a & 1)
                premise = all(
                    oracles.naive_local_right_identity(rows, members, a) for a in members)
                assert facts.local_right[i, col] == premise
                closed_masks += 1
    assert closed_masks > 1000


def test_opposite_semigroup_swaps_the_one_sided_laws_and_keeps_the_rest():
    # x*y in the opposite semigroup is y*x in S: a right ideal of one is a
    # left ideal of the other, and the J order, the kernel and the regular
    # elements are the same, so the left-law code paths check the right-law ones
    swap = {"right_ideal": "left_ideal", "left_ideal": "right_ideal"}
    classes = 0
    for m in range(1, 6):
        stack = _accel.enumerate_assoc_tables(m)
        opposite = stack.transpose(0, 2, 1)
        laws, op_laws = subset_arrays(stack).laws, subset_arrays(opposite).laws
        for kind in core.KINDS:
            assert (op_laws[swap.get(kind, kind)] == laws[kind]).all(), (m, kind)
        facts, op_facts = table_facts(stack), table_facts(opposite)
        for field in ("height_j", "kernel", "regular"):
            assert (getattr(op_facts, field) == getattr(facts, field)).all(), (m, field)
        classes += len(stack)
    assert classes == 2133


def test_table_facts_keep_the_kernel_checks_of_green_kernel():
    # {0, 1} is the minimal R-class of 0, but 1*1 = 2 leaves it
    with pytest.raises(EngineBug, match="minimal R-class is not a right ideal"):
        table_facts(np.array([[[1, 1, 1], [0, 2, 0], [2, 2, 2]]]))
    # {0} is the one minimal R-class, a right ideal, but 1*0 = 1 leaves it
    with pytest.raises(EngineBug, match="minimal R-classes is not a two-sided ideal"):
        table_facts(np.array([[[0, 0], [1, 0]]]))
    # {0, 1} is the one minimal R-class, a right and a two-sided ideal, but
    # a null semigroup: 0*0 = 0*1 = 1*0 = 1*1 = 0
    with pytest.raises(EngineBug, match="kernel is not completely simple"):
        table_facts(np.array([[[0, 0, 1], [0, 0, 0], [0, 0, 0]]]))
    with pytest.raises(ValueError, match="at most 16 elements, got 17"):
        table_facts(null_semigroup(17).table[None])
    assert table_facts(_accel.enumerate_assoc_tables(3)[:0]).local_right.shape == (0, 7)


def _scan_peak(scan, table):
    """The tracemalloc peak of one scan call, in bytes, with the mask words
    of its order built inside the call."""
    ideals._mask_words.cache_clear()
    tracemalloc.start()
    try:
        scan(table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scan, bound_mb", [(subset_arrays, 23.1), (table_facts, 9.3)])
def test_scan_memory_at_the_largest_order(scan, bound_mb):
    # the peaks of the scan on int32 masks, on this order-16 table
    assert _scan_peak(scan, null_semigroup(16).table[None]) < bound_mb * 2**20

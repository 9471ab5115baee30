"""Table enumeration, the associativity witness and the seeded sampler."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import oracles
from greenheight import _accel
from greenheight.constructions import (
    bi_ideal_family,
    left_ideal_cs_family,
    null_semigroup,
    right_ideal_tower,
)


def test_enumerate_counts():
    assert len(_accel.enumerate_assoc_tables(1)) == 1
    assert len(_accel.enumerate_assoc_tables(2)) == 8
    assert len(_accel.enumerate_assoc_tables(3)) == 113


def test_enumerate_matches_brute_force_oracle():
    for m in (1, 2, 3):
        tables = _accel.enumerate_assoc_tables(m)
        got = {tuple(map(tuple, t.tolist())) for t in tables}
        assert got == set(oracles.brute_force_tables(m))
        # search-open1 takes a prefix of this order with [:remaining]
        flat = [t.ravel().tolist() for t in tables]
        assert flat == sorted(flat)


def test_enumerate_order_four():
    tables = _accel.enumerate_assoc_tables(4)
    assert tables.dtype == np.int32 and tables.shape == (3492, 4, 4)  # OEIS A023814
    flat = [tuple(t.ravel().tolist()) for t in tables]
    # strictly increasing: lexicographic order and no table twice
    assert all(x < y for x, y in zip(flat, flat[1:]))
    for t in tables:
        assert oracles.check_associative(t.tolist())
    # the pinned sampler draw lies inside the enumeration
    known = set(flat)
    for t in _accel.sample_assoc_tables(4, 20, seed=3):
        assert tuple(t.ravel().tolist()) in known


def test_enumerate_rejects_large_order():
    # order 5 would take minutes; order 0 has no tables to fill
    for m in (0, 5):
        with pytest.raises(ValueError, match="order"):
            _accel.enumerate_assoc_tables(m)


def test_assoc_witness_none_iff_associative():
    for t in _accel.enumerate_assoc_tables(3):
        assert _accel.assoc_witness(t) is None
    bad = np.array([[1, 0], [0, 0]])
    w = _accel.assoc_witness(bad)
    assert w is not None
    a, b, c = w
    assert bad[bad[a, b], c] != bad[a, bad[b, c]]


def test_assoc_witness_is_lex_first():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        t = rng.integers(0, m, size=(m, m)).astype(np.int32)
        w = _accel.assoc_witness(t)
        if w is None:
            assert oracles.check_associative(t.tolist())
        else:
            a, b, c = w
            assert t[t[a, b], c] != t[a, t[b, c]]
            # nothing lexicographically earlier fails
            for a2 in range(a + 1):
                for b2 in range(m):
                    for c2 in range(m):
                        if (a2, b2, c2) >= (a, b, c):
                            break
                        assert t[t[a2, b2], c2] == t[a2, t[b2, c2]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: bi_ideal_family(5).semigroup,
        lambda: left_ideal_cs_family(10).semigroup,
        lambda: bi_ideal_family(6).semigroup,
        lambda: right_ideal_tower(4).semigroup,
    ],
    ids=["bi5", "left10", "bi6", "tower4"],
)
def test_assoc_witness_matches_oracle_above_light_cutoff(build):
    t = np.array(build().table)
    m = len(t)
    # orders 49-85: the generating-set test runs before any full scan
    assert m >= _accel._LIGHT_MIN_ORDER
    assert _accel.assoc_witness(t) is None
    assert oracles.check_associative(t.tolist())
    rng = np.random.default_rng(m)
    rejected = 0
    for _ in range(8):
        bad = t.copy()
        i, j = rng.integers(0, m, size=2)
        bad[i, j] = (bad[i, j] + rng.integers(1, m)) % m
        w = _accel.assoc_witness(bad)
        assert w == oracles.naive_assoc_witness(bad.tolist())
        rejected += w is not None
    assert rejected > 0


def test_generators_reach_every_element_by_right_multiplication():
    # the premise of Light's test: A and its right products by A cover S
    z = np.arange(50)
    tables = [
        bi_ideal_family(5).semigroup.table,
        right_ideal_tower(4).semigroup.table,
        null_semigroup(50).table,
        np.repeat(z[:, None], 50, axis=1),  # left zero
        (z[:, None] + z[None, :]) % 50,  # cyclic group
    ]
    rng = np.random.default_rng(17)
    for t in list(tables):
        bad = np.array(t)
        bad[tuple(rng.integers(0, len(bad), size=2))] = 0
        tables.append(bad)
    for t in tables:
        t = np.ascontiguousarray(t, dtype=np.int32)
        gens = _accel._generators(t).tolist()
        assert gens == sorted(set(gens))
        reached, todo = set(gens), list(gens)
        while todo:
            x = todo.pop()
            for g in gens:
                y = int(t[x, g])
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
        assert reached == set(range(len(t)))


def test_assoc_witness_finds_a_failure_at_every_middle():
    # order-60 null semigroups whose one failing triple (i, j, j) has middle j
    m = 60
    for j in range(m - 1):
        i = (j + 1) % (m - 1)
        t = np.full((m, m), m - 1, dtype=np.int32)
        t[i, j] = i
        assert _accel.assoc_witness(t) == (i, j, j)


def test_assoc_witness_memory_is_bounded_by_cells():
    # order-600 null semigroup whose one non-associative triple is (150, 3, 3)
    m = 600
    t = np.full((m, m), m - 1, dtype=np.int32)
    t[150, 3] = 150
    tracemalloc.start()
    try:
        w = _accel.assoc_witness(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == (150, 3, 3)
    assert peak < 32 * 2**20


def test_splitmix64_reference_vector():
    state = 0
    expected = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    for want in expected:
        state, z = _accel._mix64(state)
        assert z == want


def test_sampler_tables_are_associative_and_deterministic():
    a = _accel.sample_assoc_tables(4, 25, seed=11)
    b = _accel.sample_assoc_tables(4, 25, seed=11)
    c = _accel.sample_assoc_tables(4, 25, seed=12)
    assert len(a) == 25
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    for t in a:
        assert oracles.check_associative(t.tolist())


def test_sampler_output_is_pinned():
    # digests of the samples drawn before the node budget was validated
    ts = _accel.sample_assoc_tables(4, 20, seed=3)
    assert ts.dtype == np.int32 and ts.shape == (20, 4, 4)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "f2c75c48063a8e7d697513f3e8c93fb07a3849058604213e05e03029bd2eee0e"
    )
    ts = _accel.sample_assoc_tables(2, 5, seed=3, node_budget=4)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "5a09ed9f13ea2cbba23195c277464b78b877188ad881ea5a45428e2abcc315f6"
    )
    ts = _accel.sample_assoc_tables(3, 50, seed=9)
    assert ts.dtype == np.int32 and ts.shape == (50, 3, 3)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "0182243d772abb6e5b1be784ddcfaeb339e61b25380905c7b4769aebce1dafb9"
    )
    ts = _accel.sample_assoc_tables(5, 3, seed=5)
    assert ts.dtype == np.int32 and ts.shape == (3, 5, 5)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "27ce347692b5473638f95db05e6c45a6dfec7f608dc5d6d3d18c02b76a9e2183"
    )
    # at this budget 85 of the 105 attempts run out of nodes
    ts = _accel.sample_assoc_tables(4, 20, seed=3, node_budget=30)
    assert ts.dtype == np.int32 and ts.shape == (20, 4, 4)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "f81e2b3dc3a1b534c0daaf5efd9ba71d1d5ea98ce4ff1b7f010848bd83fee3c6"
    )


def test_sampler_rejects_unworkable_budget():
    # below m*m no attempt can finish; at m*m almost every attempt runs out
    # of nodes, and these budgets used to restart forever
    for m, budget in ((1, 0), (2, 3), (4, 15), (4, 16), (5, 25)):
        with pytest.raises(ValueError, match="node_budget"):
            _accel.sample_assoc_tables(m, 1, node_budget=budget)


def test_sampler_order_one_and_two():
    ts = _accel.sample_assoc_tables(1, 3, seed=0)
    assert all(t.tolist() == [[0]] for t in ts)
    ts = _accel.sample_assoc_tables(2, 40, seed=0)
    seen = {tuple(map(tuple, t.tolist())) for t in ts}
    assert seen <= set(oracles.brute_force_tables(2))
    assert len(seen) > 1


def test_sampler_rejects_seed_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            _accel.sample_assoc_tables(2, 1, seed=seed)

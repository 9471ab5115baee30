"""Table enumeration up to isomorphism and the associativity witness."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from greenheight import _accel, cli, parse_presentation
from greenheight.constructions import (
    bi_ideal_family,
    full_transformation_monoid,
    left_ideal_cs_family,
    null_semigroup,
    right_ideal_tower,
)


# semigroups up to isomorphism (OEIS A027851; A001423 also identifies
# anti-isomorphic ones) and labelled (OEIS A023814)
CLASSES = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
LABELLED = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}


def test_enumerate_counts():
    for m, count in CLASSES.items():
        tables = _accel.enumerate_assoc_tables(m)
        assert tables.dtype == np.int32 and tables.shape == (count, m, m)
        flat = [tuple(t.ravel().tolist()) for t in tables]
        # strictly increasing: search-open1 and the oracle take prefixes with [:n]
        assert all(x < y for x, y in zip(flat, flat[1:]))
        assert all(oracles.check_associative(t) for t in tables.tolist())


def test_enumerate_covers_every_labelled_table():
    # orbit-stabilizer: a class with automorphism group Aut has m!/|Aut| tables
    for m, count in LABELLED.items():
        reps = _accel.enumerate_assoc_tables(m).tolist()
        fact = math.factorial(m)
        assert sum(fact // oracles.automorphism_count(t) for t in reps) == count


def test_enumerate_matches_brute_force_oracle():
    for m in (1, 2, 3):
        got = [tuple(map(tuple, t)) for t in _accel.enumerate_assoc_tables(m).tolist()]
        want = {oracles.lex_least_relabelling(t) for t in oracles.brute_force_tables(m)}
        assert got == sorted(want)


def test_enumerate_order_four():
    tables = _accel.enumerate_assoc_tables(4).tolist()
    for t in tables:
        assert oracles.lex_least_relabelling(t) == tuple(map(tuple, t))
    # every labelled table relabels to exactly one representative
    reps = {tuple(map(tuple, t)) for t in tables}
    for t in oracles.labelled_tables(4).tolist():
        assert oracles.lex_least_relabelling(t) in reps


def test_enumerate_order_five_keeps_the_least_table_of_each_class():
    # no relabelling of a representative is smaller, so no two are isomorphic
    t = _accel.enumerate_assoc_tables(5)
    flat = t.reshape(len(t), -1)
    for p in itertools.permutations(range(5)):
        p = np.array(p)
        inv = np.argsort(p)
        image = p[t][:, inv][:, :, inv].reshape(len(t), -1)
        diff = image - flat
        first = diff[np.arange(len(t)), np.argmax(diff != 0, axis=1)]
        assert (first >= 0).all()


def test_enumerated_tables_are_pinned():
    # sha256 of the int32 bytes of enumerate_assoc_tables(m), as the fill
    # returned them when it compared every relabelling at each row end
    digests = {
        1: "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        2: "033d533c39183ff656f8197fbb11aa75fa7bd22d07bb96a0c6ca683446788a37",
        3: "ff8274ef095a504fd61a75b9d3cefd687ed45cea5da2bc941012f06e82f6192f",
        4: "cc641b67f1811eca9406c6ed4ab9c525a9f92332dcf2ca12f92e111c432a9709",
        5: "3bc63d38a1363b7beeedfd33336342c638a5d453ab53eaa21dbd5bd70ece3d13",
    }
    for m, digest in digests.items():
        tables = _accel.enumerate_assoc_tables(m)
        assert hashlib.sha256(tables.tobytes()).hexdigest() == digest


def test_every_placement_the_fill_accepts_keeps_the_partial_table_associative(monkeypatch):
    # _placement_ok checks only the triples in which the new cell is a
    # factor; _forced settles those in which it is the product. Together
    # they must leave no fully determined triple failing at any node.
    real = _accel._placement_ok
    accepted = []

    def checked(t, m, a, b):
        ok = real(t, m, a, b)
        if ok:
            accepted.append(m)
            for x, y, z in itertools.product(range(m), repeat=3):
                xy, yz = t[x * m + y], t[y * m + z]
                if xy >= 0 and yz >= 0:
                    left, right = t[xy * m + z], t[x * m + yz]
                    assert left < 0 or right < 0 or left == right, (t, (a, b), (x, y, z))
        return ok

    monkeypatch.setattr(_accel, "_placement_ok", checked)
    for m in range(1, 5):
        assert sum(1 for _ in _accel._fill(m)) == CLASSES[m]
    assert accepted.count(4) > 2000


def test_labelled_tables_match_the_earlier_exhaustive_enumerator():
    # sha256 of the int32 bytes of every labelled table of order m, as the
    # enumerator returned them before it kept one table per class
    digests = {
        1: "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        2: "5a0c400bae67f78acb6edb5c196cb58c8fffa7ef314a7c7fbaa89d4433623d0a",
        3: "9ae18e0f796dd0e60cae718d8dad1b9fc210d769aa183f44f55917729b00ce2b",
        4: "e61112d8668f24096f32f1aa50eb2a28d2e78c7741cf727b5e428cf0ab80184b",
    }
    for m, digest in digests.items():
        tables = oracles.labelled_tables(m)
        assert tables.dtype == np.int32 and len(tables) == LABELLED[m]
        assert hashlib.sha256(tables.tobytes()).hexdigest() == digest


def test_relabelled_tables_are_seeded_associative_relabellings():
    a = oracles.relabelled(4, 25, seed=11)
    assert a.dtype == np.int32 and a.shape == (25, 4, 4)
    assert np.array_equal(a, oracles.relabelled(4, 25, seed=11))
    assert not np.array_equal(a, oracles.relabelled(4, 25, seed=12))
    reps = {tuple(t.ravel().tolist()) for t in _accel.enumerate_assoc_tables(4)}
    for t in a.tolist():
        assert oracles.check_associative(t)
        least = oracles.lex_least_relabelling(t)
        assert tuple(x for row in least for x in row) in reps


def test_enumerate_rejects_large_order(monkeypatch):
    # the fill takes about 4 s for order 6's 28,634 classes (one core,
    # CPython 3.11), too long for every process that searches; order 0 has no
    # tables to fill. The order is checked before the memo is read
    monkeypatch.setattr(_accel, "_TABLES", {0: None, 6: None})
    for m in (0, 6):
        with pytest.raises(ValueError, match="order"):
            _accel.enumerate_assoc_tables(m)


def test_enumerate_returns_one_read_only_array_per_order():
    tables = _accel.enumerate_assoc_tables(4)
    assert _accel.enumerate_assoc_tables(4) is tables
    assert not tables.flags.writeable
    with pytest.raises(ValueError):
        tables[0, 0, 0] = 1


def test_searches_fill_each_order_once_per_process(monkeypatch, capsys):
    fills = []
    real = _accel._fill

    def counting(m):
        fills.append(m)
        return real(m)

    monkeypatch.setattr(_accel, "_TABLES", {})
    monkeypatch.setattr(_accel, "_fill", counting)
    outs = []
    for _ in range(2):
        assert cli.main(["search-open1", "--max-order", "4"]) == 0
        outs.append(capsys.readouterr().out)
    assert fills == [1, 2, 3, 4]
    assert outs[0] == outs[1]
    assert "searched_tables: 200" in outs[0]


def test_assoc_witness_none_iff_associative():
    for t in oracles.labelled_tables(3):
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


# family tables of orders 49-85, above the order where Light's test runs first
FAMILIES = {
    "bi5": lambda: bi_ideal_family(5).semigroup,
    "left10": lambda: left_ideal_cs_family(10).semigroup,
    "bi6": lambda: bi_ideal_family(6).semigroup,
    "tower4": lambda: right_ideal_tower(4).semigroup,
}


def one_bad_cell_copies(t):
    """Eight copies of t, each with one cell changed, seeded by the order."""
    m = len(t)
    rng = np.random.default_rng(m)
    for _ in range(8):
        bad = t.copy()
        i, j = rng.integers(0, m, size=2)
        bad[i, j] = (bad[i, j] + rng.integers(1, m)) % m
        yield bad


@pytest.mark.parametrize("build", FAMILIES.values(), ids=FAMILIES.keys())
def test_assoc_witness_matches_oracle_above_light_cutoff(build):
    t = np.array(build().table)
    # the generating-set test runs before any full scan
    assert len(t) >= _accel._LIGHT_MIN_ORDER
    assert _accel.assoc_witness(t) is None
    assert oracles.check_associative(t.tolist())
    rejected = 0
    for bad in one_bad_cell_copies(t):
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


def test_generators_are_pinned():
    # Light's test runs these middles; a change to the walk must keep them
    z = np.arange(50)
    want = {
        "bi5": [0, 1, 2, 3],
        "left10": [0, 1, 2],
        "tower4": [0, 1, 2, 3, 4, 5, 6, 7, 8, 20, 28, 42, 50, 62, 70],
        "T4": [6, 27, 30, 39, 75],
        "null50": list(range(49)),
        "left_zero50": list(range(50)),
        "cyclic50": [0, 1],
    }
    tables = {
        "bi5": bi_ideal_family(5).semigroup.table,
        "left10": left_ideal_cs_family(10).semigroup.table,
        "tower4": right_ideal_tower(4).semigroup.table,
        "T4": full_transformation_monoid(4).table,
        "null50": null_semigroup(50).table,
        "left_zero50": np.repeat(z[:, None], 50, axis=1),
        "cyclic50": (z[:, None] + z[None, :]) % 50,
    }
    for name, t in tables.items():
        gens = _accel._generators(np.ascontiguousarray(t, dtype=np.int32))
        assert sorted(gens.tolist()) == want[name], name


def generated_tables():
    """(name, table, seeds that generate it) from order 48 up: the presented
    families with their letters' elements and zero, T4 with a 4-cycle, a
    transposition and a map of rank 3, and the tower with every element, the
    last first."""
    for name, fi in [("bi5", bi_ideal_family(5)), ("left10", left_ideal_cs_family(10)),
                     ("bi6", bi_ideal_family(6))]:
        s = fi.semigroup
        rs = parse_presentation(fi.presentation_text)
        yield name, s.table, [s.index(x) for x in rs.letters] + [s.index("0")]
    t4 = full_transformation_monoid(4)
    yield "T4", t4.table, [t4.index(f) for f in ("1230", "1023", "0023")]
    tower = right_ideal_tower(4).semigroup
    yield "tower4", tower.table, list(range(tower.order))[::-1]


def test_generator_seeds_change_no_witness(monkeypatch):
    # seeds that generate the table replace the count order; one that does
    # not (the zero, or the last element, alone) falls back to it
    counted = []
    real = _accel._by_count

    def by_count(t):
        counted.append(len(t))
        yield from real(t)

    monkeypatch.setattr(_accel, "_by_count", by_count)
    for name, t, seeds in generated_tables():
        m = len(t)
        assert m >= _accel._LIGHT_MIN_ORDER
        # the Python oracle is too slow on T4, so the lex-first scan is its reference
        reference = _accel._first_failure if m > 100 else (
            lambda bad: oracles.naive_assoc_witness(bad.tolist()))
        for bad in [t, *one_bad_cell_copies(t)]:
            want = reference(bad)
            assert _accel.assoc_witness(bad) == want, name
            for gens in (seeds, [m - 1]):
                counted.clear()
                assert _accel.assoc_witness(bad, gens) == want, name
                if bad is t:
                    assert counted == ([] if gens is seeds else [m]), name


def test_assoc_witness_finds_a_failure_at_every_middle():
    # order-60 null semigroups whose one failing triple (i, j, j) has middle j
    m = 60
    for j in range(m - 1):
        i = (j + 1) % (m - 1)
        t = np.full((m, m), m - 1, dtype=np.int32)
        t[i, j] = i
        assert _accel.assoc_witness(t) == (i, j, j)


def tables_with_bad_cells(seed):
    """Null, left-zero and cyclic tables of orders 2-60, each with one to three
    changed cells. In the null tables the first two go to (i, j) and (i2, j2)
    with i2 < i and j < j2, so the one-cell failures (i, j, j) and (i2, j2, j2)
    make a later block of middles fail in an earlier row."""
    rng = np.random.default_rng(seed)
    for m in range(2, 61):
        z = np.arange(m)
        base = [np.full((m, m), m - 1), np.repeat(z[:, None], m, axis=1),
                (z[:, None] + z[None, :]) % m][m % 3]
        t = base.copy()
        extra = int(rng.integers(1, 4))
        if m % 3 == 0 and m >= 4:
            j, j2 = sorted(rng.choice(m - 1, size=2, replace=False).tolist())
            i = int(rng.integers(m // 2, m - 1))
            i2 = int(rng.integers(0, i))
            t[i, j], t[i2, j2] = i, i2
            extra = int(rng.integers(0, 2))
        for _ in range(extra):
            t[tuple(rng.integers(0, m, size=2))] = rng.integers(0, m)
        yield np.ascontiguousarray(t, dtype=np.int32)


@pytest.mark.parametrize("cells", [lambda m: 1, lambda m: m * m, lambda m: 3 * m * m - 1,
                                   lambda m: _accel._WITNESS_CELLS],
                         ids=["one-cell", "m-squared", "two-middles", "default"])
def test_first_failure_is_lex_first_across_blocks_of_middles(monkeypatch, cells):
    rejected = 0
    for t in tables_with_bad_cells(27):
        m = len(t)
        want = oracles.naive_assoc_witness(t.tolist())
        monkeypatch.setattr(_accel, "_WITNESS_CELLS", cells(m))
        assert _accel._first_failure(t) == want
        if m >= _accel._LIGHT_MIN_ORDER:  # Light's test runs first
            assert _accel.assoc_witness(t) == want
        rejected += want is not None
    assert rejected > 40


def witness_and_peak(t):
    """assoc_witness(t) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        w = _accel.assoc_witness(t)
        return w, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assoc_witness_memory_is_bounded_by_cells():
    # order-600 null semigroup whose one non-associative triple is (150, 3, 3)
    m = 600
    t = np.full((m, m), m - 1, dtype=np.int32)
    t[150, 3] = 150
    w, peak = witness_and_peak(t)
    assert w == (150, 3, 3)
    assert peak < 12 * 2**20


@pytest.mark.parametrize("kind", ["null", "left_zero"])
def test_assoc_witness_memory_is_bounded_on_accepted_tables(kind):
    # order 600 with |A| = 599 or 600: Light's test holds for every generator
    m = 600
    z = np.arange(m, dtype=np.int32)
    t = np.full((m, m), m - 1, dtype=np.int32) if kind == "null" else np.repeat(z[:, None], m, axis=1)
    w, peak = witness_and_peak(t)
    assert w is None
    assert peak < 12 * 2**20


def count_image_paths(monkeypatch):
    """A list that gets one entry per generator Light's test checks on its images."""
    calls = []
    real = _accel._images_agree

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(_accel, "_images_agree", counting)
    return calls


def check_light_holds_iff_associative(monkeypatch):
    """Light's test alone must never accept a table that is not associative,
    nor refuse one that is: the left-zero and right-zero tables and the
    family tables are not commutative. Returns the generators checked on
    their images."""
    images = count_image_paths(monkeypatch)
    z = np.arange(50, dtype=np.int32)
    left_zero = np.repeat(z[:, None], 50, axis=1)
    tables = [left_zero, left_zero.T]
    for build in FAMILIES.values():
        t = np.array(build().table)
        tables += [t, *one_bad_cell_copies(t)]
    # the tables with bad cells from order 48 up, and their transposes, which
    # move a bad cell from a row of the table to a column
    large = [t for t in tables_with_bad_cells(27) if len(t) >= _accel._LIGHT_MIN_ORDER]
    tables += large + [t.T for t in large]
    verdicts = []
    for t in tables:
        t = np.ascontiguousarray(t, dtype=np.int32)
        verdicts.append(_accel._light_holds(t))
        assert verdicts[-1] == (oracles.naive_assoc_witness(t.tolist()) is None)
    assert sum(verdicts) >= 6 and not all(verdicts)
    return images


def test_light_holds_iff_associative(monkeypatch):
    # these tables are below the order where the default gate takes images
    assert check_light_holds_iff_associative(monkeypatch) == []


@pytest.mark.parametrize("gate", [-math.inf, math.inf], ids=["images", "full"])
def test_light_holds_iff_associative_with_the_gate_forced(monkeypatch, gate):
    # the least saving for the image path: every generator takes it, or none
    monkeypatch.setattr(_accel, "_IMAGE_MIN_SAVING", gate)
    assert bool(check_light_holds_iff_associative(monkeypatch)) == (gate < 0)


@pytest.fixture(scope="module")
def large_tables():
    """The order-341 tower and the order-600 null table, built once."""
    return {"tower5": np.array(right_ideal_tower(5).semigroup.table),
            "null600": np.full((600, 600), 599, dtype=np.int32)}


@pytest.mark.parametrize("name", ["tower5", "null600"])
def test_image_path_agrees_with_the_scan_on_large_tables(monkeypatch, large_tables, name):
    # default gate; the lex-first scan is the reference, since the Python
    # oracle is too slow at these orders
    images = count_image_paths(monkeypatch)
    t = large_tables[name]
    assert _accel.assoc_witness(t) is None
    assert len(images) == len(_accel._generators(t))  # every generator on its images
    bads = list(one_bad_cell_copies(t))
    if name == "null600":
        # a random cell of the null table rarely breaks it, and each accepted
        # copy costs a full scan here: three of those, and two that fail,
        # (5, 7, 7) on a row of the table and (590, 590, 3) on a column
        bads = bads[:3]
        for i, j, v in [(5, 7, 5), (590, 3, 3)]:
            bad = t.copy()
            bad[i, j] = v
            bads.append(bad)
    rejected = 0
    for bad in bads:
        want = _accel._first_failure(bad)
        assert _accel.assoc_witness(bad) == want
        rejected += want is not None
    assert rejected >= 2


@pytest.mark.parametrize("m", [256, 257])
def test_narrow_copy_keeps_the_largest_entry(monkeypatch, m):
    # uint8 holds the entries of order 256, not 257. The null table (zero
    # m - 1) takes the image path, the left-zero table (every entry) the full
    # compare. The left-zero copy with 0*5 = m - 1 fails at (0, 0, 5), but
    # with m - 1 read as 0 it would be associative
    images = count_image_paths(monkeypatch)
    t = np.full((m, m), m - 1, dtype=np.int32)
    left_zero = np.repeat(np.arange(m, dtype=np.int32)[:, None], m, axis=1)
    bad_null, bad_left = t.copy(), left_zero.copy()
    bad_null[3, 4] = 3
    bad_left[0, 5] = m - 1
    for table, want in [(t, None), (left_zero, None), (bad_null, (3, 4, 4)),
                        (bad_left, (0, 0, 5))]:
        assert _accel._first_failure(table) == want
        before = len(images)
        assert _accel.assoc_witness(table) == want
        assert (len(images) > before) == (table[0, 0] == m - 1)  # the null tables


def test_a_non_associative_table_from_the_fill_is_an_internal_error(monkeypatch, capsys):
    real = _accel._fill

    def broken(m):
        # (0*0)*1 = 1*1 = 0, but 0*(0*1) = 0*0 = 1
        return iter([[1, 0, 0, 0]]) if m == 2 else real(m)

    monkeypatch.setattr(_accel, "_TABLES", {})
    monkeypatch.setattr(_accel, "_fill", broken)
    assert cli.main(["search-open1", "--max-order", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: internal: enumerated table 0 of order 2 is not associative:"
                   " (0*0)*1 != 0*(0*1)\n")
    assert 2 not in _accel._TABLES


@pytest.mark.parametrize("bad", [(12,), (17, 12), (23,)], ids=["one", "two", "last"])
def test_a_later_non_associative_table_is_reported_with_its_witness(monkeypatch, capsys, bad):
    # each listed table of order 3 gets its last cell raised by one; the
    # first of them in the stack is reported, with its lex-first witness
    real = _accel._fill
    tables = [list(t) for t in real(3)]
    for i in bad:
        tables[i][-1] = (tables[i][-1] + 1) % 3
    first = min(bad)
    witness = oracles.naive_assoc_witness(np.reshape(tables[first], (3, 3)).tolist())
    assert witness is not None and all(oracles.naive_assoc_witness(np.reshape(
        t, (3, 3)).tolist()) is None for i, t in enumerate(tables) if i not in bad)

    monkeypatch.setattr(_accel, "_TABLES", {})
    monkeypatch.setattr(_accel, "_fill", lambda m: iter(tables) if m == 3 else real(m))
    assert cli.main(["search-open1", "--max-order", "4"]) == 3
    out, err = capsys.readouterr()
    a, b, c = witness
    assert out == ""
    assert err == (f"error: internal: enumerated table {first} of order 3 is not associative:"
                   f" ({a}*{b})*{c} != {a}*({b}*{c})\n")
    assert 3 not in _accel._TABLES

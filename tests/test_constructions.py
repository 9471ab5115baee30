"""Reference families, extensions, and monoids against closed formulas."""

import hashlib
import itertools

import numpy as np
import pytest

import oracles
from greenheight import (
    chain_param,
    format_table_text,
    from_table,
    height,
    kernel,
    leq,
    relative_height,
    semigroup_from_presentation,
)
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
    trivial_semigroup,
)

# the Brandt bases of the pins and the definition test
BRANDT_BASES = {
    "trivial": trivial_semigroup,
    "left-zero-2": lambda: left_zero_semigroup(2),
    "left-zero-3": lambda: left_zero_semigroup(3),
    "bi-family-2": lambda: bi_ideal_family(2).semigroup,
    "null-3": lambda: null_semigroup(3),
}
# the bases of `verify null-extension`
NULL_BASES = {
    "left-family-3": lambda: left_ideal_cs_family(3).semigroup,
    "trivial": trivial_semigroup,
    "left-zero-2": lambda: left_zero_semigroup(2),
}


@pytest.mark.parametrize("n", range(2, 6))
def test_bi_ideal_family_values(n):
    fi = bi_ideal_family(n)
    s = fi.semigroup
    assert s.order == 12 * (n - 1) + 1
    assert height(s, "R") == n
    assert relative_height(fi.distinguished) == 3 * n - 2
    assert chain_param(s, fi.distinguished) == n
    complement = set(s.names) - set(fi.distinguished.member_names)
    assert complement == {"t", "zt", "ty", "yzt", "tyz"}
    assert fi.expected["order"] == s.order


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("family", [bi_ideal_family, left_ideal_cs_family],
                         ids=lambda family: family.__name__)
def test_family_presentation_rebuilds_table(family, n):
    fi = family(n)
    s2 = semigroup_from_presentation(fi.presentation_text)
    assert s2.names == fi.semigroup.names
    assert (s2.table == fi.semigroup.table).all()


def test_family_presentation_texts_at_n_2():
    assert bi_ideal_family(2).presentation_text == (
        "letters: x y z t\nzero: 0\n"
        "rule: xyzt -> x\nrule: yzty -> y\nrule: ztyz -> z\nrule: tyzt -> t\n"
        "rule: xx -> 0\nrule: yy -> 0\nrule: zz -> 0\nrule: tt -> 0\n"
        "rule: xz -> 0\nrule: xt -> 0\nrule: yx -> 0\nrule: yt -> 0\n"
        "rule: zx -> 0\nrule: zy -> 0\nrule: tz -> 0\nrule: tx -> 0\n")
    assert left_ideal_cs_family(2).presentation_text == (
        "letters: x y z\nzero: 0\n"
        "rule: xyz -> x\nrule: yzy -> y\nrule: zyz -> z\n"
        "rule: xx -> 0\nrule: yy -> 0\nrule: zz -> 0\n"
        "rule: xz -> 0\nrule: yx -> 0\nrule: zx -> 0\n")


@pytest.mark.parametrize("n", range(2, 7))
def test_left_ideal_family_values(n):
    fi = left_ideal_cs_family(n)
    s = fi.semigroup
    assert s.order == 6 * (n - 1) + 1
    assert height(s, "R") == n
    assert relative_height(fi.distinguished) == 2 * n - 1
    assert chain_param(s, fi.distinguished) == n
    assert set(s.names) - set(fi.distinguished.member_names) == {"z", "yz"}
    assert height(s, "J") == 2 * n - 1


def test_left_ideal_family_kernel_is_cs():
    # order 19 is too large for the naive oracle: kernel() raises EngineBug
    # unless the kernel, here the zero alone, is completely simple
    fi = left_ideal_cs_family(4)
    s = fi.semigroup
    info = kernel(s)
    assert info.members == frozenset({s.index("0")})
    assert info.minimal_right_ideals == (frozenset({s.index("0")}),)


def test_family_parameter_validation():
    for fam in (bi_ideal_family, left_ideal_cs_family):
        with pytest.raises(ValueError):
            fam(1)


def test_trivial_left_zero_null():
    assert trivial_semigroup().order == 1
    lz = left_zero_semigroup(3)
    assert lz.order == 3
    assert all(lz.product(a, b) == a for a in range(3) for b in range(3))
    ns = null_semigroup(3)
    z = ns.index("0")
    assert all(ns.product(a, b) == z for a in range(3) for b in range(3))
    with pytest.raises(ValueError):
        left_zero_semigroup(0)


def test_brandt_example_table_is_brandt_multiplication():
    s = brandt_example()
    assert s.order == 5
    assert s.names == ("(1,1)", "(1,2)", "(2,1)", "(2,2)", "0")
    z = s.index("0")

    def pair(i, j):
        return s.index(f"({i},{j})")

    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    got = s.product(pair(i, j), pair(k, l))
                    want = pair(i, l) if j == k else z
                    assert got == want
    assert all(s.product(z, x) == z and s.product(x, z) == z for x in range(5))


def test_brandt_extension_orders_and_height_law():
    for base, k in ((trivial_semigroup(), 2), (left_zero_semigroup(2), 2),
                    (left_zero_semigroup(2), 3), (bi_ideal_family(2).semigroup, 2)):
        t = brandt_extension(base, k)
        assert t.order == k * base.order * k + 1
        assert height(t, "R") == height(base, "R") + 1


def test_brandt_extension_k_one_is_zero_adjunction():
    base = left_zero_semigroup(2)
    t = brandt_extension(base, 1)
    assert t.order == base.order + 1
    assert height(t, "R") == height(base, "R") + 1
    with pytest.raises(ValueError):
        brandt_extension(base, 0)


def test_brandt_extension_multiplication_matches_definition():
    for build, k in itertools.product(BRANDT_BASES.values(), (1, 2, 3)):
        base = build()
        t = brandt_extension(base, k)
        z = t.order - 1
        m = base.order

        def idx(i, a, j):
            return ((i - 1) * m + a) * k + (j - 1)

        ks = range(1, k + 1)
        for i, a, j, p, b, q in itertools.product(ks, range(m), ks, ks, range(m), ks):
            got = t.product(idx(i, a, j), idx(p, b, q))
            want = idx(i, base.product(a, b), q) if j == p else z
            assert got == want
        assert all(t.product(z, x) == z and t.product(x, z) == z for x in range(t.order))


def test_right_ideal_tower_orders_and_heights():
    expect_order = {1: 1, 2: 5, 3: 21, 4: 85}
    for n in range(1, 5):
        fi = right_ideal_tower(n)
        s = fi.semigroup
        assert s.order == expect_order[n]
        assert height(s, "R") == n
        assert fi.distinguished.kind == "right_ideal"
        assert relative_height(fi.distinguished) == 2 * n - 1


def test_right_ideal_tower_refuses_levels_it_cannot_hold():
    # level 8 has 21,845 elements, a 1.9 GB table; it is refused before any
    # extension is built
    for n in (0, 8):
        with pytest.raises(ValueError, match="n must be between 1 and 7"):
            right_ideal_tower(n)


def test_right_ideal_tower_level_two_is_the_example_table():
    fi = right_ideal_tower(2)
    assert np.array_equal(fi.semigroup.table, brandt_example().table)


def test_tower_heights_step_by_one_and_two():
    prev = right_ideal_tower(1)
    for n in range(2, 5):
        cur = right_ideal_tower(n)
        assert height(cur.semigroup, "R") == height(prev.semigroup, "R") + 1
        assert (
            relative_height(cur.distinguished)
            == relative_height(prev.distinguished) + 2
        )
        prev = cur


def test_null_extension_structure():
    for build in NULL_BASES.values():
        t_sem = build()
        fi = null_extension(t_sem)
        s, handle = fi.semigroup, fi.distinguished
        m = t_sem.order
        assert s.order == 2 * m + 1
        assert handle.kind == "two_sided_ideal"
        assert len(handle) == m + 1  # the mirrored copy plus the zero
        assert relative_height(handle) == 2
        assert chain_param(s, handle) == height(t_sem, "R") + 1
        # mirrored copy multiplies to zero and mirrors the R-order
        z = s.order - 1
        for a in range(m):
            for b in range(m):
                assert s.product(m + a, m + b) == z
                assert leq(s, m + a, m + b, "R") == leq(t_sem, a, b, "R")
                # mixed products land on the mirrored copy, tracking T
                assert s.product(a, m + b) == m + t_sem.product(a, b)
                assert s.product(m + a, b) == m + t_sem.product(a, b)


def test_null_extension_name_collisions_avoided():
    t_sem = null_semigroup(2)  # already contains a "0" name
    s = null_extension(t_sem).semigroup
    assert len(set(s.names)) == s.order


def test_null_extension_lengthens_its_mirror_prefix_past_the_base_names():
    t_sem = from_table(["x_a", "b"], [[0, 0], [1, 1]])
    assert null_extension(t_sem).semigroup.names == ("x_a", "b", "xx_x_a", "xx_b", "0")


def test_null_semigroup_refuses_order_zero():
    with pytest.raises(ValueError, match="^order must be positive$"):
        null_semigroup(0)


def test_full_transformation_monoid_tables():
    for n in (1, 2, 3, 4):
        s = full_transformation_monoid(n)
        assert s.order == n ** n
        maps = sorted(itertools.product(range(n), repeat=n))
        assert s.table.tolist() == oracles.transformation_table(maps)
    with pytest.raises(ValueError):
        full_transformation_monoid(5)


def test_full_transformation_heights():
    for n in (1, 2, 3):
        s = full_transformation_monoid(n)
        for rel in ("R", "L", "J", "H"):
            assert height(s, rel) == n


def test_symmetric_inverse_monoid():
    for n, order in ((1, 2), (2, 7), (3, 34)):
        s = symmetric_inverse_monoid(n)
        assert s.order == order
        # partial injections, -1 for "undefined": no defined image repeats
        maps = sorted(f for f in itertools.product(range(-1, n), repeat=n)
                      if len(set(f) - {-1}) == n - f.count(-1))
        assert s.table.tolist() == oracles.transformation_table(maps)
        assert s.names == tuple("".join("-" if v < 0 else str(v) for v in f) for f in maps)
    s3 = symmetric_inverse_monoid(3)
    assert s3.order == 34
    assert height(s3, "R") == 4
    s2 = symmetric_inverse_monoid(2)
    assert s2.order == 7
    assert s2.identity is not None
    with pytest.raises(ValueError):
        symmetric_inverse_monoid(4)


def test_expected_records_match_computed():
    for n in (2, 3):
        fi = bi_ideal_family(n)
        assert fi.expected["height_r"] == height(fi.semigroup, "R")
        assert fi.expected["relative_height"] == relative_height(fi.distinguished)
        assert fi.expected["chain_param"] == chain_param(fi.semigroup, fi.distinguished)
    fi = right_ideal_tower(3)
    assert fi.expected["order"] == fi.semigroup.order
    assert fi.expected["relative_height"] == relative_height(fi.distinguished)


def test_table_and_presentation_text_round_trip():
    fi = left_ideal_cs_family(2)
    from greenheight import parse_table_text

    again = parse_table_text(format_table_text(fi.semigroup))
    assert (again.table == fi.semigroup.table).all()
    assert again.names == fi.semigroup.names


@pytest.mark.parametrize("build", [
    trivial_semigroup,
    lambda: left_zero_semigroup(3),
    lambda: null_semigroup(4),
    brandt_example,
    lambda: brandt_extension(left_zero_semigroup(2), 3),
    lambda: null_extension(brandt_example()).semigroup,
    lambda: bi_ideal_family(3).semigroup,
    lambda: left_ideal_cs_family(3).semigroup,
    lambda: right_ideal_tower(3).semigroup,
    lambda: full_transformation_monoid(3),
    lambda: symmetric_inverse_monoid(3),
])
def test_stock_constructions_parse_back_from_their_table_text(build):
    from greenheight import parse_table_text

    s = build()
    again = parse_table_text(format_table_text(s))
    assert again.names == s.names
    assert (again.table == s.table).all()


# sha256 of table.tobytes() followed by the names joined by newlines, as the
# cell-by-cell builders produced them
PINNED_TABLES = [
    ("T1", lambda: full_transformation_monoid(1),
     "a91b7f2ab93de821abeec1750258e4d4f5f09831b0a11dda47e89ddf6944d819"),
    ("T2", lambda: full_transformation_monoid(2),
     "9212b8e013c44b9d3f1d12197b536e9200d7eccf2ede1690862ebe7b4133ff5c"),
    ("T3", lambda: full_transformation_monoid(3),
     "7fabbdf4dfc316e31d6130e2610c7082043576608414f485d4a48abd83ceb062"),
    ("T4", lambda: full_transformation_monoid(4),
     "f194e59c3249029503bc7914307cb068b66ed64c0abc21787e44927f5d129952"),
    ("I1", lambda: symmetric_inverse_monoid(1),
     "24399e84b1721ddb5e59c3adc20b5397cf2a05b65ca4fd8ca5aca0c404cab476"),
    ("I2", lambda: symmetric_inverse_monoid(2),
     "072e3889bf3f64e70bb8178ad9fae106939ec86602b05a784ebc39f284d14148"),
    ("I3", lambda: symmetric_inverse_monoid(3),
     "d1bf951f9194f815642ea5b0fc632fbc8631b79e945865861c694ec9d828c7af"),
    ("tower n=1", lambda: right_ideal_tower(1).semigroup,
     "8ef944676348d1cbcced936576e18c44fa0d3a0754ffe595e915de9928f86dcc"),
    ("tower n=2", lambda: right_ideal_tower(2).semigroup,
     "9376fca5c394c3c15171457cf4b32751c889250fe9c2fd0512ececffc787fef9"),
    ("tower n=3", lambda: right_ideal_tower(3).semigroup,
     "a9b5dfa099f9f25fa39e6e3bf5212d33e32f1794e91c03ecbc3b78de9e964114"),
    ("tower n=4", lambda: right_ideal_tower(4).semigroup,
     "1a07d41b7577e0183c9bacf4fa24ea85757eb0b8a8f2a2502e124d7abff0c6d1"),
    ("tower n=5", lambda: right_ideal_tower(5).semigroup,
     "45e0d690b2313c963d121c7e55f1892f89e14e4518eac8bbdd15672c92c2b28b"),
    ("brandt trivial k=1", lambda: brandt_extension(BRANDT_BASES["trivial"](), 1),
     "b9e111851b6755ae5d14c5ab481239e68d9fd03c96dcd23136702bc656ebd494"),
    ("brandt trivial k=2", lambda: brandt_extension(BRANDT_BASES["trivial"](), 2),
     "9376fca5c394c3c15171457cf4b32751c889250fe9c2fd0512ececffc787fef9"),
    ("brandt trivial k=3", lambda: brandt_extension(BRANDT_BASES["trivial"](), 3),
     "5107ea55e01907fc9a68ab841372208a6b2c1c91b2da5f074f08c213162b6e6a"),
    ("brandt left-zero-2 k=1", lambda: brandt_extension(BRANDT_BASES["left-zero-2"](), 1),
     "25ca89bd529261ede59a0ef158d4541472c7fdb273461871dccb94894a6f628c"),
    ("brandt left-zero-2 k=2", lambda: brandt_extension(BRANDT_BASES["left-zero-2"](), 2),
     "5b1d01bb470da452a4905c3450804b9b84a7fa075121104f296a1beb9f30f33f"),
    ("brandt left-zero-2 k=3", lambda: brandt_extension(BRANDT_BASES["left-zero-2"](), 3),
     "57f77ef2061168c651e122830f5cef9f6f2937e7c9b6b6bda44db1864f21c331"),
    ("brandt left-zero-3 k=1", lambda: brandt_extension(BRANDT_BASES["left-zero-3"](), 1),
     "4f9be7ff85fd54f46aaabeb59dd41a7027755b76fb67476e4117ec30cd80f25e"),
    ("brandt left-zero-3 k=2", lambda: brandt_extension(BRANDT_BASES["left-zero-3"](), 2),
     "b364dbe955813c28de38a5ceae8014a7d20dbd79b093ecd3d47a8e00e8c4a0ac"),
    ("brandt left-zero-3 k=3", lambda: brandt_extension(BRANDT_BASES["left-zero-3"](), 3),
     "52c1da7e01f0b8046bd557fd8c594983f91d6460c0a37f9c39224be146822254"),
    ("brandt bi-family-2 k=1", lambda: brandt_extension(BRANDT_BASES["bi-family-2"](), 1),
     "c9b12c24297ef16943f483a8f713229242f39e360089e6ebeb0d403b211a45aa"),
    ("brandt bi-family-2 k=2", lambda: brandt_extension(BRANDT_BASES["bi-family-2"](), 2),
     "87790f5a08fbad6d8abecf5125c55114ad7736ba6ccc6ec476d7bbeb7a78e832"),
    ("brandt bi-family-2 k=3", lambda: brandt_extension(BRANDT_BASES["bi-family-2"](), 3),
     "72c6f21ea6d13a877e30e121e5e6d5f5ea4ef1f1e51cf7c44e217e92fcc11554"),
    ("brandt null-3 k=1", lambda: brandt_extension(BRANDT_BASES["null-3"](), 1),
     "e7b0a910fc7b8214cd3e8a44664c9924a43b9784d291d9e2609959453a50fd8c"),
    ("brandt null-3 k=2", lambda: brandt_extension(BRANDT_BASES["null-3"](), 2),
     "19f5b580cc6da1d74da8b66173539ab4d72be046a0536857ad55a2598b943dea"),
    ("brandt null-3 k=3", lambda: brandt_extension(BRANDT_BASES["null-3"](), 3),
     "6439f831a85d5530403430f1857da6faeff7285755c291d23a823ceac71b0d66"),
    ("null left-family-3", lambda: null_extension(NULL_BASES["left-family-3"]()).semigroup,
     "96d30f2d1f4be44d4cc22e48ea197ecf4e06fc2f7569287c498bcfbd93fd9c28"),
    ("null trivial", lambda: null_extension(NULL_BASES["trivial"]()).semigroup,
     "e77648b575669be625a1897b83a9ae76fa3e84188a3108379d407ed8bef3a094"),
    ("null left-zero-2", lambda: null_extension(NULL_BASES["left-zero-2"]()).semigroup,
     "c9d245d2ec318009bf10c1cf706cb45bba3b7d2ee06231a86616e9e149c6bdaf"),
    ("null null-2", lambda: null_extension(null_semigroup(2)).semigroup,
     "dbf08f62a32a3113d602bdd139606078c5742651559bb65747bbe6d6d5b36d12"),
]


@pytest.mark.parametrize("build, digest", [p[1:] for p in PINNED_TABLES],
                         ids=[p[0] for p in PINNED_TABLES])
def test_construction_tables_are_pinned(build, digest):
    s = build()
    h = hashlib.sha256(s.table.tobytes())
    h.update("\n".join(s.names).encode())
    assert h.hexdigest() == digest

"""Seeded inputs are byte-stable and keep their closed-form facts."""

import pytest

import gen
import workloads
from greenheight import cli, core, green, ideals, rewriting

SEEDS = (0, 1, 7)


def _presentation_facts(p, kind):
    rs = rewriting.parse_presentation(p.text)
    s = rewriting.semigroup_from_presentation(rs)
    gens = {rewriting.element_index(rs, s, w) for w in p.generators}
    return s, ideals.generate(s, gens, kind)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make", [gen.bi_ideal_presentation, gen.left_ideal_presentation,
                                  gen.tower_table, gen.bi_ideal_table])
def test_same_seed_same_bytes(make, seed):
    n = 3
    assert make(n, gen.seeded("t", seed)) == make(n, gen.seeded("t", seed))


def test_seed_changes_representation_only():
    texts = {gen.bi_ideal_presentation(4, gen.seeded("t", s)).text for s in range(6)}
    assert len(texts) > 1
    multi = gen.left_ideal_presentation(3, gen.seeded("t"), multi_char=True)
    assert all(g.startswith("[") for g in multi.generators)
    tables = {gen.transformation_table(3, gen.seeded("t", s)).text for s in range(6)}
    assert len(tables) > 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, multi_char", [(2, False), (3, True), (5, False), (5, True)])
def test_bi_ideal_presentation_facts(n, multi_char, seed):
    p = gen.bi_ideal_presentation(n, gen.seeded("bi", seed, n), multi_char)
    s, handle = _presentation_facts(p, "bi_ideal")
    f = p.facts
    assert s.order == f["order"] == 12 * (n - 1) + 1
    assert green.height(s, "R") == f["height_r"]
    assert ideals.relative_height(handle) == f["relative_height"]
    assert ideals.chain_param(s, handle) == f["chain_param"]
    report = ideals.bound_report(s, handle)
    assert (report.theorem_id, report.bound) == (f["theorem"], f["bound"])
    assert report.passed and report.tight


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, multi_char", [(2, True), (4, False), (6, True)])
def test_left_ideal_presentation_facts(n, multi_char, seed):
    p = gen.left_ideal_presentation(n, gen.seeded("left", seed, n), multi_char)
    s, handle = _presentation_facts(p, "left_ideal")
    f = p.facts
    assert s.order == f["order"] == 6 * (n - 1) + 1
    assert green.height(s, "R") == f["height_r"]
    assert green.height(s, "J") == f["height_j"]
    assert ideals.relative_height(handle) == f["relative_height"]
    assert ideals.chain_param(s, handle) == f["chain_param"]
    report = ideals.bound_report(s, handle)
    assert (report.theorem_id, report.bound) == (f["theorem"], f["bound"])
    assert report.passed and report.tight


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make, n, kind", [
    (gen.tower_table, 3, "right_ideal"),
    (gen.tower_table, 4, "right_ideal"),
    (gen.bi_ideal_table, 4, "bi_ideal"),
    (gen.transformation_table, 3, None),
    (gen.partial_bijection_table, 3, None),
])
def test_table_facts(make, n, kind, seed):
    t = make(n, gen.seeded("table", seed, n))
    s = core.parse_table_text(t.text)
    f = t.facts
    assert s.order == f["order"]
    for rel, key in (("R", "height_r"), ("L", "height_l"), ("J", "height_j"), ("H", "height_h")):
        if key in f:
            assert green.height(s, rel) == f[key]
    if "j_classes" in f:
        assert len(green.class_poset(s, "J").classes) == f["j_classes"]
    if kind:
        handle = ideals.generate(s, {s.index(g) for g in t.generators}, kind)
        assert ideals.relative_height(handle) == f["relative_height"]
        assert ideals.chain_param(s, handle) == f["chain_param"]
        report = ideals.bound_report(s, handle)
        assert (report.theorem_id, report.bound) == (f["theorem"], f["bound"])
        assert report.passed and report.tight


def test_relabel_moves_names_with_rows():
    names, rows = gen.brandt_tower(3)
    s = core.parse_table_text(gen.relabel(names, rows, gen.seeded("relabel")))
    for a, x in enumerate(names):
        for b, y in enumerate(names):
            assert s.names[s.product(s.index(x), s.index(y))] == names[rows[a][b]]
    assert s.names[-1] == "0"
    assert s.names[:-1] != names[:-1]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_op_passes_its_check(name, tmp_path, capsys):
    for op in workloads.build(name, 3, tmp_path):
        rc = cli.main(list(op.argv))
        out = capsys.readouterr().out
        assert rc == 0, op.id
        assert op.check(out) == [], op.id


def test_checks_reject_wrong_facts():
    p = gen.left_ideal_presentation(3, gen.seeded("x"))
    check = workloads._bound_check(p.facts, "left_ideal")
    good = ("kind: left_ideal\ntheorem: left-ideal-cs-kernel\nrelative_height: 5\n"
            "chain_param: 3\nbound: 5\npass: true\ntight: true\n")
    assert check(good) == []
    assert check(good.replace("tight: true", "tight: false"))
    search = workloads._search_check(10)
    assert search("searched_tables: 10\nbest_score: 0\n") == []
    assert search("searched_tables: 10\nbest_score: 1\n")
    assert search("searched_tables: 10\nbest: none\n")
    assert search("searched_tables: 9\nbest_score: -1\n")

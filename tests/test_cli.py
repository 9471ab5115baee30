"""Command behavior, exit codes, output format, and determinism."""

import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import greenheight
import oracles
from greenheight import _accel, cli, core, errors, green, ideals, rewriting
from greenheight.constructions import (
    bi_ideal_family,
    brandt_example,
    left_ideal_cs_family,
    null_extension,
    right_ideal_tower,
)
from greenheight.errors import (
    CapExceeded,
    EngineBug,
    NotAssociative,
    NotClosed,
    NotConfluent,
    ParseError,
)


@pytest.fixture()
def bi2_presentation(tmp_path):
    p = tmp_path / "bi2.txt"
    p.write_text(bi_ideal_family(2).presentation_text)
    return str(p)


@pytest.fixture()
def left3_table(tmp_path):
    p = tmp_path / "left3.txt"
    p.write_text(core.format_table_text(left_ideal_cs_family(3).semigroup))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_all_relations(capsys, bi2_presentation):
    code, out, _ = run(capsys, "height", bi2_presentation)
    assert code == 0
    assert out == "R: 2\nL: 3\nJ: 3\nH: 2\n"


def test_height_single_relation_table_input(capsys, left3_table):
    code, out, _ = run(capsys, "height", left3_table, "--relation", "J")
    assert code == 0
    assert out == "J: 5\n"


def test_elements_lists_names(capsys, bi2_presentation):
    code, out, _ = run(capsys, "elements", bi2_presentation)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 13"
    assert lines[1] == "e0: x"
    assert len(lines) == 14


def test_classes_output(capsys, bi2_presentation):
    code, out, _ = run(capsys, "classes", bi2_presentation, "--relation", "R")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "relation: R"
    assert lines[1] == "classes: 5"
    assert lines[2] == "height: 2"
    assert "c0: {x, xy, xyz}" in lines


def test_poset_writes_dot_file(capsys, tmp_path, bi2_presentation):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "poset", bi2_presentation, "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph R_classes {")
    assert out == ""


def test_poset_stdout_default(capsys, bi2_presentation):
    code, out, _ = run(capsys, "poset", bi2_presentation, "--relation", "L")
    assert code == 0
    assert out.startswith("digraph L_classes {")


def test_complete_success(capsys, bi2_presentation):
    code, out, _ = run(capsys, "complete", bi2_presentation)
    assert code == 0
    assert "complete: true" in out


def test_complete_failure_exit_one(capsys, tmp_path):
    p = tmp_path / "ab.txt"
    p.write_text("letters: a b\nrule: ab -> a\nrule: ba -> b\n")
    code, out, _ = run(capsys, "complete", str(p))
    assert code == 1
    assert "complete: false" in out
    assert "witness_source: aba" in out


def test_complete_builds_the_critical_pairs_once(capsys, monkeypatch, tmp_path, bi2_presentation):
    calls = []
    real = rewriting.critical_pairs
    monkeypatch.setattr(rewriting, "critical_pairs", lambda rs: calls.append(rs) or real(rs))
    p = tmp_path / "ab.txt"
    p.write_text("letters: a b\nrule: ab -> a\nrule: ba -> b\n")
    for path, want in ((bi2_presentation, 0), (str(p), 1)):
        calls.clear()
        code, _, _ = run(capsys, "complete", path)
        assert (code, len(calls)) == (want, 1)


def test_complete_rejects_table_input(capsys, left3_table):
    code, out, err = run(capsys, "complete", left3_table)
    assert (code, out, err) == (2, "", "error: 'complete' needs a presentation input\n")


def test_bounds_report_and_json(capsys, tmp_path, bi2_presentation):
    target = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "bounds", bi2_presentation, "--kind", "bi",
        "--generators", "x", "y", "z", "tx", "--json", str(target),
    )
    assert code == 0
    assert "relative_height: 4" in out
    assert "pass: true" in out
    data = json.loads(target.read_text())
    assert data["kind"] == "bi_ideal"
    assert data["relative_height"] == 4
    assert data["chain_param"] == 2
    assert data["pass"] is True


@pytest.mark.parametrize("argv", [
    ("bounds", "{bi2}", "--kind", "bi", "--generators", "x", "y", "z", "tx"),
    ("search-open1", "--max-order", "4"),
    ("verify", "small-order-oracle", "--order", "4", "--samples", "50"),
], ids=["bounds", "search-open1", "small-order-oracle"])
def test_commands_leave_numpy_ma_unimported(bi2_presentation, argv):
    # np.unique imports numpy.ma, which takes milliseconds, on its first call
    argv = [arg.format(bi2=bi2_presentation) for arg in argv]
    script = ("import sys; from greenheight import cli; "
              f"code = cli.main({argv!r}); "
              "print(code, 'numpy.ma' in sys.modules)")
    package_root = Path(greenheight.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.stdout.splitlines()[-1] == "0 False", res.stderr


def test_a_zero_token_spelled_like_a_word_gets_its_own_name(capsys, tmp_path):
    # the zero once displayed as ab, the name of the word ab, and elements exited 2
    p = tmp_path / "zero.txt"
    p.write_text("letters: a b\nzero: [ab]\nrule: aa -> [ab]\nrule: bb -> [ab]\n"
                 "rule: ba -> [ab]\n")
    code, out, _ = run(capsys, "elements", str(p))
    assert (code, out) == (0, "order: 4\ne0: a\ne1: b\ne2: ab\ne3: [ab]\n")
    code, out, _ = run(capsys, "bounds", str(p), "--kind", "bi", "--generators", "[ab]")
    assert (code, out.splitlines()[0]) == (0, "members: {[ab]}")
    code, out, _ = run(capsys, "bounds", str(p), "--kind", "bi", "--generators", "ab")
    assert (code, out.splitlines()[0]) == (0, "members: {ab, [ab]}")


def test_bounds_unknown_generator(capsys, bi2_presentation):
    code, _, err = run(capsys, "bounds", bi2_presentation, "--kind", "right",
                       "--generators", "nope")
    assert code == 2
    assert err == "error: no element named 'nope'\n"


# one handle per kind, as (input text, generators); n = 3 for each family
_BOUNDS_INPUTS = {
    "bi": lambda: (bi_ideal_family(3).presentation_text, ("x", "y", "z", "tx")),
    "left": lambda: (left_ideal_cs_family(3).presentation_text, ("x", "y")),
    "right": lambda: (core.format_table_text(right_ideal_tower(3).semigroup),
                      ("(1,(1,e,1),1)",)),
    "two-sided": lambda: (core.format_table_text(brandt_example()), ("(1,2)",)),
}


# kind -> sha256 of the stdout and of the --json file
_BOUNDS_DIGESTS = {
    "bi": ("491c5d0f9c2659b48f827c7e6f3b93a163086e8cafc4f748b72c31d8015ee51e",
           "06d12dd825aab48ca91ad264d6a4626feedce33e7ca782a2b4606cfc55276522"),
    "left": ("8b1edb833331e2f1489bd4e8a44109c1cf483845e50b24d8bcb6d2885d5f65cf",
             "d47883686f660e83c0128eba52860c1f0cf3679611c721eb70d4750a929996b5"),
    "right": ("490d480a15c44c09bef62d4e8a4c573a0c7eb79257a86dfc65eede73e9ef4ca8",
              "b024d755ce135d9b8b0560f20917eb9b072154a5506b7d28ddc4198b560a3c05"),
    "two-sided": ("8ab5c7b2fe0d8341913869b15f2ed0c24bd77317b562376c9baa621754380021",
                  "c7e7484abf98fb1993b5b05b86e71e78c661d5eb4c1ee9b2a186fd0aac58268e"),
}


@pytest.mark.parametrize("kind", _BOUNDS_INPUTS)
def test_bounds_output_is_pinned(capsys, tmp_path, kind):
    text, generators = _BOUNDS_INPUTS[kind]()
    source, target = tmp_path / "input.txt", tmp_path / "report.json"
    source.write_text(text)
    code, out, err = run(capsys, "bounds", str(source), "--kind", kind,
                         "--generators", *generators, "--json", str(target))
    assert (code, err) == (0, "")
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(target.read_bytes()).hexdigest())
    assert digests == _BOUNDS_DIGESTS[kind]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "height", "/nonexistent/file.txt")
    assert code == 2
    assert "error:" in err


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_bad_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "height", "x.txt", "--relation", "Q")
    assert code == 2


def test_format_flag_is_refused(capsys, bi2_presentation):
    # the input kind comes from the first declaration key alone
    for argv in (("height",), ("classes",), ("poset",), ("elements",), ("complete",),
                 ("bounds", "--kind", "bi", "--generators", "x")):
        code, out, err = run(capsys, argv[0], bi2_presentation, *argv[1:],
                             "--format", "presentation")
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: greenheight {argv[0]} ")
        assert "unrecognized arguments: --format presentation" in err


def test_input_without_declaration_is_parse_error(capsys, tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("hello world\n")
    code, _, err = run(capsys, "height", str(p))
    assert code == 2
    for key in ("letters:", "zero:", "rule:", "order:"):
        assert key in err


@pytest.mark.parametrize("text, line", [
    ("# c\n\nfoo: 1\n", 3),
    ("  # only comments\n\n   \n", 1),
    ("", 1),
    ("\n  hello # world\norder: 1\n", 2),
])
def test_input_kind_error_names_the_first_line_it_read(capsys, tmp_path, text, line):
    p = tmp_path / "junk.txt"
    p.write_text(text)
    code, out, err = run(capsys, "height", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}, column 1: input must start with ")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_usage_error(capsys, bi2_presentation, left3_table, cap):
    for path in (bi2_presentation, left3_table):
        code, out, err = run(capsys, "height", path, "--cap", cap)
        assert (code, out) == (2, "")
        assert err.startswith("usage: greenheight height ")
        assert f"argument --cap: count must be positive, got {cap}" in err


def test_cap_of_one_still_reaches_the_walk(capsys, bi2_presentation, left3_table):
    code, out, err = run(capsys, "height", bi2_presentation, "--cap", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    code, out, _ = run(capsys, "height", left3_table, "--cap", "1")
    assert code == 0 and out.startswith("R: ")


def _bi2_lines():
    return bi_ideal_family(2).presentation_text.splitlines(keepends=True)


@pytest.mark.parametrize("text", [
    "".join([_bi2_lines()[1], _bi2_lines()[0], *_bi2_lines()[2:]]),  # zero: 0 first
    "".join(_bi2_lines()[2:] + _bi2_lines()[:2]),  # rule: first, letters: last
    "# bi n=2\n\n" + bi_ideal_family(2).presentation_text.replace("letters:", "letters :"),
], ids=["zero-first", "rule-first", "spaced-letters"])
def test_presentation_detected_from_any_declaration_key(capsys, tmp_path, bi2_presentation,
                                                        text):
    p = tmp_path / "reordered.txt"
    p.write_text(text)
    for command in ("height", "elements"):
        assert run(capsys, command, str(p)) == run(capsys, command, bi2_presentation)
    assert run(capsys, "height", str(p)) == (0, "R: 2\nL: 3\nJ: 3\nH: 2\n", "")


def test_table_detected_with_spaced_order_key(capsys, tmp_path, left3_table):
    p = tmp_path / "spaced.txt"
    p.write_text(Path(left3_table).read_text().replace("order:", "  order :", 1))
    assert run(capsys, "height", str(p)) == run(capsys, "height", left3_table)


def test_verify_suite_passes_and_json(capsys, tmp_path):
    target = tmp_path / "suite.json"
    code, out, _ = run(capsys, "verify", "bi-ideal-family", "--n", "2..3",
                       "--json", str(target))
    assert code == 0
    assert "case n=2: pass" in out
    assert "failures: 0" in out
    data = json.loads(target.read_text())
    assert data["suite"] == "bi-ideal-family"
    assert len(data["cases"]) == 2
    assert all(c["pass"] for c in data["cases"])
    assert "elapsed_ms" in data


def test_verify_single_n(capsys):
    code, out, _ = run(capsys, "verify", "left-ideal-cs-family", "--n", "4")
    assert code == 0
    assert "case n=4: pass" in out
    assert "cases: 1" in out


def test_verify_deterministic_modulo_elapsed(capsys):
    def scrub(text):
        return [l for l in text.splitlines() if not l.startswith("elapsed_ms:")]

    _, out1, _ = run(capsys, "verify", "brandt-example")
    _, out2, _ = run(capsys, "verify", "brandt-example")
    assert scrub(out1) == scrub(out2)


@pytest.mark.parametrize("argv, n_cases, stdout_digest, cases_digest", [
    (("brandt-tower", "--n", "1..4"), 7,
     "2050e87104973e96819cf6fc13a16be6d465ad5c3c46d98b1f6f60da8c6a42eb",
     "4be361c9b7ad81a88e3cdf48395243a79add39ec5d7cc1a7ab7f11aa8ed7e851"),
    (("reference-monoids", "--n", "1..3"), 4,
     "62e23365d1364a0d8c976871095cbc06459991db8318fa17c560858dad8569d1",
     "26fd140e09291718aecfad921aa42bbe78e94ee76d64d7106074db37ffd863e8"),
    (("bi-ideal-family", "--n", "2..4"), 3,
     "bfa9e677942dc53689a6db7eaa64c254f3aa7ca51e50c8b3dbe716da21cda622",
     "813c7b57ea18ccc5299a750f7e586c1e1e14a8e145fab36e174f6ccd4d5df767"),
    (("left-ideal-cs-family", "--n", "2..4"), 3,
     "1a36499da524bf540aefe5de25451ee569aeb0ca8139ef4262166289f904f872",
     "7122d0796c045c65326a707e818be32d0522dc661cd217797a9cbb247a4d9cbc"),
    (("small-order-oracle", "--order", "3"), 3,
     "9c6b4eebdd67a11cb35888125843518c75d945ba6d0d33e942031252e66e1492",
     "ec26b0f24804658490f20965b20f0ef457ca8f446cb3c4c6affaed2cc20f4615"),
    (("null-extension",), 3,
     "e0dd0b41bb1f5220f479904b48017623e3c6b0aa43a569a8c0022df70b98db20",
     "d7248b582eb54994aa9d925a4d7bf5af46472766d8703292170527d1138fedd3"),
    (("brandt-example",), 1,
     "9b14e556722dae9e8c9e1d0981e7b38c0030edefd9fc5c1ec2798295d5acde59",
     "d98a4f75b960d38e56b498cfb3cca77b622cd6403ab27a59bf2e986f55f41b1f"),
    (("brandt-tower", "--n", "1..5"), 8,
     "0cfd8e6c03964b51a901d258342aa977903723bbc19ae0ebaa83309667eb6759",
     "18fcd50569c3fca977e408385d06a5cfb0990ec83d3433b0626f3c56090b63c8"),
    (("bi-ideal-family", "--n", "20"), 1,
     "fb35c88c7419e873f4933b7ab0e421bcc8c6ab557e367d6e76566b136efebb7a",
     "33a84d4f3cc56aeedf0afaff1931b6b1a507689695dda0dd917f724c45ccd10e"),
    (("left-ideal-cs-family", "--n", "40"), 1,
     "657277e2342fd51b93b40d0c1f939a795096e0d512fd8b2f80f4622ae4919cf3",
     "744353f63ed9753b3ee08b91fe6d6976178fd8ba4b6ef070d4e5b0a6ff2cc1da"),
])
def test_verify_every_suite_is_pinned(capsys, tmp_path, argv, n_cases, stdout_digest,
                                      cases_digest):
    # digests taken while the suites still coerced every value for JSON; those at
    # the benchmark's sizes, before the family suites shared one closed-form case
    target = tmp_path / "suite.json"
    code, out, err = run(capsys, "verify", *argv, "--json", str(target))
    assert (code, err) == (0, "")
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed_ms:"))
    assert hashlib.sha256(kept.encode()).hexdigest() == stdout_digest
    cases = json.loads(target.read_text())["cases"]
    assert len(cases) == n_cases
    assert hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest() == (
        cases_digest)


# the flags each suite reads, beside --json; every suite refuses the rest
_SUITE_READS = {
    "bi-ideal-family": {"--n"},
    "left-ideal-cs-family": {"--n"},
    "brandt-tower": {"--n"},
    "null-extension": set(),
    "brandt-example": set(),
    "reference-monoids": {"--n"},
    "small-order-oracle": {"--order", "--samples", "--seed"},
}
_FLAG_VALUES = {"--n": "2", "--order": "1", "--samples": "1", "--seed": "5"}


@pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
@pytest.mark.parametrize("suite", list(cli._SUITE_FUNCS))
def test_verify_suite_refuses_every_flag_it_does_not_read(capsys, suite, flag):
    code, out, err = run(capsys, "verify", suite, flag, _FLAG_VALUES[flag])
    if flag in _SUITE_READS[suite]:
        assert (code, err) == (0, "")
        assert "failures: 0" in out
    else:
        assert (code, out) == (2, "")
        # the suite's own usage, which lists the flags it does read
        assert err.startswith(f"usage: greenheight verify {suite} [-h]")
        assert (f"greenheight verify {suite}: error: unrecognized arguments:"
                f" {flag} {_FLAG_VALUES[flag]}") in err


@pytest.mark.parametrize("suite, lo, hi", [
    ("bi-ideal-family", 2, 6),
    ("left-ideal-cs-family", 2, 8),
    ("brandt-tower", 1, 4),
    ("reference-monoids", 1, 3),
])
def test_verify_n_default_is_in_the_parser_and_its_help(capsys, suite, lo, hi):
    assert cli.build_parser().parse_args(["verify", suite]).n == range(lo, hi + 1)
    code, out, _ = run(capsys, "verify", suite, "--help")
    assert code == 0
    assert f"parameter range A..B (default {lo}..{hi})" in out


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "verify", "bi-ideal-family", "--n", "3..4")
    assert (code, out.count("\ncase ")) == (0, 2)
    code, out, _ = run(capsys, "verify", "bi-ideal-family")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("case ")] == [
        f"case n={n}: pass" for n in range(2, 7)]


def test_each_semigroup_of_an_op_is_freed_without_the_cycle_collector(
        capsys, monkeypatch, left3_table, bi2_presentation):
    built = []
    init = core.FiniteSemigroup.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(core.FiniteSemigroup, "__init__", tracked_init)
    ops = [
        ("height", left3_table),
        ("classes", left3_table, "--relation", "J"),
        ("poset", left3_table, "--relation", "J"),
        ("bounds", bi2_presentation, "--kind", "bi", "--generators", "x", "y", "z", "tx"),
        ("verify", "brandt-tower"),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in ops:
            built.clear()
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert built, argv
            assert [ref() for ref in built if ref() is not None] == [], argv
    finally:
        if was_enabled:
            gc.enable()


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "no-such-suite")
    assert code == 2


def test_verify_brandt_tower_past_its_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "brandt-tower", "--n", "8")
    assert (code, out) == (2, "")
    assert err == "error: n must be between 1 and 7\n"


def test_verify_failure_path_prints_diff(capsys, monkeypatch):
    def fake_suite(args):
        return [{
            "id": "forced",
            "expected": {"order": 1},
            "computed": {"order": 2},
            "pass": False,
        }]

    monkeypatch.setitem(cli._SUITE_FUNCS, "brandt-example", fake_suite)
    code, out, _ = run(capsys, "verify", "brandt-example")
    assert code == 1
    assert "case forced: FAIL" in out
    assert "  expected order: 1" in out
    assert "  computed order: 2" in out
    assert "failures: 1" in out


@pytest.mark.parametrize("build, reads_j", [
    (lambda: bi_ideal_family(3), False),
    (lambda: right_ideal_tower(3), False),
    (lambda: null_extension(brandt_example()), False),
    (lambda: left_ideal_cs_family(3), True),
])
def test_family_case_reads_only_the_keys_its_instance_lists(monkeypatch, build, reads_j):
    fi = build()
    relations = []
    real = green.class_poset
    monkeypatch.setattr(green, "class_poset",
                        lambda x, relation="R": relations.append(relation) or real(x, relation))
    case = cli._family_case("n", fi, extra=False)
    assert case["expected"] == {**fi.expected, "extra": True}
    assert set(case["computed"]) == set(fi.expected) | {"extra"}
    assert not case["pass"]
    assert ("J" in relations) == reads_j


def test_engine_bug_is_internal_error_exit_three(capsys, monkeypatch, bi2_presentation):
    def broken_poset(s, relation="R"):
        raise EngineBug("class order is not antisymmetric: engine bug")

    monkeypatch.setattr(green, "class_poset", broken_poset)
    for argv in (("height", bi2_presentation), ("classes", bi2_presentation, "--relation", "J")):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: internal: class order is not antisymmetric: engine bug\n"


# (exception raised inside a command, exit code, stderr after "error: ")
ERROR_EXITS = [
    (ParseError(3, 4, "bad cell"), 2, "line 3, column 4: bad cell"),
    (NotAssociative((0, 1, 2)), 2, "not associative: (0*1)*2 != 0*(1*2)"),
    (NotConfluent(None, "unresolved critical pair"), 2, "unresolved critical pair"),
    (NotClosed("bi_ideal", None, "not a bi-ideal"), 2, "not a bi-ideal"),
    (CapExceeded(10, 11), 2, "enumeration exceeded cap=10 (at least 11 irreducible words);"
                             " the presented semigroup may be infinite"),
    (OSError("disk unreadable"), 2, "disk unreadable"),
    (ValueError("bad value"), 2, "bad value"),
    (EngineBug("class order is not antisymmetric"), 3,
     "internal: class order is not antisymmetric"),
    (KeyError("no element named 'q'"), 3, "internal: KeyError: \"no element named 'q'\""),
    (IndexError("index 9 is out of bounds"), 3, "internal: IndexError: index 9 is out of bounds"),
]


@pytest.mark.parametrize("exc, code, message", ERROR_EXITS,
                         ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_every_error_type_maps_to_its_exit_code(capsys, monkeypatch, left3_table, exc, code,
                                                message):
    def failing(s, relation="R"):
        raise exc

    monkeypatch.setattr(green, "height", failing)
    assert run(capsys, "height", left3_table) == (code, "", f"error: {message}\n")


def test_every_error_type_has_a_pinned_exit_code():
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)
               and c.__module__ == errors.__name__}
    assert defined
    assert defined <= {type(exc) for exc, _, _ in ERROR_EXITS}


def test_kernel_engine_bug_in_small_order_oracle_exits_three(capsys, monkeypatch):
    # x*y = 0 but 1*0 = 1, not associative: {0} is the one minimal R-class,
    # a right ideal, yet 1*0 leaves it, so the union of the minimal R-classes
    # is no two-sided ideal
    crafted = np.array([[[0, 0], [1, 0]]], dtype=np.int32)
    monkeypatch.setitem(_accel._TABLES, 2, crafted)
    code, out, err = run(capsys, "verify", "small-order-oracle", "--order", "2")
    assert code == 3
    assert out == ""
    assert err == ("error: internal: union of the minimal R-classes is not a"
                   " two-sided ideal\n")
    # (0*0)*2 = 1 but 0*(0*2) = 0: the kernel {0, 1} passes both checks
    # above, yet is a null semigroup, not completely simple
    monkeypatch.undo()
    crafted = np.array([[[0, 0, 1], [0, 0, 0], [0, 0, 0]]], dtype=np.int32)
    monkeypatch.setitem(_accel._TABLES, 3, crafted)
    code, out, err = run(capsys, "verify", "small-order-oracle", "--order", "3")
    assert code == 3
    assert out == ""
    assert err == "error: internal: kernel is not completely simple\n"


def test_verify_small_order_oracle_tiny(capsys):
    code, out, _ = run(capsys, "verify", "small-order-oracle", "--order", "2")
    assert code == 0
    assert "case order 1: pass" in out
    assert "case order 2: pass" in out


def test_verify_small_order_oracle_rejects_large(capsys):
    code, _, err = run(capsys, "verify", "small-order-oracle", "--order", "9")
    assert code == 2
    assert "error:" in err


def test_verify_small_order_oracle_order_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "small-order-oracle", "--order", "0")
    assert code == 2
    assert out == ""
    assert "--order must be between 1 and 5" in err


def test_verify_zero_samples_at_sampled_orders_is_usage_error(capsys):
    for order in ("4", "5"):
        code, out, err = run(capsys, "verify", "small-order-oracle", "--order", order,
                             "--samples", "0")
        assert code == 2
        assert out == ""
        assert "error: --samples must be positive" in err


def test_verify_zero_samples_below_sampled_orders_runs(capsys):
    code, out, _ = run(capsys, "verify", "small-order-oracle", "--order", "3",
                       "--samples", "0")
    assert code == 0
    assert "case order 3: pass" in out
    assert "failures: 0" in out


def test_verify_negative_samples_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "small-order-oracle", "--order", "3",
                         "--samples", "-1")
    assert code == 2
    assert out == ""
    assert "count must be nonnegative, got -1" in err


def test_verify_bad_range(capsys):
    code, _, _ = run(capsys, "verify", "bi-ideal-family", "--n", "5..2")
    assert code == 2


def test_verify_n_that_is_not_a_range_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "bi-ideal-family", "--n", "two")
    assert code == 2
    assert out == ""
    assert "bad range 'two', expected A..B" in err


def test_count_that_is_not_an_integer_is_usage_error(capsys):
    code, out, err = run(capsys, "search-open1", "--budget", "1.5")
    assert code == 2
    assert out == ""
    assert "bad count '1.5', expected an integer" in err


def test_search_open1_deterministic(capsys):
    code1, out1, _ = run(capsys, "search-open1", "--budget", "30", "--seed", "5")
    code2, out2, _ = run(capsys, "search-open1", "--budget", "30", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "searched_tables: 30" in out1
    assert "best_score:" in out1


def test_search_open1_stdout_is_pinned(capsys):
    # digest taken when the search first walked one table per isomorphism class
    code, out, _ = run(capsys, "search-open1", "--budget", "60",
                       "--max-order", "4", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8762d851f270455dc66545702ded9e89823bfb8f2f57e051670b1902fbe5abc"
    )


def test_search_open1_order_five_is_pinned(capsys, tmp_path):
    # all of orders 1-4 (218 classes), then the first 182 classes of order 5
    target = tmp_path / "search.json"
    code, out, _ = run(capsys, "search-open1", "--max-order", "5", "--budget", "400",
                       "--json", str(target))
    assert code == 0
    assert "searched_tables: 400" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1812ac78154b7daf3e2c8af74e3b20e00471dcf4d80add0fe8bc314c6ae790c3"
    )
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "95b8b017036186e99e9c89395ce98a1a3f9a91c21c33263d98b590b1caf2c98b"
    )


def test_search_open1_walks_classes_in_order_and_ignores_seed(capsys, monkeypatch):
    shapes = []
    real = ideals.subset_arrays

    def counting(tables):
        shapes.append(tables.shape)
        return real(tables)

    monkeypatch.setattr(ideals, "subset_arrays", counting)
    code, out, _ = run(capsys, "search-open1", "--budget", "200", "--max-order", "4")
    assert code == 0
    assert "searched_tables: 200" in out
    # one stack per order: every class of orders 1-3 (1 + 5 + 24), then the
    # first 170 of order 4
    assert shapes == [(1, 1, 1), (5, 2, 2), (24, 3, 3), (170, 4, 4)]
    for seed in ("-5", str(2**64)):
        assert run(capsys, "search-open1", "--budget", "200", "--seed", seed)[1] == out
    assert "seed" not in out


def test_search_open1_builds_no_semigroup_and_no_poset(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("search-open1 built a semigroup or a class poset")

    monkeypatch.setattr(core.FiniteSemigroup, "__init__", refused)
    monkeypatch.setattr(green, "class_poset", refused)
    code, out, _ = run(capsys, "search-open1", "--budget", "200", "--max-order", "4")
    assert code == 0
    assert "searched_tables: 200" in out


def test_verify_small_order_oracle_stdout_is_pinned(capsys):
    # digest taken before the enumerator and the sampler shared one fill
    code, out, _ = run(capsys, "verify", "small-order-oracle", "--order", "4",
                       "--samples", "20", "--seed", "3")
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed_ms:"))
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "1025e0eea2debf133b95a1123d44774bba6112f8f7e6110320098acc1bfe900b"
    )


def test_verify_small_order_oracle_checks_every_class_through_order_five(capsys, tmp_path):
    target = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "verify", "small-order-oracle", "--order", "5",
                       "--json", str(target))
    assert code == 0
    assert "failures: 0" in out
    tables = [c["computed"]["tables"] for c in json.loads(target.read_text())["cases"]]
    assert tables == [1, 5, 24, 188, 1915]  # OEIS A027851
    # --samples caps the classes checked above order 3; --seed is ignored
    code, _, _ = run(capsys, "verify", "small-order-oracle", "--order", "4",
                     "--samples", "20", "--seed", "9", "--json", str(target))
    assert code == 0
    cases = json.loads(target.read_text())["cases"]
    assert [c["computed"]["tables"] for c in cases] == [1, 5, 24, 20]
    assert cases[-1]["expected"] == {"tables": 20, "violations": 0}


def test_verify_small_order_oracle_forced_failures_are_pinned(capsys, monkeypatch, tmp_path):
    # every bound and sanity bound of the theorem table is made 0, and every
    # relative height of the subset scan one more, so each record's bound,
    # sanity and proposition checks all fail where they apply: the violation
    # counts, the first violation and the subset-then-kind order all show
    for key, (theorem, _, sanity) in list(ideals._THEOREMS.items()):
        monkeypatch.setitem(ideals._THEOREMS, key,
                            (theorem, (0, 0), None if sanity is None else (0, 0)))
    real = ideals.subset_arrays

    def raised(tables):
        arrays = real(tables)
        return dataclasses.replace(arrays, relative_height=arrays.relative_height + 1)

    monkeypatch.setattr(ideals, "subset_arrays", raised)
    target = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "verify", "small-order-oracle", "--order", "3",
                       "--json", str(target))
    assert code == 1
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed_ms:"))
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "3709ce24ec1d582386763f15ca2530a1ecfd12e02a7b17e3aa4d6bbdfa17317d"
    )
    cases = json.loads(target.read_text())["cases"]
    assert hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest() == (
        "1f0f6550df70d7295c636bae12a4d6244591818cbca55fef87db2914e2b1599e"
    )
    messages = []
    for m in (1, 2, 3):
        for row_messages in cli._violations(oracles.labelled_tables(m)).values():
            messages.extend(row_messages)
    assert len(messages) == 2764
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == (
        "4a9215b98cd57529c2132c88030dbb2ccb7307cb2b61ba3d1e54fe49e42186c6"
    )
    # the oracle's 8 + 74 + 589 messages, one class each, count m!/|Aut| times
    # over the labelled tables: the message count is invariant under relabelling
    assert [c["computed"]["violations"] for c in cases] == [8, 74, 589]
    weighted = 0
    for m in (1, 2, 3):
        reps = _accel.enumerate_assoc_tables(m)
        for row, row_messages in cli._violations(reps).items():
            weighted += len(row_messages) * (
                math.factorial(m) // oracles.automorphism_count(reps[row].tolist()))
    assert weighted == len(messages)


def test_small_order_oracle_table_checks_fire_on_non_associative_tables():
    # no associative table fails a table-level check; these two pass the
    # kernel's own checks and each fail one
    crafted = np.array([[[0, 0, 0], [0, 0, 0], [0, 2, 1]],
                        [[0, 0, 1], [1, 1, 0], [0, 0, 0]]], dtype=np.int32)
    assert cli._violations(crafted) == {
        0: ["H_R exceeds H_J"],
        1: ["height-1 union lemma fails"],
    }
    # a kernel that is not completely simple is itself an engine bug
    with pytest.raises(EngineBug, match="kernel is not completely simple"):
        cli._violations(np.array([[[0, 0, 1], [0, 0, 0], [0, 0, 0]]], dtype=np.int32))


def test_small_order_oracle_violations_of_an_empty_stack_are_empty():
    for shape in ((0, 3, 3), (0, 1, 1)):
        assert cli._violations(np.zeros(shape, dtype=np.int32)) == {}


def test_search_open1_zero_budget(capsys):
    for max_order in ("4", "5"):
        code, out, _ = run(capsys, "search-open1", "--budget", "0", "--max-order", max_order)
        assert code == 0
        assert "searched_tables: 0" in out
        assert "best: none" in out


def test_search_open1_negative_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "search-open1", "--budget", "-5")
    assert code == 2
    assert out == ""
    assert "count must be nonnegative, got -5" in err


def test_search_open1_json_report(capsys, tmp_path):
    target = tmp_path / "search.json"
    code, _, _ = run(capsys, "search-open1", "--budget", "12", "--seed", "3",
                     "--json", str(target), "--max-order", "4")
    assert code == 0
    data = json.loads(target.read_text())
    assert data["searched_tables"] == 12
    assert data["best"]["score"] <= 0  # no counterexample at this scale
    assert data["best"]["table"]
    assert "relative_height" in data["best"]


def test_search_open1_score_never_positive_exhaustive_small(capsys):
    # all 30 isomorphism classes of order <= 3: max over bi-ideals of
    # height - (3 * chain - 2) stays at zero
    code, out, _ = run(capsys, "search-open1", "--budget", "122",
                       "--max-order", "3")
    assert code == 0
    assert "searched_tables: 30" in out
    assert "best_score: 0" in out


def _assert_help_output(res):
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: greenheight")
    assert "search-open1" in res.stdout


def test_entry_point_console_script():
    # Runs the [project.scripts] target the way pip's generated wrapper
    # does, so the declared script is checked without an install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["greenheight"]
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))

    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'greenheight'; sys.exit({func}())")
    package_root = Path(greenheight.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    res = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    _assert_help_output(res)


def test_python_dash_m_runs_the_cli():
    package_root = Path(greenheight.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    res = subprocess.run([sys.executable, "-m", "greenheight", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    _assert_help_output(res)


def test_python_dash_m_runs_a_command_and_reports_an_input_error(tmp_path):
    table = tmp_path / "lz2.txt"
    table.write_text("order: 2\nnames: a b\n0 0\n1 1\n")
    package_root = Path(greenheight.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    res = subprocess.run([sys.executable, "-m", "greenheight", "elements", str(table)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (0, "order: 2\ne0: a\ne1: b\n", "")
    res = subprocess.run([sys.executable, "-m", "greenheight", "elements",
                          str(tmp_path / "missing.txt")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: ")
    assert "missing.txt" in res.stderr


def test_files_are_utf8_and_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    # With EncodingWarning an error, a file opened in the locale's default
    # encoding exits 3; each run must match the in-process one exactly.
    s = core.from_table(["α", "β", "γ", "δ", "0"], brandt_example().table)
    texts = {"greek": core.format_table_text(s), "bi2": bi_ideal_family(2).presentation_text}
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        paths[name + "-bom"] = str(tmp_path / f"{name}-bom.txt")
        Path(paths[name]).write_text(text, encoding="utf-8")
        Path(paths[name + "-bom"]).write_text("\ufeff" + text, encoding="utf-8")
    package_root = Path(greenheight.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root), "PYTHONIOENCODING": "utf-8"}

    def strict(*argv):
        res = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning", "-m", "greenheight", *argv],
                             capture_output=True, encoding="utf-8", env=env, timeout=60)
        return res.returncode, res.stdout, res.stderr

    assert strict("height", paths["greek"]) == run(capsys, "height", paths["greek"])
    bounds = ("bounds", paths["greek"], "--kind", "right", "--generators", "α", "--json")
    code, out, err = strict(*bounds, str(tmp_path / "strict.json"))
    assert (code, out, err) == run(capsys, *bounds, str(tmp_path / "in-process.json"))
    assert out.startswith("members: {α, β, 0}\n")
    assert ((tmp_path / "strict.json").read_bytes()
            == (tmp_path / "in-process.json").read_bytes())
    dot = tmp_path / "r.dot"
    assert strict("poset", paths["greek"], "--dot", str(dot)) == (0, "", "")
    assert dot.read_text(encoding="utf-8") == green.class_poset(s, "R").to_dot()
    assert strict("height", paths["greek-bom"]) == strict("height", paths["greek"])
    assert strict("height", paths["bi2-bom"]) == strict("height", paths["bi2"]) == (
        0, "R: 2\nL: 3\nJ: 3\nH: 2\n", "")


@pytest.mark.skipif(shutil.which("greenheight") is None,
                    reason="greenheight console script not installed")
def test_installed_console_script_runs():
    res = subprocess.run(["greenheight", "--help"], capture_output=True,
                         text=True, timeout=60)
    _assert_help_output(res)

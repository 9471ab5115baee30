"""Command-line surface: analyze presentation/table files, export posets,
check bounds, run the verification suites, and search the open question.

Output is line-oriented `key: value` facts in decimal. Exit codes: 0 for
success / all-pass, 1 for a negative or failing result, 2 for usage and
input errors (`ValueError`, `CapExceeded`, `OSError`), 3 for an internal
error: an engine invariant failed (`EngineBug`) or any other exception
escaped. Every command is deterministic for fixed input and flags; the one
exception is the elapsed_ms line of `verify`. Files are read and written as
UTF-8; an input may start with a byte-order mark. Its first declaration key,
on the first line that both parsers read, gives its kind: `letters`, `zero`
or `rule` a presentation, `order` a table. Each `verify` suite has a
sub-parser with only the flags it reads. `verify small-order-oracle` and
`search-open1` walk one table per isomorphism class, in the order of
`_accel.enumerate_assoc_tables`; both still accept `--seed` and ignore it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import _accel, constructions, core, green, ideals, rewriting
from .errors import CapExceeded, EngineBug, ParseError

_KIND_FLAGS = {
    "bi": "bi_ideal",
    "right": "right_ideal",
    "left": "left_ideal",
    "two-sided": "two_sided_ideal",
}


def _parse_n_range(text: str):
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            a, b = int(lo), int(hi)
        else:
            a = b = int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A..B") from None
    if b < a:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(a, b + 1)


def _nonnegative_int(text: str, least: int = 0) -> int:
    """A count of at least `least`, which is 0 or 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}, expected an integer") from None
    if value < least:
        raise argparse.ArgumentTypeError(
            f"count must be {'positive' if least else 'nonnegative'}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _nonnegative_int(text, least=1)


def _read_input(path):
    """The text of a UTF-8 file, with an optional byte-order mark, and its
    kind, from the first line that both parsers read; an error names it."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lineno, body = next(core.content_lines(text), (1, ""))
    head, sep, _ = body.partition(":")
    key = head.strip()
    if not sep or key not in ("letters", "zero", "rule", "order"):
        raise ParseError(lineno, 1,
                         "input must start with 'letters:', 'zero:', 'rule:' or 'order:'")
    return text, "table" if key == "order" else "presentation"


def _load_input(args):
    """Returns (semigroup, rewriting system or None)."""
    text, kind = _read_input(args.input)
    if kind == "presentation":
        rs = rewriting.parse_presentation(text)
        return rewriting.semigroup_from_presentation(rs, cap=args.cap), rs
    return core.parse_table_text(text), None


def _resolve_element(s, rs, token: str) -> int:
    if rs is not None:
        try:
            return rewriting.element_index(rs, s, token)
        except ValueError:
            pass  # not a word over the alphabet; fall through to name lookup
    return s.index(token)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_height(args) -> int:
    s, _ = _load_input(args)
    relations = [args.relation] if args.relation else list(green.RELATIONS)
    for rel in relations:
        print(f"{rel}: {green.height(s, rel)}")
    return 0


def cmd_classes(args) -> int:
    s, _ = _load_input(args)
    rel = args.relation or "R"
    poset = green.class_poset(s, rel)
    print(f"relation: {rel}")
    print(f"classes: {len(poset.classes)}")
    print(f"height: {poset.height}")
    for i, cls in enumerate(poset.classes):
        members = ", ".join(s.names[a] for a in cls)
        print(f"c{i}: {{{members}}}")
    return 0


def cmd_poset(args) -> int:
    s, _ = _load_input(args)
    rel = args.relation or "R"
    dot = green.class_poset(s, rel).to_dot()
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_elements(args) -> int:
    s, _ = _load_input(args)
    print(f"order: {s.order}")
    for i, name in enumerate(s.names):
        print(f"e{i}: {name}")
    return 0


def cmd_complete(args) -> int:
    text, kind = _read_input(args.input)
    if kind != "presentation":
        raise ValueError("'complete' needs a presentation input")
    rs = rewriting.parse_presentation(text)
    pairs = rewriting.critical_pairs(rs)
    witness = rewriting.first_unresolved(rs, pairs)
    print(f"rules: {len(rs.rules)}")
    print(f"critical_pairs: {len(pairs)}")
    print(f"complete: {'true' if witness is None else 'false'}")
    if witness is None:
        return 0
    print(f"witness_source: {rs.display(witness.source)}")
    print(f"witness_left: {rs.display(rewriting.reduce_word(rs, witness.left_result))}")
    print(f"witness_right: {rs.display(rewriting.reduce_word(rs, witness.right_result))}")
    return 1


def cmd_bounds(args) -> int:
    s, rs = _load_input(args)
    kind = _KIND_FLAGS[args.kind]
    gens = {_resolve_element(s, rs, tok) for tok in args.generators}
    handle = ideals.generate(s, gens, kind)
    report = ideals.bound_report(s, handle)
    members = ", ".join(handle.member_names)
    print(f"members: {{{members}}}")
    sys.stdout.write(report.to_text())
    if args.json:
        _write_json(args.json, report.to_json_dict())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verification suites


def _case(case_id, expected, computed):
    return {
        "id": case_id,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
    }


# key -> the engine's reading of it, from a family instance and its bound report
_READINGS = {
    "order": lambda fi, report: fi.semigroup.order,
    "height_r": lambda fi, report: green.height(fi.semigroup, "R"),
    "height_j": lambda fi, report: green.height(fi.semigroup, "J"),
    "relative_height": lambda fi, report: report.relative_height,
    "chain_param": lambda fi, report: report.chain_param,
    "complement": lambda fi, report: sorted(
        set(fi.semigroup.names) - set(fi.distinguished.member_names)),
    "bound_pass": lambda fi, report: report.passed,
    "bound_tight": lambda fi, report: report.tight,
}


def _family_case(case_id, fi, **checks):
    """A case for a family instance: the closed forms it lists beside the
    engine's reading of each, and of nothing it does not list, then each of
    `checks`, a fact no closed form states, expected true."""
    report = ideals.bound_report(fi.semigroup, fi.distinguished)
    computed = {key: _READINGS[key](fi, report) for key in fi.expected}
    return _case(case_id, {**fi.expected, **dict.fromkeys(checks, True)}, {**computed, **checks})


def suite_bi_ideal_family(args):
    return [_family_case(f"n={n}", constructions.bi_ideal_family(n)) for n in args.n]


def suite_left_ideal_cs_family(args):
    cases = []
    for n in args.n:
        fi = constructions.left_ideal_cs_family(n)
        jp = green.class_poset(fi.semigroup, "J")
        # a chain through every class
        cases.append(_family_case(f"n={n}", fi, single_j_chain=jp.height == len(jp.classes)))
    return cases


def suite_brandt_tower(args):
    cases = []
    for n in args.n:
        fi = constructions.right_ideal_tower(n)
        checks = {}
        if n == 2:
            checks["matches_brandt_example"] = bool(
                np.array_equal(fi.semigroup.table, constructions.brandt_example().table))
        cases.append(_family_case(f"tower n={n}", fi, **checks))
    # one-step extension laws over small bases
    bases = [
        ("trivial", constructions.trivial_semigroup()),
        ("left-zero-2", constructions.left_zero_semigroup(2)),
        ("bi-family-2", constructions.bi_ideal_family(2).semigroup),
    ]
    for label, s in bases:
        t = constructions.brandt_extension(s, 2)
        # each aS^1 lifts to a right ideal of t two R-classes taller
        principal_law = all(
            ideals.relative_height(ideals.generate(t, {t.index(f"(1,{name},1)")}, "right_ideal"))
            == ideals.relative_height(ideals.generate(s, {a}, "right_ideal")) + 2
            for a, name in enumerate(s.names)
        )
        expected = {"height": green.height(s, "R") + 1, "principal_law": True}
        computed = {"height": green.height(t, "R"), "principal_law": principal_law}
        cases.append(_case(f"extension {label}", expected, computed))
    return cases


def suite_null_extension(args):
    bases = [
        ("left-family-3", constructions.left_ideal_cs_family(3).semigroup),
        ("trivial", constructions.trivial_semigroup()),
        ("left-zero-2", constructions.left_zero_semigroup(2)),
    ]
    cases = []
    for label, t_sem in bases:
        fi = constructions.null_extension(t_sem)
        m = t_sem.order
        mirror = all(
            green.leq(fi.semigroup, m + a, m + b, "R") == green.leq(t_sem, a, b, "R")
            for a in range(m)
            for b in range(m)
        )
        cases.append(_family_case(f"base {label}", fi, mirror_order=mirror))
    return cases


def suite_brandt_example(args):
    s = constructions.brandt_example()
    handle = ideals.generate(s, {s.index("(1,1)")}, "right_ideal")
    ap = green.class_poset(handle, "R")
    sp = green.class_poset(s, "R")
    zero_class = sp.class_index(s.index("0"))
    expected = {
        "height_s": 2,
        "height_a": 3,
        "a_members": sorted(["(1,1)", "(1,2)", "0"]),
        "a_poset_is_3_chain": True,
        "s_poset_two_maximal_over_zero": True,
    }
    computed = {
        "height_s": sp.height,
        "height_a": ap.height,
        "a_members": sorted(handle.member_names),
        "a_poset_is_3_chain": len(ap.classes) == 3 and ap.height == 3,
        "s_poset_two_maximal_over_zero": (
            len(sp.classes) == 3
            and sp.maximal_classes() == tuple(i for i in range(3) if i != zero_class)
            and sp.minimal_classes() == (zero_class,)
        ),
    }
    return [_case("brandt-example", expected, computed)]


def suite_reference_monoids(args):
    cases = []
    for n in args.n:
        s = constructions.full_transformation_monoid(n)
        expected = {rel: n for rel in green.RELATIONS}
        computed = {rel: green.height(s, rel) for rel in green.RELATIONS}
        cases.append(_case(f"full-transformations n={n}", expected, computed))
    s = constructions.symmetric_inverse_monoid(3)
    info = green.inverse_structure(s)
    expected = {"order": 34, "kind": "inverse", "idempotent_height": 4, "height_r": 4}
    computed = {
        "order": s.order,
        "kind": info.kind,
        "idempotent_height": info.idempotent_height,
        "height_r": green.height(s, "R"),
    }
    cases.append(_case("partial-bijections n=3", expected, computed))
    return cases


def _violations(tables) -> dict:
    """Every invariant the small-order oracle asserts, on a stack of tables
    of shape (N, m, m): row -> its messages, for the rows that have any, in
    row order. A row's messages are its table-level ones, then per subset
    (increasing bitmask) and kind (ideals.IDEAL_KINDS order) a failed
    theorem bound, an exceeded sanity bound, and, where the relative height
    differs from the chain parameter, a failed proposition: for a bi-ideal
    whose every a is in a*M, and for a left ideal of regular elements."""
    arrays = ideals.subset_arrays(tables)
    facts = ideals.table_facts(tables)
    m = np.shape(tables)[1]
    height_r = arrays.chain_param[:, -1]  # M = S: the longest chain of R-classes of S
    table_checks = [
        ("H_R exceeds H_J", height_r > facts.height_j),
        ("height-1 union lemma fails", (height_r == 1) != (facts.right_union == (1 << m) - 1)),
    ]
    masks = np.arange(1, 1 << m, dtype=np.int32)
    # kind -> the proposition that makes its relative height equal its chain
    # parameter, and the [row, mask - 1] subsets that meet its premise
    propositions = {"bi_ideal": ("local-right-identity", facts.local_right),
                    "left_ideal": ("regular-left-ideal", (masks & ~facts.regular[:, None]) == 0)}
    h = arrays.relative_height
    subset_checks = []  # (message up to the subset, [row, mask - 1] fails), in message order
    for kind in ideals.IDEAL_KINDS:
        rep = ideals.bound_verdict(kind, h, arrays.chain_param)
        law = arrays.laws[kind]
        subset_checks.append((f"{rep.theorem_id} bound fails on {kind}", law & ~rep.passed))
        if rep.sanity_bound is not None:
            subset_checks.append((f"sanity bound fails on {kind}", law & (h > rep.sanity_bound)))
        if kind in propositions:
            name, premise = propositions[kind]
            subset_checks.append((f"{name} proposition fails on {kind}",
                                  law & (h != rep.chain_param) & premise))
    bad = np.any([fails for _, fails in table_checks]
                 + [fails.any(axis=1) for _, fails in subset_checks], axis=0)
    out = {}
    for row in np.flatnonzero(bad).tolist():
        hits = sorted((col, j) for j, (_, fails) in enumerate(subset_checks)
                      for col in np.flatnonzero(fails[row]).tolist())
        out[row] = [text for text, fails in table_checks if fails[row]] + [
            f"{subset_checks[j][0]} {[i for i in range(m) if (col + 1) >> i & 1]}"
            for col, j in hits]
    return out


# semigroups of order m up to isomorphism (OEIS A027851)
_ORACLE_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}


def suite_small_order_oracle(args):
    """Every check of _violations is invariant under relabelling, so one
    table per isomorphism class checks all of them; above order 3 only the
    first --samples classes are checked. Each order's tables are checked as
    one stack, with no semigroup built per table."""
    max_order, samples = args.order, args.samples
    if not 1 <= max_order <= _accel.MAX_ORDER:
        raise ValueError(f"--order must be between 1 and {_accel.MAX_ORDER}")
    if max_order >= 4 and samples == 0:
        raise ValueError("--samples must be positive when --order is 4 or more")
    cases = []
    for m in range(1, max_order + 1):
        tables = _accel.enumerate_assoc_tables(m)
        expected = {"tables": _ORACLE_COUNTS[m], "violations": 0}
        if m >= 4:
            tables = tables[:samples]
            expected["tables"] = min(samples, _ORACLE_COUNTS[m])
        bad = _violations(tables)
        computed = {"tables": int(len(tables)),
                    "violations": sum(len(messages) for messages in bad.values())}
        case = _case(f"order {m}", expected, computed)
        if bad:
            case["first_violation"] = next(iter(bad.values()))[0]
        cases.append(case)
    return cases


_SUITE_FUNCS = {
    "bi-ideal-family": suite_bi_ideal_family,
    "left-ideal-cs-family": suite_left_ideal_cs_family,
    "brandt-tower": suite_brandt_tower,
    "null-extension": suite_null_extension,
    "brandt-example": suite_brandt_example,
    "reference-monoids": suite_reference_monoids,
    "small-order-oracle": suite_small_order_oracle,
}
# the suites that read --n, with the range each runs when it is omitted
_SUITE_N_DEFAULTS = {"bi-ideal-family": "2..6", "left-ideal-cs-family": "2..8",
                     "brandt-tower": "1..4", "reference-monoids": "1..3"}


def cmd_verify(args) -> int:
    start = time.perf_counter()
    cases = _SUITE_FUNCS[args.suite](args)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    failures = sum(1 for c in cases if not c["pass"])
    print(f"suite: {args.suite}")
    for c in cases:
        print(f"case {c['id']}: {'pass' if c['pass'] else 'FAIL'}")
        if not c["pass"]:
            for key in sorted(c["expected"]):
                if c["expected"][key] != c["computed"].get(key):
                    print(f"  expected {key}: {c['expected'][key]}")
                    print(f"  computed {key}: {c['computed'].get(key)}")
    print(f"cases: {len(cases)}")
    print(f"failures: {failures}")
    print(f"elapsed_ms: {elapsed_ms}")
    if args.json:
        _write_json(
            args.json,
            {"suite": args.suite, "cases": cases, "elapsed_ms": elapsed_ms},
        )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# open-question search


def cmd_search_open1(args) -> int:
    max_order = args.max_order
    searched = 0
    best = None  # the report's "best" record; its keys are in print order
    for m in range(1, max_order + 1):
        if searched == args.budget:
            break
        tables = _accel.enumerate_assoc_tables(m)[:args.budget - searched]
        searched += len(tables)
        arrays = ideals.subset_arrays(tables)
        h = arrays.relative_height
        rep = ideals.bound_verdict("bi_ideal", h, arrays.chain_param)
        # h - bound on each bi-ideal; every table is a bi-ideal of itself
        score = np.where(arrays.laws["bi_ideal"], h - rep.bound, np.iinfo(np.int32).min)
        cols = score.argmax(axis=1)  # the first mask of each table's best score
        tops = score.max(axis=1)
        i = int(tops.argmax())  # the first table of the order's best score
        # orders only ascend, so a later table wins on a higher score alone
        if best is None or tops[i] > best["score"]:
            col = int(cols[i])
            best = {
                "score": int(tops[i]),
                "order": m,
                "relative_height": int(h[i, col]),
                "chain_param": int(rep.chain_param[i, col]),
                "target_bound": int(rep.sanity_bound[i, col]),
                "bi_ideal": [x for x in range(m) if col + 1 >> x & 1],
                "table": tables[i].tolist(),
            }
    print(f"searched_tables: {searched}")
    print(f"max_order: {max_order}")
    if best is None:
        print("best: none")
    else:
        shown = dict(best, bi_ideal=" ".join(str(i) for i in best["bi_ideal"]),
                     table=";".join(" ".join(str(x) for x in row) for row in best["table"]))
        for key, value in shown.items():
            print(f"best_{key}: {value}")
    if args.json:
        _write_json(args.json, {"searched_tables": searched, "max_order": max_order, "best": best})
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_input_flags(p):
    p.add_argument("input", help="presentation or table file")
    p.add_argument("--cap", type=_positive_int, default=rewriting.DEFAULT_CAP,
                   help="irreducible-word enumeration cap for presentation inputs")


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenheight",
        description="Finite-semigroup heights, Green's posets, and ideal bounds",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("height", help="Green's-relation heights of the input")
    _add_input_flags(p)
    p.add_argument("--relation", choices=green.RELATIONS)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("classes", help="list Green's classes")
    _add_input_flags(p)
    p.add_argument("--relation", choices=green.RELATIONS)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("poset", help="export the class poset as DOT")
    _add_input_flags(p)
    p.add_argument("--relation", choices=green.RELATIONS)
    p.add_argument("--dot", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("elements", help="list elements of the input")
    _add_input_flags(p)
    p.set_defaults(func=cmd_elements)

    p = sub.add_parser("complete", help="check presentation completeness")
    p.add_argument("input")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("bounds", help="height-bound report for a generated subset")
    _add_input_flags(p)
    p.add_argument("--kind", choices=sorted(_KIND_FLAGS), required=True)
    p.add_argument("--generators", nargs="+", required=True,
                   help="generator element names (or words, for presentations)")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    for name in _SUITE_FUNCS:
        q = suites.add_parser(name)
        if name in _SUITE_N_DEFAULTS:
            q.add_argument("--n", type=_parse_n_range, default=_SUITE_N_DEFAULTS[name],
                           help="parameter range A..B (default %(default)s)")
        if name == "small-order-oracle":
            q.add_argument("--order", type=int, default=3,
                           help=f"max order, 1 to {_accel.MAX_ORDER} (default %(default)s)")
            q.add_argument("--samples", type=_nonnegative_int, default=100_000,
                           help="at most this many isomorphism classes per order "
                                "above 3 (the default covers all)")
            q.add_argument("--seed", type=int, default=0, help="ignored")
        q.add_argument("--json", help="write the machine-readable report here")

    p = sub.add_parser(
        "search-open1",
        help="search for a bi-ideal beating the completely-simple bound",
    )
    p.add_argument("--budget", type=_nonnegative_int, default=200,
                   help="number of tables to examine, one per isomorphism class")
    p.add_argument("--max-order", type=int, default=4, choices=range(1, _accel.MAX_ORDER + 1))
    p.add_argument("--seed", type=int, default=0, help="ignored")
    p.add_argument("--json", help="write the report here")
    p.set_defaults(func=cmd_search_open1)

    # main reports a leftover argument through the innermost parser it reached
    for p in (*sub.choices.values(), *suites.choices.values()):
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            getattr(args, "parser", parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, CapExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EngineBug as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

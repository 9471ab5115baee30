"""Command-line surface: analyze presentation/table files, export posets,
check bounds, run the verification suites, and search the open question.

Output is line-oriented `key: value` facts in decimal. Exit codes: 0 for
success / all-pass, 1 for a negative or failing result, 2 for usage and
input errors (`ValueError`, `CapExceeded`, `OSError`), 3 for an internal
error: an engine invariant failed (`EngineBug`) or any other exception
escaped. Every command is deterministic for fixed input and flags; the one
exception is the elapsed_ms line of `verify`. The first declaration key
gives the input kind: `letters`, `zero` or `rule` a presentation, `order` a
table. Each `verify` suite has a sub-parser with only the flags it reads.
`verify small-order-oracle` and `search-open1` walk one table per
isomorphism class, in the order of `_accel.enumerate_assoc_tables`; both
still accept `--seed` and ignore it.
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


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}, expected an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be nonnegative, got {value}")
    return value


def _detect_input_kind(text: str) -> str:
    """The kind of the first declaration key, read as both parsers read it."""
    for raw in text.splitlines():
        head, sep, _ = raw.split("#", 1)[0].partition(":")
        key = head.strip()
        if sep and key in ("letters", "zero", "rule", "order"):
            return "table" if key == "order" else "presentation"
        if sep or key:
            break
    raise ParseError(1, 1, "input must start with 'letters:', 'zero:', 'rule:' or 'order:'")


def _load_input(args):
    """Returns (semigroup, rewriting system or None)."""
    text = Path(args.input).read_text()
    if _detect_input_kind(text) == "presentation":
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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
        Path(args.dot).write_text(dot)
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
    text = Path(args.input).read_text()
    if _detect_input_kind(text) != "presentation":
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


def _family_case(fi):
    s = fi.semigroup
    handle = fi.distinguished
    complement = sorted(set(s.names) - set(handle.member_names))
    report = ideals.bound_report(s, handle)
    expected = {
        "order": fi.expected["order"],
        "height_r": fi.expected["height_r"],
        "relative_height": fi.expected["relative_height"],
        "chain_param": fi.expected["chain_param"],
        "complement": sorted(fi.expected["excluded"]),
        "bound_pass": True,
        "bound_tight": True,
    }
    computed = {
        "order": s.order,
        "height_r": green.height(s, "R"),
        "relative_height": report.relative_height,
        "chain_param": report.chain_param,
        "complement": complement,
        "bound_pass": report.passed,
        "bound_tight": report.tight,
    }
    return expected, computed


def suite_bi_ideal_family(args):
    cases = []
    for n in args.n:
        fi = constructions.bi_ideal_family(n)
        expected, computed = _family_case(fi)
        cases.append(_case(f"n={n}", expected, computed))
    return cases


def suite_left_ideal_cs_family(args):
    cases = []
    for n in args.n:
        fi = constructions.left_ideal_cs_family(n)
        jp = green.class_poset(fi.semigroup, "J")
        single_chain = jp.height == len(jp.classes)  # a chain through every class
        expected, computed = _family_case(fi)
        expected.update(height_j=fi.expected["height_j"], single_j_chain=True)
        computed.update(height_j=jp.height, single_j_chain=single_chain)
        cases.append(_case(f"n={n}", expected, computed))
    return cases


def _principal_right_ideal_heights(s):
    """relative R-height of every aS^1, by element index."""
    out = []
    for a in range(s.order):
        handle = ideals.generate(s, {a}, "right_ideal")
        out.append(ideals.relative_height(handle))
    return out


def suite_brandt_tower(args):
    cases = []
    for n in args.n:
        fi = constructions.right_ideal_tower(n)
        expected = {
            "order": fi.expected["order"],
            "height_r": fi.expected["height_r"],
            "relative_height": fi.expected["relative_height"],
            "chain_param": fi.expected["chain_param"],
        }
        computed = {
            "order": fi.semigroup.order,
            "height_r": green.height(fi.semigroup, "R"),
            "relative_height": ideals.relative_height(fi.distinguished),
            "chain_param": ideals.chain_param(fi.semigroup, fi.distinguished),
        }
        if n == 2:
            expected["matches_brandt_example"] = True
            computed["matches_brandt_example"] = bool(
                np.array_equal(fi.semigroup.table, constructions.brandt_example().table)
            )
        cases.append(_case(f"tower n={n}", expected, computed))
    # one-step extension laws over small bases
    bases = [
        ("trivial", constructions.trivial_semigroup()),
        ("left-zero-2", constructions.left_zero_semigroup(2)),
        ("bi-family-2", constructions.bi_ideal_family(2).semigroup),
    ]
    for label, s in bases:
        t = constructions.brandt_extension(s, 2)
        base_heights = _principal_right_ideal_heights(s)
        lifted_ok = True
        for a in range(s.order):
            lifted = t.index(f"(1,{s.names[a]},1)")
            h = ideals.relative_height(ideals.generate(t, {lifted}, "right_ideal"))
            if h != base_heights[a] + 2:
                lifted_ok = False
        expected = {"height": green.height(s, "R") + 1, "principal_law": True}
        computed = {"height": green.height(t, "R"), "principal_law": lifted_ok}
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
        s, handle = constructions.null_extension(t_sem)
        m = t_sem.order
        mirror = all(
            green.leq(s, m + a, m + b, "R") == green.leq(t_sem, a, b, "R")
            for a in range(m)
            for b in range(m)
        )
        report = ideals.bound_report(s, handle)
        expected = {
            "order": 2 * m + 1,
            "relative_height": 2,
            "chain_param": green.height(t_sem, "R") + 1,
            "mirror_order": True,
            "bound_pass": True,
        }
        computed = {
            "order": s.order,
            "relative_height": report.relative_height,
            "chain_param": report.chain_param,
            "mirror_order": mirror,
            "bound_pass": report.passed,
        }
        cases.append(_case(f"base {label}", expected, computed))
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


# the table-level checks of the small-order oracle, in message order
_TABLE_MESSAGES = ("H_R exceeds H_J", "height-1 union lemma fails")
# kind -> the proposition that makes its relative height equal its chain parameter
_PROPOSITIONS = {"bi_ideal": "local-right-identity", "left_ideal": "regular-left-ideal"}


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
    table_bad = np.stack([
        facts.height_r > facts.height_j,
        (facts.height_r == 1) != (facts.right_union == (1 << m) - 1),
    ], axis=1)
    masks = np.arange(1, 1 << m, dtype=np.int32)
    premises = {"bi_ideal": facts.local_right,
                "left_ideal": (masks & ~facts.regular[:, None]) == 0}
    h = arrays.relative_height
    reports = [ideals.bound_verdict(kind, h, arrays.chain_param)
               for kind in ideals.IDEAL_KINDS]
    checks = []
    for rep in reports:
        law = arrays.laws[rep.kind]
        over_sanity = False if rep.sanity_bound is None else h > rep.sanity_bound
        premise = premises.get(rep.kind, False)
        checks.append(np.stack([law & ~rep.passed, law & over_sanity,
                                law & (h != rep.chain_param) & premise], axis=-1))
    flags = np.stack(checks, axis=2)  # [row, mask - 1, kind, check]
    bad = table_bad.any(axis=1) | flags.any(axis=(1, 2, 3))
    out = {}
    for row in np.flatnonzero(bad).tolist():
        messages = [text for text, fails in zip(_TABLE_MESSAGES, table_bad[row]) if fails]
        for col, j, check in zip(*np.nonzero(flags[row])):
            kind = reports[j].kind
            where = f"{kind} {[i for i in range(m) if (col + 1) >> i & 1]}"
            if check == 0:
                messages.append(f"{reports[j].theorem_id} bound fails on {where}")
            elif check == 1:
                messages.append(f"sanity bound fails on {where}")
            else:
                messages.append(f"{_PROPOSITIONS[kind]} proposition fails on {where}")
        out[row] = messages
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
    p.add_argument("--cap", type=int, default=rewriting.DEFAULT_CAP,
                   help="irreducible-word enumeration cap")


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

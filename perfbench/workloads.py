"""The benchmark's workloads: CLI argument lists over seeded inputs, each
with the check its output must pass.

One op is one `greenheight.cli.main(argv)` call. A workload is the fixed
list of ops that one pass runs; `build` writes the inputs it needs into a
directory and returns the list. Sizes are fixed per workload and the seed
changes only representations and sampler seeds, so a pass costs about the
same for every seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# presentations: (family, n, multi-character letter tokens) -> ops on that
# file; n and the token style are fixed so every seed costs the same, and
# the verify suites run at large n. `complete` takes a few ms, so it runs on
# two files only: the pooled op median then falls on `bounds` of bi n=16,
# not on the cheaper `height`, whose cost moves more with the seed.
PRESENTATION_OPS = {
    ("bi", 16, False): ("height", "bounds"),
    ("bi", 20, True): ("complete", "bounds"),
    ("left", 24, True): ("height",),
    ("left", 40, False): ("complete", "bounds"),
}
VERIFY_BI_N = 20
VERIFY_LEFT_N = 40
# large-tables: table -> ops. Tower depth 5 gives order 341 > 256, the
# sampled associativity branch of the table constructor. A tower op costs
# about 2.3 s, four times any other op, so the tower gets one, `bounds`,
# which builds its J poset through `kernel`: the tail sample then falls
# among the `T4` ops and `verify reference-monoids`, not at the edge of a
# cluster of tower samples. Four ops cost more than the three on the
# bi-family table (about 0.22 s each) and four cost less, so the pooled op
# median falls in the middle of those three: I3 (order 34, a few ms per op)
# gets `poset` only.
TOWER_N = 5
BI_TABLE_N = 16
TABLE_OPS = {
    f"tower{TOWER_N}": ("bounds",),
    "T4": ("height", "classes"),
    "I3": ("poset",),
    f"bi{BI_TABLE_N}": ("height", "classes", "poset"),
}
# small-search: the searches and the order-3 oracle (about 0.4 s each)
# hold the pooled op median inside their cluster, and the order-4 oracles
# (about 0.85 s) the tail sample inside theirs. The seed moves the cost of
# a search or an oracle by up to 1.5x, through the tables it samples, so
# many ops make a steadier pass.
SEARCHES = 8
SEARCH_BUDGET = 200
ORACLES = 5
ORACLE_SAMPLES = 50
# every table of orders 1-3, which each oracle enumerates: 1 + 8 + 113
ORDER3_TABLES = 122
# tables one small-search pass examines; the checks pin every term
# (searched_tables equals the budget, and each oracle case passes only when
# it examined the expected number of tables)
TABLES_PER_PASS = (SEARCHES * SEARCH_BUDGET + ORACLES * (ORDER3_TABLES + ORACLE_SAMPLES)
                   + ORDER3_TABLES)


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple
    check: Callable[[str], list]  # stdout -> problems found; the exit code must be 0


def facts_of(stdout: str) -> dict:
    """The `key: value` lines of a command's output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key and not key.startswith(" "):
            out[key] = value
    return out


def _expect(stdout: str, wanted: dict) -> list:
    got = facts_of(stdout)
    return [f"{k}: expected {v!r}, got {got.get(k)!r}"
            for k, v in wanted.items() if got.get(k) != str(v)]


def _bound_check(facts: dict, kind: str):
    wanted = {"kind": kind, "theorem": facts["theorem"],
              "relative_height": facts["relative_height"],
              "chain_param": facts["chain_param"], "bound": facts["bound"],
              "pass": "true", "tight": "true"}
    return lambda out: _expect(out, wanted)


def _height_check(facts: dict):
    keys = {"R": "height_r", "L": "height_l", "J": "height_j", "H": "height_h"}
    wanted = {rel: facts[k] for rel, k in keys.items() if k in facts}
    return lambda out: _expect(out, wanted)


def _classes_check(facts: dict):
    """J classes partition every element exactly once; count where known."""

    def check(out):
        got = facts_of(out)
        problems = _expect(out, {"relation": "J"})
        members = [m for k, v in got.items() if re.fullmatch(r"c\d+", k)
                   for m in v.strip("{}").split(", ")]
        if str(len(members)) != str(facts["order"]) or len(set(members)) != len(members):
            problems.append(f"classes do not partition {facts['order']} elements")
        if got.get("classes") != str(sum(1 for k in got if re.fullmatch(r"c\d+", k))):
            problems.append("class count disagrees with the listed classes")
        if "j_classes" in facts:
            problems += _expect(out, {"classes": facts["j_classes"], "height": facts["j_classes"]})
        return problems

    return check


def _dot_check(path: Path, facts: dict):
    def check(out):
        if out:
            return ["poset --dot printed to stdout"]
        text = path.read_text()
        nodes = len(re.findall(r"^  c\d+ \[label=", text, re.M))
        problems = [] if text.startswith("digraph J_classes {") else ["bad DOT header"]
        if "j_classes" in facts and nodes != facts["j_classes"]:
            problems.append(f"DOT has {nodes} nodes, expected {facts['j_classes']}")
        return problems

    return check


def _verify_check(cases: int):
    return lambda out: _expect(out, {"cases": cases, "failures": 0})


def presentations(seed: int, workdir: Path):
    makers = {"bi": gen.bi_ideal_presentation, "left": gen.left_ideal_presentation}
    ops = []
    for (family, n, multi_char), wanted in PRESENTATION_OPS.items():
        p = makers[family](n, gen.seeded("presentations", seed, family, n), multi_char)
        f = p.facts
        tag = f"{family}{n}"
        path = workdir / f"{tag}.pres"
        path.write_text(p.text)
        choices = {
            "complete": Op(f"complete {tag}", ("complete", str(path)),
                           lambda out, f=f: _expect(out, {"rules": f["rules"], "complete": "true"})),
            "height": Op(f"height {tag}", ("height", str(path)), _height_check(f)),
            "bounds": Op(f"bounds {tag}",
                         ("bounds", str(path), "--kind", family, "--generators", *p.generators),
                         _bound_check(f, f"{family}_ideal")),
        }
        ops += [choices[w] for w in wanted]
    ops.append(Op(f"verify bi-ideal-family n={VERIFY_BI_N}",
                  ("verify", "bi-ideal-family", "--n", str(VERIFY_BI_N)), _verify_check(1)))
    ops.append(Op(f"verify left-ideal-cs-family n={VERIFY_LEFT_N}",
                  ("verify", "left-ideal-cs-family", "--n", str(VERIFY_LEFT_N)), _verify_check(1)))
    return ops


def large_tables(seed: int, workdir: Path):
    tables = {
        f"tower{TOWER_N}": (gen.tower_table(TOWER_N, gen.seeded("large-tables", seed, "tower")),
                            "right"),
        "T4": (gen.transformation_table(4, gen.seeded("large-tables", seed, "T4")), None),
        "I3": (gen.partial_bijection_table(3, gen.seeded("large-tables", seed, "I3")), None),
        f"bi{BI_TABLE_N}": (gen.bi_ideal_table(BI_TABLE_N, gen.seeded("large-tables", seed, "bi")),
                            None),
    }
    ops = []
    for tag, (t, kind) in tables.items():
        path = workdir / f"{tag}.table"
        path.write_text(t.text)
        dot = workdir / f"{tag}.J.dot"
        choices = {
            "height": Op(f"height {tag}", ("height", str(path)), _height_check(t.facts)),
            "classes": Op(f"classes J {tag}", ("classes", str(path), "--relation", "J"),
                          _classes_check(t.facts)),
            "poset": Op(f"poset J {tag}", ("poset", str(path), "--relation", "J", "--dot", str(dot)),
                        _dot_check(dot, t.facts)),
        }
        if kind:
            choices["bounds"] = Op(
                f"bounds {tag}", ("bounds", str(path), "--kind", kind, "--generators", *t.generators),
                _bound_check(t.facts, f"{kind}_ideal"))
        ops += [choices[w] for w in TABLE_OPS[tag]]
    ops += [
        Op("verify brandt-tower", ("verify", "brandt-tower", "--n", f"1..{TOWER_N}"),
           _verify_check(TOWER_N + 3)),
        Op("verify reference-monoids", ("verify", "reference-monoids", "--n", "1..4"),
           _verify_check(5)),
        Op("verify null-extension", ("verify", "null-extension"), _verify_check(3)),
        Op("verify brandt-example", ("verify", "brandt-example"), _verify_check(1)),
    ]
    return ops


def _search_check(budget: int):
    def check(out):
        got = facts_of(out)
        problems = _expect(out, {"searched_tables": budget})
        # every table has S itself as a bi-ideal, so a score is always printed
        if not re.fullmatch(r"-?\d+", got.get("best_score", "")):
            problems.append(f"best_score missing or not a number: {got.get('best_score')!r}")
        elif int(got["best_score"]) > 0:
            problems.append(f"best_score {got['best_score']} beats the bound")
        return problems

    return check


def small_search(seed: int, workdir: Path):
    rng = gen.seeded("small-search", seed)
    ops = []
    for k in range(SEARCHES):
        ops.append(Op(f"search-open1 #{k}",
                      ("search-open1", "--max-order", "4", "--budget", str(SEARCH_BUDGET),
                       "--seed", str(rng.randrange(1 << 20))),
                      _search_check(SEARCH_BUDGET)))
    for k in range(ORACLES):
        ops.append(Op(f"verify small-order-oracle order=4 #{k}",
                      ("verify", "small-order-oracle", "--order", "4", "--samples",
                       str(ORACLE_SAMPLES), "--seed", str(rng.randrange(1 << 20))),
                      _verify_check(4)))
    ops.append(Op("verify small-order-oracle order=3",
                  ("verify", "small-order-oracle", "--order", "3"), _verify_check(3)))
    return ops


BUILDERS = {"presentations": presentations, "large-tables": large_tables,
            "small-search": small_search}

# Seconds one untraced pass takes on the reference machine at its usual
# speed (times divided by calib.speed). An untraced run makes a fixed number
# of passes, so that it lasts --seconds at that speed and pools the same
# number of op samples on every commit and in every stretch of the machine:
# the ranks of op_p50_ms and op_tail_ms do not move, and each falls inside
# a cluster of ops of similar cost (see the op lists above).
PASS_S = {"presentations": 5.7, "large-tables": 4.9, "small-search": 8.0}
MIN_PASSES = 4


def passes(name: str, seconds: float) -> int:
    """Untraced passes in a run of `seconds` on workload `name`."""
    return max(MIN_PASSES, round(seconds / PASS_S[name]))


def build(name: str, seed: int, workdir: Path):
    """Write the workload's inputs under workdir and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)

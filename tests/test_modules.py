"""The package's modules read each other's public names only, and every
source file of the project parses as Python 3.10."""

import ast
from pathlib import Path

import greenheight

PACKAGE = Path(greenheight.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(text, own):
    """(line, module, name) for each underscore name of another package
    module that the source text of module `own` reads: `from .mod import
    _name`, or `mod._name` where `from . import mod` bound mod."""
    tree = ast.parse(text)
    bound, out = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is None and alias.name in MODULES - {own}:
                bound[alias.asname or alias.name] = alias.name
            elif node.module in MODULES - {own} and _is_private(alias.name):
                out.append((node.lineno, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _is_private(node.attr)):
            out.append((node.lineno, bound[node.value.id], node.attr))
    return sorted(out)


def test_private_reads_finds_both_forms():
    text = ("from . import core, rewriting as rw\nfrom .green import _below, leq\n"
            "rw._first(core.KINDS, core.__name__)\n")
    assert private_reads(text, "cli") == [(2, "green", "_below"), (3, "rewriting", "_first")]


def test_modules_read_no_private_name_of_another_module():
    found = {p.name: private_reads(p.read_text(), p.stem) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml's requires-python floor, which the CI's 3.10 leg runs;
    # a syntax check only: a 3.11-only import such as tomllib passes it
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for p in paths:
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p), feature_version=(3, 10))

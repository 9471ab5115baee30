"""README's Python snippets run as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_print_what_their_comments_promise(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0][:2] == ["7", "2"]  # order, R-height
    assert printed[1] == ["((0,), (1,), (2,))", "1"]  # R-classes, R-height

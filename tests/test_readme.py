"""README.md stays true to the package: its library example runs and prints
what its comment states, and it names every module and subcommand."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from adipsim import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _library_example() -> str:
    section = README[README.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_what_its_comment_states():
    code = _library_example()
    stated = re.search(r"print\(.*\)\s*#\s*([\d ]+?)\s*:", code).group(1)
    assert stated == "16 2032"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == stated.split()


def test_readme_names_every_module():
    modules = sorted(p.stem for p in (ROOT / "src" / "adipsim").glob("*.py") if p.stem != "__init__")
    assert modules
    assert [m for m in modules if f"`adipsim.{m}`" not in README] == []


def test_readme_names_every_subcommand():
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = sorted(subparsers.choices)
    assert commands
    assert [c for c in commands if not re.search(rf"^adipsim {c}\b", README, re.MULTILINE)] == []

import argparse
import re
from pathlib import Path

from nepritz.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["ritz"].nonunique_flag
    assert namespace["refined"].sigma_hat_1 <= 1e-12
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("True") for line in lines)


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    found = set()
    for action in parser._actions:
        found.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _long_options(sub)
    return found


def test_command_line_section_names_exactly_the_parser_options():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    assert documented == _long_options(build_parser()) - {"--help"}

import argparse
import ast
import re
import types
from pathlib import Path

import nepritz
from nepritz.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# what `import nepritz` gives: the README's "Public API" list
PUBLIC_API = frozenset({
    "MatrixFunction", "Polynomial", "Rational", "Exponential", "ReferencePair",
    "eval_T", "eval_T_many", "load_problem", "save_problem",
    "Subspace", "project", "deviation",
    "solve_projected", "select_ritz_value", "SpectrumResult",
    "ritz_vector", "refined_vector", "ritz_residual_for", "sin_angle",
    "RitzExtraction", "RefinedExtraction",
    "analyze_case", "CaseResult", "BoundReport", "sigma_min_profile",
    "fixture_problem", "build_subspace_eps", "perturb_subspace", "random_planted_nep",
    "builtin_suite",
    "simple_rate_instance", "defective_rate_instance", "defective_rate_subspace",
    "run_example1", "run_example1_target", "run_example2", "run_sweep", "verify_all",
    "svd", "singular_values", "norm2",
    "NepRitzError",
})


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


def test_package_exports_exactly_the_public_api():
    exported = {name for name, value in vars(nepritz).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_API) == 42
    assert exported == PUBLIC_API
    assert nepritz.eval_T is nepritz.nep_model.eval_T


def test_public_api_section_lists_exactly_the_exports():
    section = README.read_text().split("### Public API", 1)[1].split("\n#", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) == PUBLIC_API


def _top_level_imports(path: Path) -> set[str]:
    """Names a script takes from the top level: `from nepritz import ...`."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "nepritz"
            for alias in node.names}


def test_quick_start_demos_and_benchmark_use_only_the_public_api():
    used = {("README quick start", name)
            for name in re.findall(r"\bnr\.(\w+)", quick_start_code())}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= {(demo.name, name) for name in re.findall(r"\bnr\.(\w+)", demo.read_text())}
    workloads = ROOT / "perfbench" / "workloads.py"
    used |= {(workloads.name, name) for name in _top_level_imports(workloads)}
    assert len({name for _, name in used}) > 20
    assert {(where, name) for where, name in used if name not in PUBLIC_API} == set()

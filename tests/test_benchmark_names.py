"""The names the benchmark reads from the package exist where it looks for them.

perfbench/run.py reports one span per bound evaluator (EVALUATORS) and
perfbench/tracer.py wraps a few methods (METHODS).  A name renamed in the
package but not there would not fail the benchmark: the span would never
open and its metric would read 0.  The two tables are read from the source
with ast, so this test imports nothing from perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import nepritz.bounds_lab as bl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_table(filename: str, name: str):
    """The literal value assigned to name at the top level of perfbench/filename."""
    tree = ast.parse((PERFBENCH / filename).read_text(), filename)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} assigns no {name}")


EVALUATORS = perfbench_table("run.py", "EVALUATORS")
METHODS = perfbench_table("tracer.py", "METHODS")


def test_tables_are_not_empty():
    assert len(EVALUATORS) >= 9 and ("projection", "Subspace", "from_basis") in METHODS


@pytest.mark.parametrize("name", EVALUATORS)
def test_each_evaluator_is_a_function_of_bounds_lab(name):
    fn = getattr(bl, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == "nepritz.bounds_lab", name


@pytest.mark.parametrize("layer,cls_name,method", METHODS)
def test_each_traced_method_is_its_class_own(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"nepritz.{layer}"), cls_name)
    assert method in cls.__dict__, f"{layer}.{cls_name}.{method}"
    if method in ("from_basis", "from_terms"):
        assert isinstance(cls.__dict__[method], classmethod)

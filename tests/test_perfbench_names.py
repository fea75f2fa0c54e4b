"""Every gyrofde name that perfbench's tracer wraps exists.

The test suite never installs the tracer, so a renamed or deleted name would
only fail ``perfbench/run.py --trace 1``, in ``Instrumentation.install``.  The
tables are read from the source, without importing or editing perfbench.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
FUNCTIONS = [(mod, name) for table in ("SPANNED", "COUNTED")
             for mod, names in TABLES[table].items() for name in names]


def test_the_three_tables_are_read():
    assert FUNCTIONS and TABLES["METHODS"]


@pytest.mark.parametrize("mod, name", FUNCTIONS, ids=lambda v: v)
def test_wrapped_function_is_a_callable_of_its_module(mod, name):
    assert callable(getattr(importlib.import_module(mod), name, None))


@pytest.mark.parametrize("mod, cls, meth", TABLES["METHODS"], ids=lambda v: v)
def test_wrapped_method_is_in_its_class_dict(mod, cls, meth):
    assert meth in vars(getattr(importlib.import_module(mod), cls))

"""Source hygiene checks that need no lint tool, only the stdlib ``ast``.

Every module of the package must use each name it imports: an import that
outlives the code that needed it is dead weight and hides which modules
really depend on which.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rpusim
from rpusim import STRATEGY_ORDER, Strategy
from rpusim.plans import _BUILDERS

MODULES = sorted(Path(rpusim.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, each with its line.

    A name read anywhere in the module (annotations included) counts as
    used, and so does a name listed in a literal ``__all__``, which is how
    a package re-exports it.  ``from __future__`` imports are directives,
    not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_package_has_modules():
    assert {path.name for path in MODULES} >= {"__init__.py", "simulate.py", "plans.py", "cost.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_what_a_module_never_reads():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import NamedTuple\n"
        "from .plans import _host_ops, check_plan, compile_plan as lower\n"
        "from .model import Plan\n"
        "__all__ = ['NamedTuple']\n"
        "def f(plan: Plan) -> float:\n"
        "    return math.inf if check_plan(plan, None) else os.path.sep\n"
    )
    assert unused_imports(source) == ["_host_ops (line 5)", "lower (line 5)"]


def test_every_strategy_has_exactly_one_builder_table_entry():
    """A strategy is one ``Strategy`` member plus one entry of the table
    that ``enumerate_plans`` builds from and ``strategy_plan`` takes its
    not-applicable message from."""
    assert list(_BUILDERS) == list(Strategy) == list(STRATEGY_ORDER)
    for strategy, (build, message) in _BUILDERS.items():
        assert callable(build), strategy
        assert message is None or message.startswith("strategy {} "), strategy


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in rpusim.__all__ if not hasattr(rpusim, name)] == []
    namespace: dict = {}
    exec("from rpusim import *", namespace)
    assert set(rpusim.__all__) <= namespace.keys()


def test_all_lists_exactly_the_public_names_the_package_imports():
    tree = ast.parse(Path(rpusim.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert len(set(rpusim.__all__)) == len(rpusim.__all__)
    assert sorted(rpusim.__all__) == sorted(name for name in imported if not name.startswith("_"))

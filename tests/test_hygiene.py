"""Source hygiene checks that need no lint tool, only the stdlib ``ast``.

Every module of the package must use each name it imports: an import that
outlives the code that needed it is dead weight and hides which modules
really depend on which.  Likewise every private module-level name must be
read by some module of the package: a helper, table or constant that
outlives its last caller is dead code.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (``_x``, not ``__x__``) bound at module level in
    ``sources`` (module name to source) that no module reads, each as
    ``module._x (line n)``.

    A name counts as read where its own module loads it, where a module
    imports it from its module (``from .m import _x``), and where any
    module reads an attribute of that name.
    """
    defined: dict[tuple[str, str], int] = {}
    read: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[module, node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[module, name.id] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names)
    return [
        f"{module}.{name} (line {line})"
        for (module, name), line in sorted(defined.items())
        if name.startswith("_") and not name.startswith("__") and (module, name) not in read and name not in attributes
    ]


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


def test_every_private_module_level_name_is_read():
    assert unread_private_names({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_unread_private_names_finds_what_no_module_reads():
    sources = {
        "a": (
            "import math\n"
            "_LOCAL = 1\n"
            "_IMPORTED: int = 2\n"
            "_ATTR, _UNREAD_TOO = 3, 4\n"
            "__all__ = []\n"
            "def _unread():\n"
            "    _shadow = _LOCAL\n"
            "    return _shadow\n"
            "class _Cls:\n"
            "    _field = 0\n"
        ),
        "b": (
            "from .a import _IMPORTED\n"
            "from .c import _Cls\n"
            "_STORED = None\n"
            "_STORED = object()._ATTR\n"
        ),
    }
    assert unread_private_names(sources) == [
        "a._Cls (line 9)",
        "a._UNREAD_TOO (line 4)",
        "a._unread (line 6)",
        "b._STORED (line 4)",
    ]


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

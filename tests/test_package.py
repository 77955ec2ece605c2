import ast
import importlib
from pathlib import Path

import pytest

import cellsim

from test_cli import run_in_fresh_process


@pytest.mark.parametrize("module, forbidden", [
    ("cellsim", "numpy"), ("cellsim.cli", "numpy"),
    # the value types are plain slotted classes: no dataclass machinery on the CLI path
    ("cellsim.cli", "dataclasses"), ("cellsim.cli", "inspect")])
def test_import_loads_no_numpy(module, forbidden):
    out = run_in_fresh_process("import sys, %s; print(%r in sys.modules)" % (module, forbidden))
    assert out == "False\n"


@pytest.mark.parametrize("name", sorted(cellsim._LAZY))
def test_lazy_name_is_its_modules_object(name):
    module = importlib.import_module("cellsim." + cellsim._LAZY[name])
    assert getattr(cellsim, name) is getattr(module, name)
    assert name in vars(cellsim)  # cached, so the hook runs once per name


def test_dir_lists_lazy_names():
    listed = dir(cellsim)
    assert set(cellsim._LAZY) <= set(listed)
    assert {"Hypervisor", "enable", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'cellsim' has no attribute 'no_such_name'"):
        cellsim.no_such_name


def test_readme_library_use_block_prints_what_it_shows(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1.3125 us via reinjected\n"
    assert block.endswith("\n# 1.3125 us via reinjected\n")


# --- source hygiene, checked with the standard library alone ----------------

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_COLUMNS = 100


def _names_in_string_annotations(tree) -> set:
    """The names that annotations written as strings, such as "Hypervisor", mention."""
    names = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names.update(name.id for name in ast.walk(ast.parse(part.value, mode="eval"))
                                 if isinstance(name, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(
    path.name for path in (SRC / "cellsim").glob("*.py") if path.name != "__init__.py"))
def test_a_module_imports_no_name_it_leaves_unused(name):
    tree = ast.parse((SRC / "cellsim" / name).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"}  # a __future__ flag
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _names_in_string_annotations(tree)) == []


def test_no_source_line_is_longer_than_the_limit():
    long = ["%s:%d" % (path.relative_to(SRC), lineno)
            for path in sorted(SRC.rglob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []

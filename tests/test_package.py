import importlib

import pytest

import cellsim

from test_cli import run_in_fresh_process


def test_import_loads_no_numpy():
    out = run_in_fresh_process("import sys, cellsim; print('numpy' in sys.modules)")
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

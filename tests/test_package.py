"""The package's lazy exports: each name loads its module on first access."""

import subprocess
import sys

import pytest

import staircase_lab


@pytest.mark.parametrize("name", staircase_lab.__all__)
def test_export_is_the_object_of_its_defining_module(name):
    value = getattr(staircase_lab, name)
    module = value.__module__
    assert module.startswith("staircase_lab.")
    assert getattr(sys.modules[module], name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from staircase_lab import *", namespace)
    assert {name: namespace[name] for name in staircase_lab.__all__} == {
        name: getattr(staircase_lab, name) for name in staircase_lab.__all__
    }


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        staircase_lab.no_such_name  # noqa: B018
    assert not hasattr(staircase_lab, "enumerate_hilbert_functions")


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, staircase_lab\n"
        "print(sorted(m for m in sys.modules if m.startswith('staircase_lab.')))\n"
        "staircase_lab.HilbertFunction\n"
        "print(sorted(m for m in sys.modules if m.startswith('staircase_lab.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.splitlines() == ["[]", "['staircase_lab.errors', 'staircase_lab.hilbert']"]

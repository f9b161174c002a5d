"""Package hygiene: every export resolves, and the CLI needs no third-party code."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import scdforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(scdforge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"scdforge.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_module_exports():
    for name, value in vars(scdforge).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in sys.modules[value.__module__].__all__, name


def test_cli_imports_no_jsonschema():
    src = os.path.dirname(os.path.dirname(scdforge.__file__))
    probe = "import scdforge.cli, sys; print('jsonschema' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

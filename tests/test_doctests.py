"""Runs the examples embedded in the docstrings of every nmshom module."""

import doctest
import importlib
import pkgutil

import pytest

import nmshom

MODULES = sorted(info.name for info in pkgutil.iter_modules(nmshom.__path__, "nmshom."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0

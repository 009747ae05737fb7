"""The examples in the package's docstrings run as doctests."""
import doctest
import importlib
import pkgutil

import pytest

import cherednik

MODULES = ["cherednik", *sorted(info.name for info in
                                 pkgutil.iter_modules(cherednik.__path__, "cherednik."))]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed in {name}"


def test_polynomials_runs_its_doctests():
    import cherednik.polynomials
    assert doctest.testmod(cherednik.polynomials).attempted >= 8

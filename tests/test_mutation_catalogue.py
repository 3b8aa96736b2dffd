"""The mutation catalogue of tests/mutate.py still matches the code it mutates.

Runs no mutant: each entry's snippet must occur once in its module and its
edit must change the AST, and each test it names must exist, so a change to
the code or the tests cannot leave an entry that would only fail when the
catalogue is next run.
"""

import ast
import functools

import pytest

import mutate


@functools.cache
def _source(path: str) -> str:
    return (mutate.ROOT / path).read_text(encoding="utf-8")


@functools.cache
def _test_names(path: str) -> frozenset:
    """The module-level functions of a test file."""
    return frozenset(node.name for node in ast.parse(_source(path)).body
                     if isinstance(node, ast.FunctionDef))


@pytest.mark.parametrize("mutant", mutate.CATALOGUE, ids=lambda m: m.name)
def test_each_mutant_edits_its_module_once_and_names_tests_that_exist(mutant):
    mutate.mutate(_source(f"src/speclab/{mutant.module}"), mutant)
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (mutate.ROOT / path).is_file() and (not name or name in _test_names(path)), test


def test_mutant_names_are_unique():
    names = [m.name for m in mutate.CATALOGUE]
    assert len(names) == len(set(names))

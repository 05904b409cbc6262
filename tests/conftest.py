import dataclasses
import inspect
import time

import pytest


@pytest.fixture(scope="session")
def check_result():
    """check_result(check): the CheckResult of a verify check at its defaults,
    timed as `verify.run` times it, run once per session however many tests
    read it."""
    results = {}

    def result_of(check):
        if check not in results:
            start = time.perf_counter()
            results[check] = dataclasses.replace(check(), seconds=time.perf_counter() - start)
        return results[check]

    return result_of


@pytest.fixture
def mutant():
    """mutant(fn, old, new): fn rebuilt from its source with the one
    occurrence of old replaced by new, run in fn's module namespace."""

    def build(fn, old, new):
        source = inspect.getsource(fn)
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), fn.__globals__, namespace)
        return namespace[fn.__name__]

    return build

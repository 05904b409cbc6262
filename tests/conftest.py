import dataclasses
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

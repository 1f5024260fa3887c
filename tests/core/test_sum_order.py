"""The pinned solutions do not depend on how the interpreter adds floats.

Python 3.12's builtin ``sum`` compensates float rounding (Neumaier's
algorithm); 3.11's adds left to right, and the pins were recorded that
way.  Every float sum that reaches a solution therefore adds left to
right explicitly.  These tests re-run the solution pins of
``test_iid_pin`` and ``test_gilbert_pin`` with ``builtins.sum``
replaced by the compensated algorithm, and require the recorded digests.
"""

from __future__ import annotations

import functools
import math
from unittest import mock

import pytest
import test_gilbert_pin as gilbert_pin
import test_iid_pin as iid_pin


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it: ints exactly, a run of floats
    with Neumaier compensation, anything else left to right."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                partial = total + item
                if abs(total) >= abs(item):
                    compensation += (total - partial) + item
                else:
                    compensation += (item - partial) + total
                total = partial
                continue
            if type(item) in (int, bool) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_not_left_to_right():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0
    assert functools.reduce(lambda a, b: a + b, tenths, 0.0) == 0.9999999999999999
    assert compensated_sum(range(5), 10) == 20
    assert compensated_sum([[1], [2]], []) == [1, 2]


def _compensated():
    return mock.patch("builtins.sum", compensated_sum)


@pytest.mark.parametrize(
    ("case", "path"),
    iid_pin.PIN_CASES,
    ids=[f"{iid_pin.case_id(c)}-{p}" for c, p in iid_pin.PIN_CASES],
)
def test_iid_solutions_hold_under_compensated_sum(case, path):
    with _compensated():
        iid_pin.test_solutions_are_pinned(case, path)


@functools.lru_cache(maxsize=None)
def _gilbert_solved(family, path):
    """``test_gilbert_pin``'s solutions, solved afresh under the
    compensated ``sum`` (its own memo holds the plain solves)."""
    with _compensated():
        return gilbert_pin._solved.__wrapped__(family, path)


@pytest.mark.parametrize("path", gilbert_pin.PATHS)
@pytest.mark.parametrize("case", gilbert_pin.CASES, ids=gilbert_pin.case_id)
def test_gilbert_solutions_hold_under_compensated_sum(case, path):
    family, protocol, channel = case
    solved = _gilbert_solved(family, path)
    with _compensated():
        fields = [
            gilbert_pin.solution_fields(family, solved[task])
            for task in gilbert_pin._case_tasks(family, protocol, channel)
        ]
    assert gilbert_pin.digest(fields) == gilbert_pin.PINNED[gilbert_pin.case_id(case)]

"""classify's certified basis check gives the outcome of the check on every row.

convhom.classify checks only the rows that the Hyers-Ulam bound does not
certify, and the whole table only where that fails.  The property compares it
with helpers.naive_classify, which checks the whole table first, bit for bit:
the same classification, or the same error with the same details and report.
"""

import numpy as np
import pytest

from convalg import Group, Operator, classify, construct

from helpers import naive_classify, outcome

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-12, -3), tol=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-7]))
def test_one_planted_defect_classifies_as_the_full_check_does(n, seed, exponent, tol):
    rng = np.random.default_rng(seed)
    support = sorted(int(e) for e in np.flatnonzero(rng.random(n) < 0.7))
    table = construct(Group(n), support, {e: int(rng.integers(n)) for e in support}).table.copy()
    eta, k = rng.integers(n, size=2)
    table[eta, k] += 10.0 ** exponent * np.exp(2j * np.pi * rng.random())
    T = Operator.from_table(Group(n), table)
    assert outcome(classify, T, tol) == outcome(naive_classify, T, tol)

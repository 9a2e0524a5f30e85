"""The basis check reads only the upper triangle of the character residuals.

On an abelian group the residual of (k, l) equals that of (l, k), so the worst
pair and the first failing pair in row-major order lie on or above the
diagonal.  Each property compares check_conv_homomorphism's basis mode with the
naive oracle read over its upper triangle (k <= l), bit for bit.
"""

import math

import numpy as np
import pytest

from convalg import Group, Operator, check_conv_homomorphism

from helpers import naive_character_residuals

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

TOL = 1e-9


@st.composite
def groups(draw) -> Group:
    """A cyclic or product group of order at most 64."""
    factors = [draw(st.integers(1, 64))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(draw(st.integers(1, 64 // math.prod(factors))))
    return Group(tuple(factors))


def bits(x: float):
    """x's bit pattern, or "nan" for any NaN."""
    return "nan" if math.isnan(x) else np.float64(x).view(np.uint64)


def assert_matches_upper_oracle(table: np.ndarray, g: Group) -> np.ndarray:
    """The basis check against the oracle's upper triangle; returns the oracle."""
    with np.errstate(over="ignore", invalid="ignore"):
        naive = naive_character_residuals(table, g)
    upper = np.triu_indices(g.order)                # in row-major order
    res = naive[upper]
    failing = np.flatnonzero(~(res <= TOL))
    rep = check_conv_homomorphism(Operator.from_table(g, table), "basis", tol=TOL)
    assert rep.passed is (failing.size == 0)
    assert bits(rep.max_residual) == bits(res.max())
    if failing.size:
        i = failing[0]
        f, h = rep.witness.inputs
        pair = (int(np.argmax(f.values != 0)), int(np.argmax(h.values != 0)))
        assert pair == (upper[0][i], upper[1][i])
        assert bits(rep.witness.residual) == bits(res[i])
    return naive


def characters(g: Group, rng: np.random.Generator) -> np.ndarray:
    """n rows, each a random character of g or zero, so that rows repeat."""
    n = g.order
    rows = np.array(Operator.dft(g).table)[rng.integers(n, size=n)]
    rows[rng.random(n) < 0.2] = 0.0
    return rows


SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(g=groups(), seed=st.integers(0, 2 ** 32 - 1), planted=st.integers(1, 3),
       size=st.sampled_from([1e-3, 3e-9, 1e-10]))
def test_planted_entries(g, seed, planted, size):
    rng = np.random.default_rng(seed)
    table = characters(g, rng)
    for _ in range(planted):
        table[tuple(rng.integers(g.order, size=2))] += size
    assert_matches_upper_oracle(table, g)


@SETTINGS
@given(g=groups(), seed=st.integers(0, 2 ** 32 - 1))
def test_overflowing_entry(g, seed):
    rng = np.random.default_rng(seed)
    table = characters(g, rng)
    table[tuple(rng.integers(g.order, size=2))] = 1e300
    naive = assert_matches_upper_oracle(table, g)
    assert np.isnan(naive).any()


@SETTINGS
@given(m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_failing_pairs_only_on_the_diagonal(m, seed):
    # on (Z/2)^m every k is its own negative, so a row delta_0 fails
    # h(k + l) = h(k) h(l) exactly at the pairs (k, k) with k != 0
    g = Group((2,) * m)
    rng = np.random.default_rng(seed)
    table = characters(g, rng)
    table[rng.integers(g.order, size=rng.integers(1, g.order + 1))] = np.eye(g.order)[0]
    naive = assert_matches_upper_oracle(table, g)
    failing = np.argwhere(~(naive <= TOL))
    assert failing.size and (failing[:, 0] == failing[:, 1]).all()

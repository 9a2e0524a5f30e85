import numpy as np
import pytest

from convalg import (Group, Operator, PhaseSpaceFunction, PlaneGrid, Signal, convolve, delta,
                     dft, idft, pointwise_mul)
from convalg.errors import GroupMismatch
from convalg.groups import nearest_characters, snap_characters, unit_roots
from convalg.operators import apply_each

from helpers import direct_convolve, direct_dft, disc_signal, naive_snap_characters

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def sig(group, values):
    return Signal(group, values)


class TestConstruction:
    def test_group_order(self):
        assert Group(6).order == 6
        assert Group((2, 3, 4)).order == 24

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Group(0)
        with pytest.raises(ValueError):
            Group(())

    def test_canonical_indexing(self):
        g = Group((2, 3))
        assert g.index((1, 2)) == 5
        assert g.index((3, 5)) == g.index((1, 2))
        assert g.element(5) == (1, 2)

    def test_signal_length_checked(self):
        with pytest.raises(ValueError):
            Signal(Group(3), [1, 2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Signal(Group(2), [1.0, np.nan])
        with pytest.raises(ValueError):
            Signal(Group(2), [np.inf, 0.0])

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
                                     complex(0, -np.inf), complex(-np.inf, np.nan),
                                     complex(-np.inf, 0), complex(0, np.inf)])
    def test_nonfinite_part_rejected_everywhere(self, bad):
        # complex isfinite holds only when both parts are finite
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            Signal(Group(3), [1.0, bad, 2j])
        with pytest.raises(ValueError, match="^operator table entries must be finite$"):
            Operator.from_table(Group(2), [[1, 0], [bad, 1]])
        with pytest.raises(ValueError, match="^stacked signal values must be finite$"):
            apply_each(Operator.identity(Group(2)), [[0, 0], [0, bad]])
        with pytest.raises(ValueError, match="^table values must be finite$"):
            PhaseSpaceFunction(PlaneGrid(1.0, 2), [[0, bad], [0, 0]])

    def test_values_immutable(self):
        a = delta(Group(4), 1)
        with pytest.raises(ValueError):
            a.values[0] = 5.0


class TestDelta:
    def test_delta_at_zero(self):
        assert list(delta(Group(4), 0).values) == [1, 0, 0, 0]

    def test_delta_at_two(self):
        assert list(delta(Group(4), 2).values) == [0, 0, 1, 0]

    def test_delta_product_group(self):
        g = Group((2, 2))
        d = delta(g, (1, 0))
        expected = np.zeros(4)
        expected[g.index((1, 0))] = 1
        assert np.array_equal(d.values, expected)

    @pytest.mark.parametrize("factors", [(5,), (2, 3), (4, 6)])
    def test_delta_defaults_to_the_identity_element(self, factors):
        g = Group(factors)
        assert np.array_equal(delta(g).values, delta(g, (0,) * len(factors)).values)
        assert np.array_equal(delta(g).values, np.eye(g.order)[0])

    def test_delta_reduces_noncanonical_index(self):
        g = Group(4)
        assert np.array_equal(delta(g, 6).values, delta(g, 2).values)

    def test_signal_indexing_by_element(self):
        g = Group((2, 3))
        a = Signal(g, np.arange(6) + 0j)
        assert a[(1, 2)] == 5
        assert a[(1, 5)] == 5


class TestConvolve:
    def test_delta_shift_rule(self):
        # delta_k * delta_l = delta_{k+l}
        g = Group(7)
        for k in range(7):
            for ell in range(7):
                got = convolve(delta(g, k), delta(g, ell))
                assert np.allclose(got.values, delta(g, (k + ell) % 7).values)

    def test_convolving_with_ones_averages(self):
        # a * ones = E[a] * ones
        g = Group(5)
        rng = np.random.default_rng(1)
        a = disc_signal(g, rng)
        got = convolve(a, sig(g, np.ones(5)))
        assert np.allclose(got.values, np.sum(a.values) * np.ones(5))

    def test_small_example_against_direct_sum(self):
        g = Group(3)
        f = sig(g, [1, 2, 0])
        h = sig(g, [1, 0, 1])
        got = convolve(f, h)
        assert np.allclose(got.values, direct_convolve(f, h))
        # frozen from the direct double-sum oracle above
        assert np.allclose(got.values, [3, 2, 1])

    def test_matches_direct_sum_on_random_input(self):
        rng = np.random.default_rng(2)
        for factors in (4, 7, (2, 3), (2, 2, 2)):
            g = Group(factors)
            f, h = disc_signal(g, rng), disc_signal(g, rng)
            assert np.allclose(convolve(f, h).values, direct_convolve(f, h),
                               atol=1e-12)

    def test_commutative(self):
        g = Group((3, 4))
        rng = np.random.default_rng(3)
        f, h = disc_signal(g, rng), disc_signal(g, rng)
        assert np.allclose(convolve(f, h).values, convolve(h, f).values)

    def test_identity_element(self):
        g = Group(9)
        a = disc_signal(g, np.random.default_rng(4))
        assert np.allclose(convolve(delta(g, 0), a).values, a.values)

    def test_bilinear(self):
        g = Group(6)
        rng = np.random.default_rng(5)
        a, b, c = (disc_signal(g, rng) for _ in range(3))
        lhs = convolve(sig(g, 2j * a.values + 3 * b.values), c).values
        rhs = 2j * convolve(a, c).values + 3 * convolve(b, c).values
        assert np.allclose(lhs, rhs)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            convolve(delta(Group(3), 0), delta(Group(4), 0))


class TestPointwiseMul:
    def test_ones_is_identity(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(6))
        assert np.allclose(pointwise_mul(a, sig(g, np.ones(5))).values, a.values)

    def test_zeros_absorbs(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(7))
        assert np.array_equal(pointwise_mul(a, sig(g, np.zeros(5))).values, np.zeros(5))

    def test_deltas(self):
        g = Group(4)
        assert np.array_equal(
            pointwise_mul(delta(g, 1), delta(g, 2)).values, np.zeros(4))
        assert np.array_equal(
            pointwise_mul(delta(g, 1), delta(g, 1)).values, delta(g, 1).values)

    def test_bilinear(self):
        g = Group(6)
        rng = np.random.default_rng(12)
        a, b, c = (disc_signal(g, rng) for _ in range(3))
        lhs = pointwise_mul(sig(g, (1 - 2j) * a.values + 0.5 * b.values), c).values
        rhs = (1 - 2j) * pointwise_mul(a, c).values + 0.5 * pointwise_mul(b, c).values
        assert np.allclose(lhs, rhs)


class TestDft:
    def test_delta0_transforms_to_ones(self):
        assert np.allclose(dft(delta(Group(6), 0)).values, np.ones(6))

    def test_ones_transforms_to_scaled_delta(self):
        n = 6
        got = dft(sig(Group(n), np.ones(n)))
        assert np.allclose(got.values, n * delta(Group(n), 0).values, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        for factors in (5, 8, (2, 3), (3, 2, 2)):
            g = Group(factors)
            f = disc_signal(g, rng)
            assert np.allclose(dft(f).values, direct_dft(f), atol=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_convolution_theorem(self, n):
        g = Group(n)
        rng = np.random.default_rng(n)
        f, h = disc_signal(g, rng), disc_signal(g, rng)
        lhs = dft(convolve(f, h)).values
        rhs = dft(f).values * dft(h).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_power_of_two_matches_direct(self):
        g = Group(64)
        f = disc_signal(g, np.random.default_rng(9))
        assert np.allclose(dft(f).values, direct_dft(f), atol=1e-10)
        inverse = direct_dft(sig(g, f.values.conj())).conj() / g.order
        assert np.allclose(idft(f).values, inverse, atol=1e-12)


class TestIdft:
    def test_roundtrip_delta(self):
        g = Group(8)
        got = idft(dft(delta(g, 3)))
        assert np.allclose(got.values, delta(g, 3).values, atol=1e-12)

    def test_ones_inverts_to_delta(self):
        g = Group(5)
        assert np.allclose(idft(sig(g, np.ones(5))).values, delta(g, 0).values,
                           atol=1e-12)
        assert np.allclose(idft(sig(g, 5 * delta(g, 0).values)).values,
                           np.ones(5), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 17, 256, 1024])
    def test_roundtrip_relative_error(self, n):
        g = Group(n)
        f = disc_signal(g, np.random.default_rng(n))
        back = idft(dft(f)).values
        assert np.max(np.abs(back - f.values)) / np.max(np.abs(f.values)) <= 1e-12


class TestExpectation:
    # E[f] = sum_j f(j), read off the transform at 0 and multiplicative under convolution
    def test_ones(self):
        assert complex(dft(sig(Group(5), np.ones(5))).values[0]) == pytest.approx(5)

    def test_delta(self):
        assert complex(dft(delta(Group(9), 4)).values[0]) == pytest.approx(1)

    def test_direct_sum(self):
        assert complex(dft(sig(Group(3), [1, 1j, -1])).values[0]) == pytest.approx(1j)

    def test_equals_transform_at_zero(self):
        g = Group(7)
        a = disc_signal(g, np.random.default_rng(10))
        assert complex(np.sum(a.values)) == pytest.approx(complex(dft(a).values[0]))

    def test_multiplicative_under_convolution(self):
        g = Group(6)
        rng = np.random.default_rng(11)
        a, b = disc_signal(g, rng), disc_signal(g, rng)
        assert complex(np.sum(convolve(a, b).values)) == pytest.approx(
            complex(np.sum(a.values) * np.sum(b.values)))


def last_within(gate: float, toward: float) -> float:
    """The float farthest from 1 toward `toward` with abs(v - 1) <= gate, as computed."""
    v = 1.0 + gate if toward > 1 else 1.0 - gate
    while not abs(v - 1.0) <= gate:
        v = np.nextafter(v, 1.0)
    while abs(np.nextafter(v, toward) - 1.0) <= gate:
        v = np.nextafter(v, toward)
    return float(v)


def edge_rows(n: int, gate: float, m: int) -> tuple[np.ndarray, list]:
    """Rows at each gate of snap_characters and one ulp past it, a NaN row, and the
    (on, fails) that each must give."""
    chi = unit_roots(m * np.arange(n), n)
    past = np.nextafter
    hi, lo = last_within(gate, 2.0), last_within(gate, 0.0)
    rows, want = [], []

    def row(first, expected, at=0):
        r = chi.copy() if first is not None else np.zeros(n, dtype=complex)
        if first is not None:
            r[at] = first
        rows.append(r)
        want.append(expected)

    row(None, (False, 0))                       # zero
    row(gate, (False, 0)); rows[-1][1:] = 0     # sup norm at the zero gate
    row(past(gate, 1.0), (True, 1)); rows[-1][1:] = 0
    row(None, (True, 0)); rows[-1][:] = chi     # the character itself
    row(hi, (True, 0))                          # sup norm and distance at gate 1's edge
    row(past(hi, 2.0), (True, 1))
    if n > 1:                                   # distance alone at gate 2's edge
        row(lo, (True, 0))
        row(past(lo, 0.0), (True, 2))
        row(np.nan, (True, 1), at=n - 1)
    return np.array(rows), want


class TestSnapCharacters:
    @pytest.mark.parametrize("gate", [4e-12, 4e-9, 1e-3, 0.25])
    @pytest.mark.parametrize("n", [1, 2, 8, 17])
    def test_gates_and_one_ulp_past(self, gate, n):
        rows, want = edge_rows(n, gate, n // 3)
        on, canonical, fails = snap_characters(rows, gate, nearest_characters(rows))
        assert list(zip(on.tolist(), fails.tolist())) == want
        # every row that passes is the character, and a row that vanishes is zero
        chi = unit_roots(n // 3 * np.arange(n), n)
        assert all(np.array_equal(c, chi) for c in canonical[on & (fails == 0)])
        assert not canonical[~on].any()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 32), gate=st.floats(1e-15, 0.25), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_naive_oracle(self, n, gate, seed):
        # edge rows, and characters scaled or perturbed around the gates
        rng = np.random.default_rng(seed)
        edges, _ = edge_rows(n, gate, int(rng.integers(n)))
        chis = unit_roots(rng.integers(n, size=(6, 1)) * np.arange(n), n)
        noise = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        scale = gate * rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], size=(6, 1))
        rows = np.concatenate([edges, chis * (1 + scale * noise), chis * scale,
                               chis * rng.uniform(0, 2, size=(6, 1))])
        nearest = nearest_characters(rows)
        got = snap_characters(rows, gate, nearest)
        want = naive_snap_characters(rows, gate, nearest)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

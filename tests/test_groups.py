import numpy as np
import pytest

from convalg import (Group, Operator, PhaseSpaceFunction, PlaneGrid, Signal, constant,
                     convolve, delta, dft, expectation, idft, pointwise_mul)
from convalg.errors import GroupMismatch
from convalg.operators import apply_each

from helpers import direct_convolve, direct_dft, disc_signal


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


class TestConstant:
    def test_ones(self):
        assert np.array_equal(constant(Group(3), 1).values, np.ones(3))

    def test_zeros(self):
        assert np.array_equal(constant(Group(3), 0).values, np.zeros(3))

    def test_complex_constant(self):
        assert np.array_equal(constant(Group(3), 2 + 1j).values,
                              np.full(3, 2 + 1j))


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
        got = convolve(a, constant(g, 1))
        assert np.allclose(got.values, expectation(a) * np.ones(5))

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
        assert np.allclose(pointwise_mul(a, constant(g, 1)).values, a.values)

    def test_zeros_absorbs(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(7))
        assert np.array_equal(pointwise_mul(a, constant(g, 0)).values, np.zeros(5))

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
        got = dft(constant(Group(n), 1))
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
        assert np.allclose(idft(constant(g, 1)).values, delta(g, 0).values,
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
    def test_ones(self):
        assert expectation(constant(Group(5), 1)) == pytest.approx(5)

    def test_delta(self):
        assert expectation(delta(Group(9), 4)) == pytest.approx(1)

    def test_direct_sum(self):
        assert expectation(sig(Group(3), [1, 1j, -1])) == pytest.approx(1j)

    def test_equals_transform_at_zero(self):
        g = Group(7)
        a = disc_signal(g, np.random.default_rng(10))
        assert expectation(a) == pytest.approx(complex(dft(a).values[0]))

    def test_multiplicative_under_convolution(self):
        g = Group(6)
        rng = np.random.default_rng(11)
        a, b = disc_signal(g, rng), disc_signal(g, rng)
        assert expectation(convolve(a, b)) == pytest.approx(
            expectation(a) * expectation(b))

import tracemalloc

import numpy as np
import pytest

from convalg import (Group, Operator, Signal, apply, check_character_equation,
                     check_conv_homomorphism, check_exchange_axioms, compose,
                     delta, dft, pointwise_mul, rel_residual)
from convalg import operators
from convalg.convhom import classify, construct
from convalg.errors import GroupMismatch
from convalg.groups import unit_roots
from convalg.operators import character_residuals, distinct_rows

from helpers import direct_dft, disc_signal, naive_character_residuals


class TestApply:
    def test_identity_table(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(0))
        assert np.allclose(apply(Operator.identity(g), a).values, a.values)

    def test_dft_table_on_delta0(self):
        g = Group(6)
        assert np.allclose(apply(Operator.dft(g), delta(g, 0)).values, np.ones(6))

    def test_zero_table(self):
        g = Group(4)
        a = disc_signal(g, np.random.default_rng(1))
        T = Operator.from_table(g, np.zeros((4, 4)))
        assert np.array_equal(apply(T, a).values, np.zeros(4))

    def test_dense_column_convention(self):
        # column k is the image of delta_k
        g = Group(3)
        table = np.arange(9).reshape(3, 3) + 0j
        T = Operator.from_table(g, table)
        for k in range(3):
            assert np.allclose(apply(T, delta(g, k)).values, table[:, k])

    def test_dense_is_linear(self):
        g = Group(7)
        rng = np.random.default_rng(2)
        T = Operator.from_table(g, rng.normal(size=(7, 7)))
        a, b = disc_signal(g, rng), disc_signal(g, rng)
        lhs = apply(T, Signal(g, 2 * a.values - 1j * b.values)).values
        rhs = 2 * apply(T, a).values - 1j * apply(T, b).values
        assert rel_residual(lhs, rhs) <= 1e-12

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            apply(Operator.identity(Group(3)), delta(Group(4), 0))

    def test_nonfinite_table_rejected(self):
        with pytest.raises(ValueError):
            Operator.from_table(Group(2), [[1, 0], [0, np.nan]])

    def test_blackbox_wrong_group_is_error(self):
        g = Group(4)
        bad = Operator.from_function(g, lambda a: delta(Group(5), 0))
        with pytest.raises(ValueError):
            apply(bad, delta(g, 0))


class TestConvHomomorphismCheck:
    def test_dft_passes_basis(self):
        for n in (2, 5, 16, 64):
            rep = check_conv_homomorphism(Operator.dft(Group(n)))
            assert rep.passed and rep.max_residual <= 1e-10

    @pytest.mark.parametrize("factors", [(2, 3), (3, 2, 2)])
    def test_product_group_transform_tables(self, factors):
        g = Group(factors)
        a = disc_signal(g, np.random.default_rng(6))
        assert np.allclose(apply(Operator.dft(g), a).values, direct_dft(a), atol=1e-12)
        inverse = direct_dft(Signal(g, a.values.conj())).conj() / g.order
        assert np.allclose(apply(Operator.idft(g), a).values, inverse, atol=1e-12)
        rep = check_conv_homomorphism(Operator.dft(g))
        assert rep.passed and rep.max_residual <= 1e-12

    def test_zero_passes(self):
        rep = check_conv_homomorphism(Operator.from_table(Group(6), np.zeros((6, 6))))
        assert rep.passed

    def test_identity_fails_with_witness(self):
        from convalg import convolve
        T = Operator.identity(Group(4))
        rep = check_conv_homomorphism(T)
        assert not rep.passed
        assert rep.witness is not None
        f, g = rep.witness.inputs
        # the reported witness really violates the identity
        lhs = apply(T, convolve(f, g)).values
        rhs = pointwise_mul(apply(T, f), apply(T, g)).values
        assert rel_residual(lhs, rhs) > 1e-2

    def test_basis_pass_implies_sampled_pass(self):
        g = Group(8)
        T = Operator.dft(g)
        assert check_conv_homomorphism(T, "basis").passed
        assert check_conv_homomorphism(T, "sampled", count=32, seed=5).passed

    def test_sampled_reproducible(self):
        g = Group(6)
        T = Operator.identity(g)
        r1 = check_conv_homomorphism(T, "sampled", count=8, seed=9)
        r2 = check_conv_homomorphism(T, "sampled", count=8, seed=9)
        assert r1.max_residual == r2.max_residual

    def test_basis_needs_linearity(self):
        g = Group(4)
        box = Operator.from_function(g, lambda a: a)
        with pytest.raises(ValueError):
            check_conv_homomorphism(box, "basis")
        assert check_conv_homomorphism(box, "sampled", count=4).passed is False

    def test_basis_mode_needs_dense_table(self):
        g = Group(6)
        box = Operator.from_function(g, dft)
        with pytest.raises(ValueError, match=r"to_dense\(\)"):
            check_conv_homomorphism(box, "basis")
        rep = check_conv_homomorphism(box.to_dense(), "basis")
        assert rep.passed and rep.checked == 36

    @pytest.mark.parametrize("count", [0, -1])
    def test_sampled_count_below_one_rejected(self, count):
        T = Operator.identity(Group(4))
        with pytest.raises(ValueError):
            check_conv_homomorphism(T, "sampled", count=count)
        # basis mode has no count to check
        assert check_conv_homomorphism(T, "basis", count=count).checked == 16


def assert_first_failing_pair(rep, res):
    """The witness is the first pair (i, j) over tol in row-major order."""
    i, j = rep.witness.inputs
    failing = np.argwhere(~(res <= rep.tol))
    assert i <= j and res[i, j] > rep.tol
    assert (i, j) == tuple(failing[0])


class TestCharacterResiduals:
    GROUPS = [(1,), (2,), (8,), (64,), (2, 3), (3, 2, 2), (4, 6), (5, 1, 3)]

    @pytest.mark.parametrize("factors", GROUPS)
    @pytest.mark.parametrize("planted", [False, True])
    def test_matches_naive_oracle_and_witness(self, factors, planted):
        g = Group(factors)
        table = np.array(Operator.dft(g).table)
        if planted:
            rng = np.random.default_rng(sum(factors))
            table[tuple(rng.integers(g.order, size=2))] += 1e-3
        naive = naive_character_residuals(table, g)
        res = character_residuals(table, g)
        assert np.max(np.abs(res - np.triu(naive))) <= 1e-15
        rep = check_conv_homomorphism(Operator.from_table(g, table))
        bad = np.argwhere(naive > rep.tol)
        assert rep.passed is (bad.size == 0)
        if bad.size:
            k0, l0 = bad[0]
            f, h = rep.witness.inputs
            assert np.array_equal(f.values, delta(g, g.element(k0)).values)
            assert np.array_equal(h.values, delta(g, g.element(l0)).values)

    @pytest.mark.parametrize("M", [2, 8, 64])
    @pytest.mark.parametrize("planted", [False, True])
    def test_single_row_matches_oracle_and_worst_pair(self, M, planted):
        rng = np.random.default_rng(M)
        h = np.exp(2j * np.pi * 3 * np.arange(M) / M)
        if planted:
            h[rng.integers(M)] *= 1.01
        naive = naive_character_residuals(h[None], Group(M))
        assert np.max(np.abs(character_residuals(h[None], Group(M)) - np.triu(naive))) <= 1e-15
        rep = check_character_equation(h)
        assert rep.max_residual == pytest.approx(naive.max(), abs=1e-15)
        if planted:
            assert_first_failing_pair(rep, naive)

    @pytest.mark.parametrize("factors", GROUPS)
    def test_lower_triangle_is_zero(self, factors):
        g = Group(factors)
        rng = np.random.default_rng(g.order)
        table = np.array(Operator.dft(g).table)
        table += 1e-6 * (rng.standard_normal(table.shape) + 1j * rng.standard_normal(table.shape))
        for rows in (table[:1], table):
            res = character_residuals(rows, g)
            assert not np.tril(res, -1).any()
            assert res[np.triu_indices(g.order)].all()

    def test_overflowing_entry_gives_nan_above_the_diagonal(self):
        g = Group(8)
        table = np.array(Operator.dft(g).table)
        table[2, 3] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            res = character_residuals(table, g)
        assert np.isnan(res).any()
        assert not np.tril(res, -1).any()
        rep = check_conv_homomorphism(Operator.from_table(g, table))
        assert not rep.passed and rep.witness is not None

    @pytest.mark.parametrize("M", [128, 512])
    def test_single_row_in_several_blocks(self, M):
        rng = np.random.default_rng(M)
        h = np.exp(2j * np.pi * 5 * np.arange(M) / M)
        h[rng.integers(M, size=3)] *= 1.01
        naive = naive_character_residuals(h[None], Group(M))
        res = character_residuals(h[None], Group(M))
        assert np.max(np.abs(res - np.triu(naive))) <= 1e-15
        assert not np.tril(res, -1).any()
        rep = check_character_equation(h)
        assert rep.max_residual == pytest.approx(naive.max(), abs=1e-15)
        assert_first_failing_pair(rep, res)

    def test_basis_check_memory_is_quadratic(self):
        T = Operator.dft(Group(128))
        tracemalloc.start()
        try:
            assert check_conv_homomorphism(T).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_distinct_rows_of_the_transform_are_not_copied(self):
        # every row of the DFT table is distinct; a copy of the 1 MiB table
        # took the n = 256 basis check from 5.25 to 6.25 MiB
        T = Operator.dft(Group(256))
        assert distinct_rows(T.table) is T.table
        tracemalloc.start()
        try:
            assert check_conv_homomorphism(T).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2 ** 20


def repeated_sigma_table() -> np.ndarray:
    # rows off the support are zero; sigma repeats 3 and 7
    sigma = {0: 3, 2: 3, 5: 7, 6: 3, 9: 7, 11: 0}
    return np.array(construct(Group(12), sorted(sigma), sigma).table)


def product_table() -> np.ndarray:
    # the (4, 6) transform with three rows zeroed and two copies of row 5
    table = np.array(Operator.dft(Group((4, 6))).table)
    table[[1, 7, 20]] = 0.0
    table[[2, 9]] = table[5]
    return table


def planted(table: np.ndarray, entries) -> np.ndarray:
    for eta, k in entries:
        table[eta, k] += 1e-3
    return table


# tables whose rows repeat bit for bit: (group factors, table)
REPEATED_ROWS = {
    "zero rows and repeated sigma": lambda: ((12,), repeated_sigma_table()),
    "all zero": lambda: ((8,), np.zeros((8, 8), dtype=complex)),
    "one distinct row": lambda: ((10,), np.tile(unit_roots(-3 * np.arange(10), 10), (10, 1))),
    "product group": lambda: ((4, 6), product_table()),
    "failing": lambda: ((12,), planted(repeated_sigma_table(), [(9, 4), (6, 2)])),
    "failing product group": lambda: ((4, 6), planted(product_table(), [(9, 13)])),
}


class TestDistinctRows:
    """Each distinct row is measured once, and every residual keeps its bits."""

    @pytest.mark.parametrize("name", REPEATED_ROWS)
    def test_residuals_match_the_naive_oracle_bit_for_bit(self, name):
        factors, table = REPEATED_ROWS[name]()
        g = Group(factors)
        want = np.triu(naive_character_residuals(table, g))
        res = character_residuals(table, g)
        assert np.array_equal(res.view(np.uint64), want.view(np.uint64))
        rep = check_conv_homomorphism(Operator.from_table(g, table))
        assert rep.passed is not name.startswith("failing")
        assert rep.max_residual == want.max() and rep.checked == g.order ** 2

    @pytest.mark.parametrize("name", ["failing", "failing product group"])
    def test_failing_table_keeps_its_witness(self, name):
        factors, table = REPEATED_ROWS[name]()
        g = Group(factors)
        want = np.triu(naive_character_residuals(table, g))
        rep = check_conv_homomorphism(Operator.from_table(g, table))
        k, l = np.argwhere(~(want <= rep.tol))[0]
        kl = g.index(tuple(a + b for a, b in zip(g.element(k), g.element(l))))
        f, h = rep.witness.inputs
        assert np.array_equal(f.values, delta(g, g.element(k)).values)
        assert np.array_equal(h.values, delta(g, g.element(l)).values)
        assert np.array_equal(rep.witness.lhs, table[:, kl])       # over every row
        assert np.array_equal(rep.witness.rhs, table[:, k] * table[:, l])
        assert rep.witness.residual == want[k, l]

    def test_distinct_rows_keep_their_order(self):
        rows = np.array([[1, 2], [0, 0], [1, 2], [0, -0.0], [0, 0], [3, 1j]])
        assert np.array_equal(distinct_rows(rows), rows[[0, 1, 3, 5]])

    def test_construct_table_measures_its_distinct_rows(self, monkeypatch):
        measured = []

        def counting(rows):
            out = distinct_rows(rows)
            measured.append(len(out))
            return out

        monkeypatch.setattr(operators, "distinct_rows", counting)
        n = 64
        rng = np.random.default_rng(7)
        support = sorted(int(e) for e in rng.choice(n, 40, replace=False))
        sigma = {e: int(rng.integers(6)) for e in support}
        T = construct(Group(n), support, sigma)
        assert classify(T).sigma == sigma
        assert check_conv_homomorphism(T).passed
        # classify's check sees one zero row (every row certifies); the check of T
        # one row per value of sigma and one zero row off the support
        assert measured == [1, len(set(sigma.values())) + 1]


class TestExchangeAxiomsCheck:
    def test_identity_passes(self):
        g = Group(6)
        rep = check_exchange_axioms(Operator.from_function(g, lambda a: a),
                                    count=16, seed=0)
        assert rep.passed

    def test_conjugation_passes(self):
        g = Group(6)
        conj = Operator.from_function(g, lambda a: Signal(g, np.conj(a.values)))
        rep = check_exchange_axioms(conj, count=16, seed=1)
        assert rep.passed

    def test_shift_by_ones_fails_on_zero_pair(self):
        g = Group(5)
        plus1 = Operator.from_function(
            g, lambda a: Signal(g, a.values + np.ones(5)))
        rep = check_exchange_axioms(plus1, count=4, seed=2)
        assert not rep.passed
        # the zero pair alone already separates via the convolution identity
        z = Signal(g, np.zeros(5))
        from convalg import convolve
        lhs = apply(plus1, convolve(z, z)).values
        rhs = convolve(apply(plus1, z), apply(plus1, z)).values
        assert rel_residual(lhs, rhs) > 1e-2

    def test_zero_count_still_checks_structured_pairs(self):
        g = Group(5)
        plus1 = Operator.from_function(
            g, lambda a: Signal(g, a.values + np.ones(5)))
        rep = check_exchange_axioms(plus1, count=0)
        # four constants and four point masses
        assert rep.checked == 8 and not rep.passed

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            check_exchange_axioms(Operator.identity(Group(5)), count=-1)


class TestCompose:
    def test_idft_dft_is_identity(self):
        g = Group(9)
        C = compose(Operator.idft(g), Operator.dft(g))
        assert np.max(np.abs(C.table - np.eye(9))) <= 1e-12

    def test_compose_with_identity(self):
        g = Group(5)
        T = Operator.dft(g)
        C = compose(T, Operator.identity(g))
        assert np.allclose(C.table, T.table)

    def test_double_transform_reverses_index(self):
        # dft(dft(a))(k) = n a(-k), checked against the elementwise oracle
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(3))
        twice = apply(compose(Operator.dft(g), Operator.dft(g)), a).values
        oracle = direct_dft(Signal(g, direct_dft(a)))
        assert np.allclose(twice, oracle, atol=1e-10)
        assert np.allclose(twice, 5 * a.values[(-np.arange(5)) % 5], atol=1e-10)

    def test_blackbox_composition(self):
        g = Group(4)
        box = Operator.from_function(g, lambda a: Signal(g, 2 * a.values))
        C = compose(box, Operator.identity(g))
        a = disc_signal(g, np.random.default_rng(4))
        assert np.allclose(apply(C, a).values, 2 * a.values)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            compose(Operator.identity(Group(3)), Operator.identity(Group(4)))

    def test_to_dense_materializes_blackbox_columns(self):
        g = Group(5)
        box = Operator.from_function(g, lambda a: Signal(g, np.roll(a.values, 1)))
        D = box.to_dense()
        a = disc_signal(g, np.random.default_rng(5))
        assert np.allclose(D.table @ a.values, np.roll(a.values, 1))

    @pytest.mark.parametrize("factors", [(2, 3), (4, 6), (3, 2, 2), (7,)])
    def test_to_dense_on_any_group_is_the_table(self, factors):
        g = Group(factors)
        dft = Operator.dft(g)
        box = Operator.from_function(g, lambda a: apply(dft, a))
        D = box.to_dense()
        assert np.array_equal(D.table, dft.table)
        assert check_conv_homomorphism(D, "basis").passed


class TestResidualMetric:
    def test_scale_free(self):
        a = np.array([1e6 + 0j])
        assert rel_residual(a, a * (1 + 1e-13)) < 1e-6

    def test_zero_pair(self):
        assert rel_residual(np.zeros(3), np.zeros(3)) == 0.0

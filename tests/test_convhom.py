import numpy as np
import pytest

from convalg import (Group, Operator, check_conv_homomorphism, classify,
                     construct, rel_residual)
from convalg.errors import AxiomViolation, NotRootOfUnity, RowNotHomomorphic
from convalg.groups import nearest_characters

from helpers import passing_check, past_the_check


def random_support_sigma(n, rng):
    """Arbitrary (support, sigma): sigma need not be injective."""
    mask = rng.uniform(size=n) < 0.7
    support = [e for e in range(n) if mask[e]]
    sigma = {e: int(rng.integers(0, n)) for e in support}
    return support, sigma


class TestClassify:
    def test_dft_is_its_own_canonical_form(self):
        c = classify(Operator.dft(Group(4)))
        assert c.support == (0, 1, 2, 3)
        assert c.sigma == {0: 0, 1: 1, 2: 2, 3: 3}
        assert c.residual <= 1e-10

    def test_zero_operator_has_empty_support(self):
        c = classify(Operator.from_table(Group(5), np.zeros((5, 5))))
        assert c.support == ()
        assert c.sigma == {}

    def test_doubling_frequency_map(self):
        # T(f)(eta) = fhat(2 eta mod 5): build from the formula, then classify
        n = 5
        k, eta = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        table = np.exp(-2j * np.pi * k * ((2 * eta) % n) / n).T
        T = Operator.from_table(Group(n), table)
        assert check_conv_homomorphism(T).passed
        c = classify(T)
        assert c.support == (0, 1, 2, 3, 4)
        assert c.sigma == {e: (2 * e) % n for e in range(n)}

    def test_product_groups_rejected(self):
        with pytest.raises(ValueError):
            classify(Operator.identity(Group((2, 2))))
        with pytest.raises(ValueError):
            construct(Group((2, 3)), [0], {0: 0})

    def test_identity_rejected_as_axiom_violation(self):
        with pytest.raises(AxiomViolation) as exc:
            classify(Operator.identity(Group(4)))
        assert exc.value.report.witness is not None

    def test_row_mixing_zero_and_nonzero_rejected(self):
        # row 1 vanishes at the identity column but not elsewhere; disable
        # the axiom gate by building a table that passes it first, then
        # corrupting is impossible -- so drive classify directly on a table
        # whose axiom check passes but whose row shape is broken. The only
        # way past the axiom gate is a genuinely inconsistent tolerance, so
        # assert on the raw row analysis via a tiny tol for the gate.
        n = 4
        table = Operator.dft(Group(n)).table.copy()
        table[1, 0] = 0.0
        T = Operator.from_table(Group(n), table)
        with pytest.raises((AxiomViolation, RowNotHomomorphic)):
            classify(T)

    def test_identity_column_neither_zero_nor_one(self):
        n = 3
        table = np.full((n, n), 0.5, dtype=complex)
        T = Operator.from_table(Group(n), table)
        # rows are constant 0.5: T(delta_k).T(delta_l) = 0.25 != 0.5; fails axiom
        with pytest.raises(AxiomViolation):
            classify(T)

    def test_not_root_of_unity(self):
        # scale the generator column phase off the lattice but keep the
        # multiplicative row structure so the axiom check still passes
        n = 8
        z = np.exp(2j * np.pi * 0.15)   # not an 8th root of unity
        table = np.ones((n, n), dtype=complex)
        table[3] = z ** np.arange(n)
        # rows are homomorphic sequences k -> z^k, but pi(n) != pi(0):
        # the basis check fails at the wrap-around pair, so AxiomViolation;
        # with a row built from a root of unity times a tiny off-lattice
        # twist the wrap-around survives tol but the snap fails.
        z2 = np.exp(2j * np.pi * (1 + 3e-9) / n)
        table[3] = z2 ** np.arange(n)
        T = Operator.from_table(Group(n), table)
        with pytest.raises((NotRootOfUnity, AxiomViolation)):
            classify(T)


class TestPostCheckGates:
    def test_row_of_neither_norm(self, monkeypatch):
        passing_check(monkeypatch)
        table = past_the_check("norm")
        with pytest.raises(RowNotHomomorphic) as exc:
            classify(Operator.from_table(Group(8), table))
        assert exc.value.details == {"eta": 5, "max_abs": float(np.max(np.abs(table[5])))}
        assert str(exc.value).startswith("row 5: sup norm 0.5")

    def test_row_off_the_root_lattice(self, monkeypatch):
        passing_check(monkeypatch)
        table = past_the_check("lattice")
        with pytest.raises(NotRootOfUnity) as exc:
            classify(Operator.from_table(Group(8), table))
        deviation = float(nearest_characters(table)[1][5])
        assert exc.value.details == {"eta": 5, "z": complex(table[5, 1]), "deviation": deviation}
        assert 0.1 < deviation < 0.2          # past the gate at SNAP_FLOOR * tol

    def test_first_failing_row_is_named(self, monkeypatch):
        passing_check(monkeypatch)
        table = past_the_check("lattice")
        table[2] *= 0.5
        with pytest.raises(RowNotHomomorphic) as exc:
            classify(Operator.from_table(Group(8), table))
        assert exc.value.eta == 2


class TestConstruct:
    def test_full_support_identity_sigma_is_transform_table(self):
        g = Group(6)
        T = construct(g, range(6), {e: e for e in range(6)})
        assert np.allclose(T.table, Operator.dft(g).table)

    def test_empty_support_is_zero(self):
        T = construct(Group(5), [], {})
        assert np.array_equal(T.table, np.zeros((5, 5)))

    def test_non_injective_sigma_passes_axioms(self):
        g = Group(6)
        T = construct(g, [0, 3], {0: 2, 3: 2})
        assert np.allclose(T.table[0], T.table[3])
        rep = check_conv_homomorphism(T, tol=1e-12)
        assert rep.passed

    def test_sigma_out_of_range(self):
        with pytest.raises(ValueError):
            construct(Group(4), [1], {1: 7})

    @pytest.mark.parametrize("n, support, sigma, eta", [
        (6, [0, 3], {3: 2}, 0),             # sigma missing on the support
        (6, [0], {0: 2, 4: 1}, 4),          # sigma given off the support
        (8, [9], {9: 2}, 9),                # support out of range
        (8, [-1], {-1: 2}, -1),
    ], ids=["sigma-missing", "sigma-off-support", "support-over-n", "support-negative"])
    def test_support_and_sigma_must_match(self, n, support, sigma, eta):
        with pytest.raises(ValueError, match=f"^eta = {eta}: "):
            construct(Group(n), support, sigma)

    def test_construct_passes_axioms_generically(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            support, sigma = random_support_sigma(n, rng)
            T = construct(Group(n), support, sigma)
            assert check_conv_homomorphism(T, tol=1e-12).passed


class TestRoundtrip:
    def test_dft_roundtrip_residual(self):
        T = Operator.dft(Group(8))
        c = classify(T)
        rebuilt = construct(T.group, c.support, c.sigma)
        assert np.max(np.abs(T.table - rebuilt.table)) <= 1e-12

    def test_random_construction_roundtrip_residual(self):
        rng = np.random.default_rng(1)
        for n in (3, 7, 11):
            support, sigma = random_support_sigma(n, rng)
            T = construct(Group(n), support, sigma)
            c = classify(T)
            rebuilt = construct(T.group, c.support, c.sigma)
            assert np.max(np.abs(T.table - rebuilt.table)) <= 1e-12

    def test_residual_is_distance_to_rebuild(self):
        # noise keeps the residual away from zero, so the equality is not trivial
        rng = np.random.default_rng(2)
        for n in (1, 4, 9):
            support, sigma = random_support_sigma(n, rng)
            table = construct(Group(n), support, sigma).table
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            T = Operator.from_table(Group(n), table + 1e-12 * noise)
            c = classify(T)
            rebuilt = construct(T.group, c.support, c.sigma)
            assert c.residual == rel_residual(T.table, rebuilt.table)
            assert 0 < c.residual <= 1e-11

    def test_shifted_sigma_has_large_residual(self):
        g = Group(8)
        T = Operator.dft(g)
        c = classify(T)
        shifted = type(c)(c.support,
                          {e: (s + 1) % 8 for e, s in c.sigma.items()}, c.residual)
        bad = construct(g, shifted.support, shifted.sigma)
        assert np.max(np.abs(T.table - bad.table)) >= 1.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exhaustive_recovery(self, n):
        # every (support, sigma) draw comes back with integer exactness
        rng = np.random.default_rng(n)
        for _ in range(25):
            support, sigma = random_support_sigma(n, rng)
            c = classify(construct(Group(n), support, sigma))
            assert list(c.support) == support
            assert dict(c.sigma) == sigma
            assert c.residual <= 1e-10


class TestRootLattice:
    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_generator_value_on_root_lattice(self, n):
        rng = np.random.default_rng(n + 100)
        support, sigma = random_support_sigma(n, rng)
        T = construct(Group(n), support, sigma)
        c = classify(T)
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        for eta in c.support:
            z = T.table[eta, 1]
            close = np.abs(roots - z) <= 1e-8
            assert np.count_nonzero(close) == 1


class TestPassImpliesClassifies:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_near_canonical_tables_passing_the_check_classify(self, n):
        # T (1 + e) entrywise, (1 + eps) T and T + e at amplitudes around tol:
        # whichever passes the basis check must classify to its planted
        # (support, sigma)
        g = Group(n)
        rng = np.random.default_rng(n)
        passed = 0
        for amplitude in np.logspace(-11, -8, 10):
            for _ in range(4):
                support, sigma = random_support_sigma(n, rng)
                table = construct(g, support, sigma).table
                noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                for perturbed in (table * (1 + amplitude * noise),
                                  (1 + amplitude * noise[0, 0]) * table,
                                  table + amplitude * noise):
                    T = Operator.from_table(g, perturbed)
                    if not check_conv_homomorphism(T, tol=1e-9).passed:
                        continue
                    passed += 1
                    c = classify(T, 1e-9)
                    assert list(c.support) == support
                    assert c.sigma == sigma
        assert passed >= 40


class TestCompletenessSearch:
    def test_perturbed_tables_passing_axioms_stay_canonical(self):
        # randomized search: no axiom-passing operator at tol=1e-9 may sit
        # further than 1e-6 from its reconstructed canonical form
        total = 0
        passing = 0
        for n in (2, 3, 4):
            rng = np.random.default_rng(n)
            draws = 100_000 // 3
            # batch of canonical tables with multiplicative noise floors
            base_tables = []
            for _ in range(40):
                support, sigma = random_support_sigma(n, rng)
                base_tables.append(construct(Group(n), support, sigma).table)
            amps = 10.0 ** rng.uniform(-12, -2, draws)
            picks = rng.integers(0, len(base_tables), draws)
            # vectorized basis-mode residuals for all perturbations
            sums = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
            chunk = 4000
            for lo in range(0, draws, chunk):
                hi = min(lo + chunk, draws)
                B = np.stack([base_tables[p] for p in picks[lo:hi]])
                noise = (rng.normal(size=B.shape) + 1j * rng.normal(size=B.shape))
                B = B + noise * amps[lo:hi, None, None] / np.sqrt(2)
                lhs = B[:, :, sums]
                rhs = B[:, :, :, None] * B[:, :, None, :]
                scale = 1.0 + np.maximum(np.abs(lhs).max(axis=1),
                                         np.abs(rhs).max(axis=1))
                res = (np.abs(lhs - rhs).max(axis=1) / scale).max(axis=(1, 2))
                total += hi - lo
                for idx in np.nonzero(res <= 1e-9)[0]:
                    passing += 1
                    T = Operator.from_table(Group(n), B[idx])
                    c = classify(T)
                    rebuilt = construct(T.group, c.support, c.sigma)
                    assert np.max(np.abs(T.table - rebuilt.table)) <= 1e-6
        assert total >= 99_000
        assert passing > 0  # the search space genuinely contains passing tables

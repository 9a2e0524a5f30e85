import math
import warnings

import numpy as np
import pytest

from convalg import (Group, Operator, Signal, apply, check_exchange_axioms,
                     check_involution_symmetry, classify_exchange,
                     classify_fourier_exchange, construct_exchange, dft, idft)
from convalg.errors import (BetaNotIdentityOrConjugation,
                            DeltaImageInconsistent, DeltaImageNotDelta,
                            EtaNotCoprime, FinalSweepViolation,
                            FixedPointViolation)
from convalg.exchange import SWEEP_SIGNALS

from helpers import beta_of, disc_signal


def units(n):
    return [e for e in range(1, n) if math.gcd(e, n) == 1]


class TestCanonicalRecovery:
    def test_identity_map(self):
        c = classify_exchange(Operator.from_function(Group(7), lambda a: a))
        assert (c.eta, c.conjugate) == (1, False)

    def test_conjugation_map(self):
        g = Group(7)
        conj = Operator.from_function(g, lambda a: Signal(g, np.conj(a.values)))
        c = classify_exchange(conj)
        assert (c.eta, c.conjugate) == (1, True)

    def test_reindex_by_five_mod_seven(self):
        # T(a)(j) = a(5j mod 7); since 5*3 = 1 mod 7 this is eta = 3
        g = Group(7)
        T = Operator.from_function(
            g, lambda a: Signal(g, a.values[(5 * np.arange(7)) % 7]))
        # brute-force both exchange axioms first
        assert check_exchange_axioms(T, count=16, seed=3).passed
        c = classify_exchange(T)
        assert (c.eta, c.conjugate) == (3, False)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_unit_and_flag_comes_back_exactly(self, n):
        g = Group(n)
        for eta in units(n):
            for flag in (False, True):
                c = classify_exchange(construct_exchange(g, eta, flag))
                assert (c.eta, c.conjugate) == (eta, flag)
                assert c.residual <= 1e-10
                assert c.variant == "direct"

    def test_constructed_maps_satisfy_axioms(self):
        g = Group(8)
        for eta in units(8):
            rep = check_exchange_axioms(construct_exchange(g, eta, True),
                                        count=12, seed=eta)
            assert rep.passed


class TestRejections:
    def test_scaling_map_rejected(self):
        g = Group(8)
        double = Operator.from_function(g, lambda a: Signal(g, 2 * a.values))
        with pytest.raises(FixedPointViolation):
            classify_exchange(double)

    def test_index_doubling_rejected(self):
        g = Group(8)
        T = Operator.from_function(
            g, lambda a: Signal(g, a.values[(2 * np.arange(8)) % 8]))
        with pytest.raises(FixedPointViolation):
            classify_exchange(T)

    def test_delta_image_not_delta(self):
        # fixes constants and delta_0 but smears every other point mass
        g = Group(6)

        def run(a):
            v = a.values
            if np.allclose(v, v[0]) or np.argmax(np.abs(v)) == 0:
                return Signal(g, v)
            return Signal(g, 0.5 * v + 0.5 * np.roll(v, 1))

        T = Operator.from_function(g, run)
        with pytest.raises(DeltaImageNotDelta):
            classify_exchange(T)

    def test_non_multiplicative_permutation(self):
        # a permutation fixing 0 that is not j -> eta j: swap 1 and 2 on Z/5
        g = Group(5)
        perm = np.array([0, 2, 1, 3, 4])

        def run(a):
            out = np.empty(5, dtype=complex)
            out[perm] = a.values
            return Signal(g, out)

        T = Operator.from_function(g, run)
        with pytest.raises(DeltaImageInconsistent):
            classify_exchange(T)

    def test_eta_not_coprime(self):
        # delta_j -> delta_{2j} linearly extended on Z/6 fixes delta_0 and ones?
        # no: ones maps to a non-ones signal, so build the map that permutes
        # only on a gcd-violating slope by hand: j -> 3j is not injective on
        # Z/6, so force images delta_{3j} with collisions resolved to keep
        # delta images deltas; the classifier must flag the slope.
        g = Group(4)

        def run(a):
            # reindex by sigma(j) = 2j with wrap: T(a)(2j mod 4) = a(j) summed
            out = np.zeros(4, dtype=complex)
            for j in range(4):
                out[(2 * j) % 4] += a.values[j]
            return Signal(g, out)

        T = Operator.from_function(g, run)
        with pytest.raises((FixedPointViolation, DeltaImageNotDelta, EtaNotCoprime)):
            classify_exchange(T)

    def test_beta_rejection_reachable(self):
        # fixes ones, zeros and all point masses, but squares the value of
        # every other constant: the scalar action is c -> c^2 / n at the
        # probes, which is neither c nor conj(c)
        g = Group(5)

        def run(a):
            v = a.values
            if np.allclose(v, v[0]):
                return Signal(g, np.full(5, complex(v[0]) ** 2))
            return Signal(g, v)

        T = Operator.from_function(g, run)
        with pytest.raises(BetaNotIdentityOrConjugation):
            classify_exchange(T)

    def test_final_sweep_catches_agreement_only_on_probes(self):
        # agrees with the identity on constants and point masses but not on
        # generic signals: steps 1..3 pass, step 4 must reject
        g = Group(6)

        def run(a):
            v = a.values
            if np.allclose(v, v[0]):
                return Signal(g, v)
            near_one = np.abs(v - 1.0) <= 1e-6
            if near_one.sum() == 1 and np.abs(np.delete(v, np.argmax(near_one))).max() <= 1e-6:
                return Signal(g, v)            # a point mass
            return Signal(g, 1.001 * v)

        T = Operator.from_function(g, run)
        with pytest.raises(FinalSweepViolation) as exc:
            classify_exchange(T)
        assert exc.value.witness is not None


# the classifier's probe values and their pairwise products
BETA_BASE = (2.0, 3.0, 1.5, 1j)
BETA_SCALARS = BETA_BASE + tuple(c1 * c2 for c1 in BETA_BASE for c2 in BETA_BASE)


class TestBetaProbe:
    @pytest.mark.parametrize("n", [5, 12])
    def test_each_scalar_probed_once(self, n):
        # steps 1-4 apply T to 3 fixed points, n - 1 point masses, one
        # constant per beta probe and SWEEP_SIGNALS random signals
        g = Group(n)
        canonical = construct_exchange(g, 1 if n == 12 else 2, True)
        calls = []
        T = Operator.from_function(g, lambda a: calls.append(a) or apply(canonical, a))
        classify_exchange(T)
        assert len(calls) == 3 + (n - 1) + len(BETA_BASE) + SWEEP_SIGNALS

    def test_beta_values_identity_branch(self):
        T = construct_exchange(Group(5), 2, False)
        for c in BETA_SCALARS:
            assert abs(beta_of(T, c) - c) <= 1e-9 * (1 + abs(c))

    def test_beta_values_conjugation_branch(self):
        T = construct_exchange(Group(5), 2, True)
        for c in BETA_SCALARS:
            assert abs(beta_of(T, c) - np.conj(c)) <= 1e-9 * (1 + abs(c))


class TestFourierVariant:
    def test_plain_transform(self):
        c = classify_fourier_exchange(Operator.dft(Group(5)))
        assert (c.eta, c.conjugate, c.variant) == (1, False, "fourier")

    def test_conjugated_transform(self):
        # T(a) = conj(ahat): the composed map is a -> conj(a(-.)), eta = n-1
        g = Group(5)
        T = Operator.from_function(
            g, lambda a: Signal(g, np.conj(dft(a).values)))
        # oracle: compute idft(T a) explicitly and match the conjugated form
        rng = np.random.default_rng(0)
        a = disc_signal(g, rng)
        tilde = idft(apply(T, a)).values
        assert np.allclose(tilde, np.conj(a.values[(-np.arange(5)) % 5]), atol=1e-10)
        c = classify_fourier_exchange(T)
        assert (c.eta, c.conjugate) == (4, True)

    def test_frequency_dilation(self):
        # T(a)(j) = ahat(3j) on Z/8: 3 is a unit, the composed map has eta
        # with 3 eta = 1 mod 8, and 3 is self-inverse mod 8
        g = Group(8)
        T = Operator.from_function(
            g, lambda a: Signal(g, dft(a).values[(3 * np.arange(8)) % 8]))
        rng = np.random.default_rng(1)
        a = disc_signal(g, rng)
        assert np.allclose(apply(T, a).values[(3 * np.arange(8)) % 8],
                           dft(a).values, atol=1e-10)
        c = classify_fourier_exchange(T)
        assert (c.eta, c.conjugate) == (3, False)


def perturbed_exchange(group, eta, conjugate, kind, amplitude, rng) -> Operator:
    """construct_exchange(group, eta, conjugate) with a defect of size amplitude."""
    canonical = construct_exchange(group, eta, conjugate)
    noise = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
    z = noise[0] / abs(noise[0])

    def run(a):
        v = apply(canonical, a).values
        if kind == "scaled":
            v = (1 + amplitude * z) * v
        elif kind == "entrywise":
            v = v * (1 + amplitude * noise)
        elif kind == "leak":                # a linear leak of the mean into every entry
            v = v + amplitude * np.mean(a.values) * noise
        else:                               # a phase growing with |v|^2
            v = v * np.exp(1j * amplitude * np.abs(v) ** 2)
        return Signal(group, v)

    return Operator.from_function(group, run)


class TestPassImpliesClassifies:
    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_near_canonical_maps_passing_the_check_classify(self, n):
        # (1 + eps) C, C (1 + e) entrywise and C + eps E[a] e at amplitudes
        # around tol: whichever passes the exchange axioms must classify to
        # its planted (eta, conjugate)
        g = Group(n)
        rng = np.random.default_rng(n)
        passed = 0
        for amplitude in np.logspace(-11, -8, 7):
            for kind in ("scaled", "entrywise", "leak"):
                eta, conjugate = int(rng.choice(units(n) or [1])), bool(rng.integers(2))
                T = perturbed_exchange(g, eta, conjugate, kind, amplitude, rng)
                if not check_exchange_axioms(T, tol=1e-9).passed:
                    continue
                passed += 1
                c = classify_exchange(T, 1e-9)
                assert (c.eta, c.conjugate) == (eta, conjugate)
        assert passed >= 10

    @pytest.mark.xfail(strict=True, raises=BetaNotIdentityOrConjugation,
                       reason="the exchange check never evaluates T at the step-3 probes "
                              "(c/n) ones, so a defect growing with |T(a)| passes it and "
                              "fails beta(3)")
    def test_defect_growing_with_magnitude_classifies(self):
        T = perturbed_exchange(Group(2), 1, True, "phase", 6.31e-10, np.random.default_rng(0))
        assert check_exchange_axioms(T, tol=1e-9).passed
        classify_exchange(T, 1e-9)


class TestInvolutionSymmetry:
    def test_unitary_transform_passes(self):
        rep = check_involution_symmetry(Operator.dft(Group(5), unitary=True))
        assert rep.passed and rep.max_residual <= 1e-12

    def test_unnormalized_transform_fails(self):
        rep = check_involution_symmetry(Operator.dft(Group(5)))
        assert not rep.passed

    def test_index_negation_fails_with_witness(self):
        g = Group(5)
        neg = Operator.from_function(
            g, lambda a: Signal(g, a.values[(-np.arange(5)) % 5]))
        rep = check_involution_symmetry(neg)
        assert not rep.passed
        assert rep.witness is not None
        # explicit check on a = delta_1: (T^2 a)(k) = a(k) but a(-k) = delta_4
        from convalg import delta
        twice = apply(neg, apply(neg, delta(g, 1))).values
        assert np.allclose(twice, delta(g, 1).values)
        assert not np.allclose(twice, delta(g, 1).values[(-np.arange(5)) % 5])

    @pytest.mark.parametrize("factors", [(2, 3), (4, 4), (3, 1, 2)])
    def test_product_group_transform_passes(self, factors):
        # -k is negated per factor: a flat (-index) % order is no group negation here
        g = Group(factors)
        box = Operator.from_function(g, lambda a: Signal(g, dft(a).values / math.sqrt(g.order)))
        for T in (Operator.dft(g, unitary=True), box):
            rep = check_involution_symmetry(T)
            assert rep.passed and rep.max_residual <= 1e-14

    def test_identity_passes_when_negation_trivial(self):
        rep = check_involution_symmetry(Operator.identity(Group(2)))
        assert rep.passed

    @pytest.mark.parametrize("samples", [0, -2])
    def test_sample_count_below_one_rejected(self, samples):
        # the identity fails the check on Group(4); a check of no sample must not pass it
        T = Operator.identity(Group(4))
        assert not check_involution_symmetry(T).passed
        with pytest.raises(ValueError):
            check_involution_symmetry(T, samples=samples)


def overflowing_box(g: Group) -> Operator:
    return Operator.from_function(g, lambda a: Signal(g, 1e200 * dft(a).values))


def test_overflowing_products_of_images_fail_without_warnings():
    # T(a).T(b) and T(a)*T(b) overflow: a NaN residual, which fails, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_exchange_axioms(overflowing_box(Group(8)))
    assert not rep.passed and math.isnan(rep.max_residual)
    assert rep.witness.identity == "T(a.b) = T(a).T(b)"


def test_overflowing_image_in_involution_raises_without_warnings():
    # T(T(a)) overflows inside the box: a ValueError, and no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            check_involution_symmetry(overflowing_box(Group(8)))


class TestEdgeCases:
    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            classify_exchange(Operator.from_function(Group(1), lambda a: a))

    def test_product_group_rejected(self):
        g = Group((2, 2))
        with pytest.raises(ValueError):
            classify_exchange(Operator.from_function(g, lambda a: a))

    def test_construct_requires_unit(self):
        with pytest.raises(ValueError):
            construct_exchange(Group(8), 2)

    def test_classification_deterministic(self):
        g = Group(9)
        T = construct_exchange(g, 2, True)
        c1 = classify_exchange(T, seed=11)
        c2 = classify_exchange(T, seed=11)
        assert c1 == c2

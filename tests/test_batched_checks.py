"""The stacked sampled checkers against their signal-by-signal oracles.

Every check draws all of its signals at once, forms both sides of all its
cases as stacked arrays and scores them in one pass; only the operator's own
evaluations run one signal at a time.  Each test runs the library and the
oracle of tests/helpers.py on the same operator and asserts bit-identical
outcomes (report, witness, classification or exception) and, for a recording
black box, the same sequence of inputs; classify_exchange's continues past
the oracle's to the end of the step where the oracle stopped.
"""

import math
import warnings

import numpy as np
import pytest

from convalg import (Group, Operator, Signal, check_conv_homomorphism,
                     check_exchange_axioms, check_involution_symmetry,
                     classify_exchange, construct_exchange, dft)
from convalg.errors import FinalSweepViolation, FixedPointViolation
from convalg.exchange import SWEEP_SIGNALS
from convalg.operators import random_values

from helpers import (disc_signal, naive_classify_exchange, naive_exchange_axioms,
                     naive_involution, naive_sampled_check, outcome, recording)

SIZES = [(1,), (2,), (3,), (16,), (64,), (2, 3), (4, 4)]
HUGE = 1.5e308 * (1 + 1j)       # finite, but its modulus overflows


def box_maps(group: Group) -> dict:
    """Black-box evaluators by name, passing some checks and failing others."""
    n = group.order
    rng = np.random.default_rng([n, 5])
    bump = rng.normal(size=n) + 1j * rng.normal(size=n)

    def unitary(a):
        return Signal(group, dft(a).values / np.sqrt(n))

    return {
        "identity": lambda a: a,
        "dft": dft,
        "unitary-dft": unitary,
        "conjugate": lambda a: Signal(group, np.conj(a.values)),
        "plus-one": lambda a: Signal(group, a.values + 1.0),
        "square": lambda a: Signal(group, a.values ** 2),
        "leaky-dft": lambda a: Signal(group, dft(a).values + 0.01 * a.values[0] * bump),
        "noisy-identity": lambda a: Signal(group, a.values + 1e-13 * bump * a.values[-1]),
        "huge": lambda a: Signal(group, np.full(n, HUGE)),
    }


def zero(group: Group) -> Operator:
    return Operator.from_table(group, np.zeros((group.order, group.order)))


def same_run(batched, oracle, group: Group, fn):
    """Run both checks on recording boxes of fn; outcomes and inputs must agree."""
    seen, seen_oracle = [], []
    with np.errstate(all="ignore"):     # the huge box overflows on both routes
        got = outcome(batched, recording(group, fn, seen))
        want = outcome(oracle, recording(group, fn, seen_oracle))
    assert got == want
    return seen, seen_oracle


CASES = [(f, name) for f in SIZES for name in box_maps(Group(f))]


class TestStackedDraw:
    @pytest.mark.parametrize("factors", SIZES)
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_equals_single_draws(self, factors, count):
        g = Group(factors)
        rng = np.random.default_rng(3)
        singles = [disc_signal(g, rng).values for _ in range(count)]
        stacked = random_values(g, np.random.default_rng(3), count)
        assert stacked.shape == (count, g.order)
        singles = np.array(singles, dtype=complex).reshape(count, g.order)
        assert stacked.tobytes() == singles.tobytes()


class TestSampledConvCheck:
    @pytest.mark.parametrize("factors,name", CASES)
    @pytest.mark.parametrize("count", [1, 5])
    def test_black_box(self, factors, name, count):
        g = Group(factors)
        fn = box_maps(g)[name]
        seen, seen_oracle = same_run(
            lambda T: check_conv_homomorphism(T, "sampled", count=count, seed=4),
            lambda T: naive_sampled_check(T, count, 4), g, fn)
        assert seen == seen_oracle

    @pytest.mark.parametrize("factors", SIZES)
    @pytest.mark.parametrize("make", [Operator.dft, Operator.identity, zero])
    def test_dense(self, factors, make):
        T = make(Group(factors))
        assert (outcome(check_conv_homomorphism, T, "sampled", count=6, seed=2)
                == outcome(naive_sampled_check, T, 6, 2))

    def test_passes_and_fails_are_both_covered(self):
        g = Group(16)
        maps = box_maps(g)
        assert check_conv_homomorphism(Operator.from_function(g, maps["dft"]),
                                       "sampled", count=3).passed
        assert not check_conv_homomorphism(Operator.from_function(g, maps["leaky-dft"]),
                                           "sampled", count=3).passed


class TestExchangeAxioms:
    @pytest.mark.parametrize("factors,name", CASES)
    @pytest.mark.parametrize("count", [0, 3])
    def test_black_box(self, factors, name, count):
        g = Group(factors)
        seen, seen_oracle = same_run(lambda T: check_exchange_axioms(T, count=count, seed=6),
                                     lambda T: naive_exchange_axioms(T, count, 6),
                                     g, box_maps(g)[name])
        assert seen == seen_oracle

    @pytest.mark.parametrize("factors", SIZES)
    @pytest.mark.parametrize("make", [Operator.dft, Operator.identity, zero])
    def test_dense(self, factors, make):
        T = make(Group(factors))
        assert (outcome(check_exchange_axioms, T, count=2, seed=8)
                == outcome(naive_exchange_axioms, T, 2, 8))


class TestInvolution:
    @pytest.mark.parametrize("factors,name", CASES)
    @pytest.mark.parametrize("samples", [1, 4])
    def test_black_box(self, factors, name, samples):
        g = Group(factors)
        seen, seen_oracle = same_run(
            lambda T: check_involution_symmetry(T, samples=samples, seed=2),
            lambda T: naive_involution(T, samples=samples, seed=2), g, box_maps(g)[name])
        assert seen == seen_oracle

    @pytest.mark.parametrize("factors", SIZES)
    @pytest.mark.parametrize("unitary", [False, True])
    def test_dense(self, factors, unitary):
        T = Operator.dft(Group(factors), unitary=unitary)
        assert (outcome(check_involution_symmetry, T, samples=3, seed=1)
                == outcome(naive_involution, T, samples=3, seed=1))


def exchange_maps(n: int) -> dict:
    """Black boxes on Z/n that pass classify_exchange or fail one of its steps."""
    eta = max(u for u in range(1, n) if math.gcd(u, n) == 1) if n > 1 else 1
    perm = (eta * np.arange(n)) % n

    def reindex(p, conjugate=False):
        def run(a):
            v = np.empty(n, dtype=complex)
            v[p] = np.conj(a.values) if conjugate else a.values
            return Signal(a.group, v)
        return run

    def structured(a):
        # a point mass, or a constant
        v = a.values
        return np.count_nonzero(v) == 1 and 1 in v or np.all(v == v[0])

    def on_generic(image):
        # the identity on point masses and constants, image(a) elsewhere
        return lambda a: a if structured(a) else Signal(a.group, image(a.values))

    swapped = perm.copy()
    if n > 3:
        swapped[[2, 3]] = swapped[[3, 2]]
    shared = next((u for u in range(2, n) if math.gcd(u, n) > 1), None)
    not_coprime = np.arange(n)
    if shared:
        not_coprime[[1, shared]] = [shared, 1]
    return {
        "reindex": reindex(perm),
        "reindex-conjugate": reindex(perm, True),
        "noisy": lambda a: Signal(a.group, reindex(perm)(a).values * (1 + 1e-12j)),
        "shift": lambda a: Signal(a.group, a.values + 1.0),
        # doubles every point mass but delta_0
        "early-delta": lambda a: (Signal(a.group, 2 * a.values)
                                  if a.values[0] == 0 and np.count_nonzero(a.values) == 1
                                  and 1 in a.values else a),
        "not-coprime": reindex(not_coprime),
        "inconsistent": reindex(swapped),
        "scaled-constants": lambda a: Signal(a.group, a.values * 1.1) if (
            np.all(a.values == a.values[0]) and a.values[0] not in (0, 1)) else a,
        # fails the sweep only on signals with a large first entry, which
        # the sweep meets after some that pass
        "late-sweep": on_generic(lambda v: v + (abs(v[0]) > 0.95) * 0.5),
        "huge-generic": on_generic(lambda v: np.full(n, HUGE)),
        "huge-delta0": lambda a: (Signal(a.group, np.full(n, HUGE))
                                  if a.values[0] == 1 and np.count_nonzero(a.values) == 1
                                  else a),
    }


def step_ends(n: int) -> list:
    """How many signals classify_exchange has evaluated by the end of each step."""
    return [0, 3, 3 + n - 1, 3 + n - 1 + 4, 3 + n - 1 + 4 + SWEEP_SIGNALS]


class TestClassifyExchange:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("name", list(exchange_maps(16)))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_black_box(self, n, name, seed):
        g = Group(n)
        seen, seen_oracle = same_run(lambda T: classify_exchange(T, seed=seed),
                                     lambda T: naive_classify_exchange(T, seed=seed),
                                     g, exchange_maps(n)[name])
        # each step evaluates its whole probe stack before it judges the first
        # row, where the oracle stops at the first that fails
        assert seen[:len(seen_oracle)] == seen_oracle
        assert len(seen) == min(s for s in step_ends(n) if s >= len(seen_oracle))

    def test_step_outcomes_are_all_covered(self):
        got = {name: outcome(classify_exchange, Operator.from_function(Group(16), fn))
               for name, fn in exchange_maps(16).items()}
        got = {name: text.split("(")[0] for name, text in got.items()}
        assert got == {
            "reindex": "ExchangeClassification", "reindex-conjugate": "ExchangeClassification",
            "noisy": "ExchangeClassification", "shift": "FixedPointViolation",
            "early-delta": "DeltaImageNotDelta", "not-coprime": "EtaNotCoprime",
            "inconsistent": "DeltaImageInconsistent",
            "scaled-constants": "BetaNotIdentityOrConjugation",
            "late-sweep": "FinalSweepViolation", "huge-generic": "FinalSweepViolation",
            "huge-delta0": "FixedPointViolation"}

    def test_each_outcome_evaluates_its_steps_in_full(self):
        # 3 fixed points, 15 point masses, 4 scalar probes, 32 sweep signals
        counts = {}
        for name, fn in exchange_maps(16).items():
            seen = []
            outcome(classify_exchange, recording(Group(16), fn, seen))
            counts[name] = len(seen)
        assert counts == {
            "reindex": 54, "reindex-conjugate": 54, "noisy": 54, "shift": 3,
            "early-delta": 18, "not-coprime": 18, "inconsistent": 18,
            "scaled-constants": 22, "late-sweep": 54, "huge-generic": 54,
            "huge-delta0": 3}

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("eta_conj", [(1, False), (-1, True)])
    def test_dense_and_canonical(self, n, eta_conj):
        eta, conjugate = eta_conj[0] % n, eta_conj[1]
        T = construct_exchange(Group(n), eta, conjugate)
        assert outcome(classify_exchange, T) == outcome(naive_classify_exchange, T)
        D = T.to_dense()
        assert outcome(classify_exchange, D) == outcome(naive_classify_exchange, D)


class TestNanResidualFails:
    """A black box whose image overflows |.| gives a NaN residual: it fails."""

    def test_generic_signals_sent_to_huge_constant(self):
        T = Operator.from_function(Group(8), exchange_maps(8)["huge-generic"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FinalSweepViolation) as err:
                classify_exchange(T)
        assert math.isnan(err.value.residual)
        assert err.value.witness.identity == "T(a)(eta j) = a(j)"

    def test_delta0_sent_to_huge_constant(self):
        T = Operator.from_function(Group(8), exchange_maps(8)["huge-delta0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointViolation) as err:
                classify_exchange(T)
        assert err.value.details["which"] == "delta_0"
        assert math.isnan(err.value.details["residual"])

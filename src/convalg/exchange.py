"""Recovery of bijective maps that preserve both products on Z/nZ.

A bijection T (not necessarily linear) with

    T(a.b) = T(a).T(b)      and      T(a*b) = T(a)*T(b)

is a unit reindexing, possibly composed with entrywise conjugation:
T(a)(eta*j) = a(j) or conj(a(j)) for a single eta coprime to n.  The
classifier runs the recovery as a four-step procedure, raising the
step-specific error on the first failure:

  1. fixed points:  T(delta_0) = delta_0, T(ones) = ones, T(zeros) = zeros
  2. point masses:  T(delta_j) = delta_{sigma(j)} with sigma(j) = j*sigma(1)
                    and gcd(sigma(1), n) = 1
  3. scalar action: beta(c) = E[T((c/n)*ones)] lies in {c, conj(c)} on a
                    probe set; beta(i) picks the conjugation branch
  4. final sweep:   T(a) = construct_exchange(eta, conjugate)(a), that is
                    T(a)(eta*j) = a(j) (or conjugate), on seeded random signals

The crossed variant (product to convolution and back) classifies the
composition with the inverse transform and reports the same parameters
for that composed map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BetaNotIdentityOrConjugation, DeltaImageInconsistent,
                     DeltaImageNotDelta, EtaNotCoprime, FinalSweepViolation,
                     FixedPointViolation)
from .groups import Group, Signal, constant, delta, expectation
from .operators import (DEFAULT_TOL, AxiomReport, Operator, Witness, apply,
                        check_identities, compose, random_signal, rel_residual)

SWEEP_SIGNALS = 32
_BETA_BASE = (2.0, 3.0, 1.5, 1j)   # 1 + t for t in {0.5, 1, 2}, plus i


@dataclass(frozen=True)
class ExchangeClassification:
    eta: int
    conjugate: bool
    variant: str            # "direct" or "fourier"
    residual: float


def beta_of(T: Operator, c: complex) -> complex:
    """The scalar action beta(c) = E[T((c/n) * ones)]."""
    n = T.group.order
    return expectation(apply(T, constant(T.group, c / n)))


def construct_exchange(group: Group, eta: int, conjugate: bool = False) -> Operator:
    """The canonical map with T(a)(eta*j) = a(j), conjugated if asked.

    Explicitly: T(a)(m) = a(eta^{-1} m), so eta must be a unit mod n.
    """
    n = group.n
    if math.gcd(eta, n) != 1:
        raise ValueError(f"eta={eta} is not coprime to n={n}")
    inv = pow(eta, -1, n)
    perm = (inv * np.arange(n)) % n

    def run(a: Signal) -> Signal:
        v = a.values[perm]
        return Signal(group, np.conj(v) if conjugate else v)

    return Operator.from_function(group, run)


def _is_delta(values: np.ndarray, tol: float) -> int | None:
    """Index of the single entry ~1 if the rest are ~0, else None."""
    near_one = np.abs(values - 1.0) <= tol
    if np.count_nonzero(near_one) != 1:
        return None
    m = int(np.argmax(near_one))
    rest = np.abs(np.delete(values, m))
    if rest.size and rest.max() > tol:
        return None
    return m


def classify_exchange(T: Operator, tol: float = DEFAULT_TOL, *,
                      seed: int = 0) -> ExchangeClassification:
    """Run the four-step recovery; returns (eta, conjugate) on success."""
    group = T.group
    n = group.n
    if n < 2:
        raise ValueError("exchange classification needs n >= 2")
    residual = 0.0

    # step 1: fixed points
    for name, sig in (("delta_0", delta(group, 0)),
                      ("ones", constant(group, 1.0)),
                      ("zeros", constant(group, 0.0))):
        r = rel_residual(apply(T, sig).values, sig.values)
        if r > tol:
            raise FixedPointViolation(name, r)
        residual = max(residual, r)

    # step 2: point masses map to point masses, multiplicatively
    sigma = np.zeros(n, dtype=int)
    for j in range(1, n):
        img = apply(T, delta(group, j)).values
        m = _is_delta(img, tol)
        if m is None:
            raise DeltaImageNotDelta(j)
        sigma[j] = m
    eta = int(sigma[1])
    if math.gcd(eta, n) != 1:
        raise EtaNotCoprime(eta, n)
    for j in range(1, n):
        if sigma[j] != (j * eta) % n:
            raise DeltaImageInconsistent(j, int(sigma[j]), (j * eta) % n)

    # step 3: scalar action is the identity or conjugation
    for c in _BETA_BASE:
        b = beta_of(T, c)
        if min(abs(b - c), abs(b - np.conj(c))) > tol * (1.0 + abs(c)):
            raise BetaNotIdentityOrConjugation(c, b)
        residual = max(residual, min(abs(b - c), abs(b - np.conj(c))) / (1.0 + abs(c)))
    b_i = b                             # beta(i): i is the last probe
    d_id, d_conj = abs(b_i - 1j), abs(b_i + 1j)
    conjugate = d_conj < d_id
    if min(d_id, d_conj) > tol or max(d_id, d_conj) < 1.0:
        raise BetaNotIdentityOrConjugation(1j, b_i)

    # step 4: full-signal sweep of the recovered form
    rng = np.random.default_rng(seed)
    canonical = construct_exchange(group, eta, conjugate)
    for _ in range(SWEEP_SIGNALS):
        a = random_signal(group, rng)
        lhs = apply(T, a).values
        rhs = apply(canonical, a).values
        r = rel_residual(lhs, rhs)
        if r > tol:
            raise FinalSweepViolation(
                Witness("T(a)(eta j) = a(j)" + (" conjugated" if conjugate else ""),
                        (a,), lhs, rhs, r), r)
        residual = max(residual, r)

    return ExchangeClassification(eta, conjugate, "direct", residual)


def classify_fourier_exchange(T: Operator, tol: float = DEFAULT_TOL, *,
                              seed: int = 0) -> ExchangeClassification:
    """Classify a map expected to swap the two products.

    Composes the inverse transform in front of T and classifies that
    composition; the returned (eta, conjugate) are the composed map's
    parameters, so on the identity branch T(a)(j) = ahat(eta * j).
    """
    tilde = compose(Operator.idft(T.group), T)
    base = classify_exchange(tilde, tol, seed=seed)
    return ExchangeClassification(base.eta, base.conjugate, "fourier", base.residual)


def check_involution_symmetry(T: Operator, tol: float = DEFAULT_TOL, *,
                              samples: int = 16, seed: int = 0) -> AxiomReport:
    """Check T(T(a))(k) = a(-k) on `samples` (at least 1) seeded random signals."""
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    group = T.group
    n = group.order
    rng = np.random.default_rng(seed)
    neg = (-np.arange(n)) % n

    def cases():
        for _ in range(samples):
            a = random_signal(group, rng)
            yield "T(T(a))(k) = a(-k)", (a,), apply(T, apply(T, a)).values, a.values[neg]
    return check_identities(cases(), tol)

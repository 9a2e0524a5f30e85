"""Recovery of bijective maps that preserve both products on Z/nZ.

A bijection T (not necessarily linear) with

    T(a.b) = T(a).T(b)      and      T(a*b) = T(a)*T(b)

is a unit reindexing, possibly composed with entrywise conjugation:
T(a)(eta*j) = a(j) or conj(a(j)) for a single eta coprime to n.  The
classifier runs the recovery as a four-step procedure.  Each step meets T
through operators.apply_each: it evaluates its whole probe stack, then
judges the rows in order and raises the step-specific error at the first
that fails:

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
from .groups import SNAP_FLOOR, Group, Signal, negation
from .operators import (DEFAULT_TOL, AxiomReport, Operator, apply, apply_each,
                        check_identities, compose, random_values, rel_residuals)

SWEEP_SIGNALS = 32
_BETA_BASE = (2.0, 3.0, 1.5, 1j)   # 1 + t for t in {0.5, 1, 2}, plus i


@dataclass(frozen=True)
class ExchangeClassification:
    eta: int
    conjugate: bool
    variant: str            # "direct" or "fourier"
    residual: float


def construct_exchange(group: Group, eta: int, conjugate: bool = False) -> Operator:
    """The canonical map with T(a)(eta*j) = a(j), conjugated if asked.

    Explicitly: T(a)(m) = a(eta^{-1} m), so eta must be a unit mod n.
    """
    n = group.n
    if math.gcd(eta, n) != 1:
        raise ValueError(f"eta={eta} is not coprime to n={n}")
    perm = _reindex(eta, n)

    def run(a: Signal) -> Signal:
        v = a.values[perm]
        return Signal(group, np.conj(v) if conjugate else v)

    return Operator.from_function(group, run)


def _reindex(eta: int, n: int) -> np.ndarray:
    """Entry m is eta^{-1} m mod n, so that a[_reindex(eta, n)] is a(eta^{-1} .)."""
    return (pow(eta, -1, n) * np.arange(n)) % n


@np.errstate(over="ignore", invalid="ignore")    # an overflowed residual is NaN, and fails
def classify_exchange(T: Operator, tol: float = DEFAULT_TOL, *,
                      seed: int = 0) -> ExchangeClassification:
    """Run the four-step recovery; returns (eta, conjugate) on success."""
    group = T.group
    n = group.n
    if n < 2:
        raise ValueError("exchange classification needs n >= 2")

    # step 1: fixed points
    fixed = np.stack([np.eye(1, n)[0], np.ones(n), np.zeros(n)])
    res = rel_residuals(apply_each(T, fixed)[0], fixed).tolist()
    for name, r in zip(("delta_0", "ones", "zeros"), res):
        if not r <= tol:
            raise FixedPointViolation(name, r)
    residual = max(res)

    # step 2: point masses map to point masses (one entry within SNAP_FLOOR * tol
    # of 1, the rest of 0), multiplicatively
    img = apply_each(T, np.eye(n)[1:])[0]
    snap = SNAP_FLOOR * tol
    near_one = np.abs(img - 1.0) <= snap
    sigma = np.concatenate([[0], np.argmax(near_one, axis=1)])
    rest = np.abs(img)
    rest[np.arange(n - 1), sigma[1:]] = 0.0
    bad = np.flatnonzero((np.count_nonzero(near_one, axis=1) != 1) | (rest.max(axis=1) > snap))
    if bad.size:
        raise DeltaImageNotDelta(int(bad[0]) + 1)
    eta = int(sigma[1])
    if math.gcd(eta, n) != 1:
        raise EtaNotCoprime(eta, n)
    for j in range(1, n):
        if sigma[j] != (j * eta) % n:
            raise DeltaImageInconsistent(j, int(sigma[j]), (j * eta) % n)

    # step 3: scalar action is the identity or conjugation; Python's c / n, as
    # numpy's complex division by n rounds differently
    scaled = apply_each(T, np.outer([c / n for c in _BETA_BASE], np.ones(n)))[0]
    for c, row in zip(_BETA_BASE, scaled):
        b = complex(np.sum(row))
        if min(abs(b - c), abs(b - np.conj(c))) > tol * (1.0 + abs(c)):
            raise BetaNotIdentityOrConjugation(c, b)
        residual = max(residual, min(abs(b - c), abs(b - np.conj(c))) / (1.0 + abs(c)))
    conjugate = abs(b + 1j) < abs(b - 1j)   # b = beta(i): i is the last probe

    # step 4: full-signal sweep of the recovered form
    a = random_values(group, np.random.default_rng(seed), SWEEP_SIGNALS)
    rhs = a[:, _reindex(eta, n)]
    if conjugate:
        rhs = np.conj(rhs)
    report = check_identities(apply_each(T, a)[0], rhs, tol, lambda k: (
        "T(a)(eta j) = a(j)" + (" conjugated" if conjugate else ""), (Signal(group, a[k]),)))
    if not report.passed:
        raise FinalSweepViolation(report.witness, report.witness.residual)
    residual = max(residual, report.max_residual)

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


@np.errstate(over="ignore", invalid="ignore")
def check_involution_symmetry(T: Operator, tol: float = DEFAULT_TOL, *,
                              samples: int = 16, seed: int = 0) -> AxiomReport:
    """Check T(T(a))(k) = a(-k), -k per factor, on `samples` (>= 1) seeded random signals."""
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    group = T.group
    a = random_values(group, np.random.default_rng(seed), samples)
    # not compose(T, T), which multiplies a dense T's table by itself and rounds differently
    lhs = apply_each(Operator.from_function(group, lambda x: apply(T, apply(T, x))), a)[0]
    return check_identities(lhs, a[:, negation(group)], tol,
                            lambda i: ("T(T(a))(k) = a(-k)", (Signal(group, a[i]),)))

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from convalg import (Group, Operator, check_conv_homomorphism, classify,
                     classify_exchange, classify_intertwiner, construct,
                     construct_exchange, construct_intertwiner, recover_frequency)
from convalg.errors import ClassificationError, FixedPointViolation
from convalg.groups import Signal
from convalg.torus import TorusGrid, character, check_character_equation
from convalg.twisted import PlaneGrid, gaussian_pair, verify_rho_homomorphism

from helpers import PhaseFunction, check_intertwining


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE  {name}: {status}{suffix}")


def random_support_sigma(n, rng):
    mask = rng.uniform(size=n) < 0.7
    support = [e for e in range(n) if mask[e]]
    sigma = {e: int(rng.integers(0, n)) for e in support}
    return support, sigma


def test_conv_roundtrip_exactness():
    """Canonical-form round trip over n = 2..12, 100 draws each, < 10 s."""
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(2, 13):
        rng = np.random.default_rng(1000 + n)
        g = Group(n)
        for _ in range(100):
            support, sigma = random_support_sigma(n, rng)
            cls = classify(construct(g, support, sigma), tol=1e-9)
            ok &= list(cls.support) == support and dict(cls.sigma) == sigma
            ok &= cls.residual <= 1e-10
            worst = max(worst, cls.residual)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report("conv round trip n=2..12 x100", ok,
           f"worst residual {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_transform_canonical_form():
    """The transform table itself: axiom residual <= 1e-10, sigma = identity."""
    ok = True
    for n in range(2, 17):
        T = Operator.dft(Group(n))
        rep = check_conv_homomorphism(T, "basis", tol=1e-9)
        ok &= rep.passed and rep.max_residual <= 1e-10
        cls = classify(T, tol=1e-9)
        ok &= cls.support == tuple(range(n))
        ok &= cls.sigma == {e: e for e in range(n)}
    report("transform canonical form n=2..16", ok)
    assert ok


def test_root_of_unity_lattice():
    """Surviving rows' generator values sit on exactly one lattice root."""
    ok = True
    for n in range(2, 13):
        rng = np.random.default_rng(2000 + n)
        g = Group(n)
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        for _ in range(20):
            support, sigma = random_support_sigma(n, rng)
            T = construct(g, support, sigma)
            cls = classify(T, tol=1e-9)
            for eta in cls.support:
                hits = np.count_nonzero(np.abs(roots - T.table[eta, 1]) <= 1e-8)
                ok &= hits == 1
    report("root-of-unity lattice", ok)
    assert ok


def test_negative_control():
    """>= 99% of 1000 random unit-disc tables fail, each with a witness."""
    n = 8
    rng = np.random.default_rng(3000)
    failed = 0
    witnesses = 0
    for _ in range(1000):
        r = np.sqrt(rng.uniform(0, 1, (n, n)))
        th = rng.uniform(0, 2 * np.pi, (n, n))
        T = Operator.from_table(Group(n), r * np.exp(1j * th))
        rep = check_conv_homomorphism(T, "basis", tol=1e-9)
        if not rep.passed and rep.max_residual > 1e-2:
            failed += 1
            witnesses += rep.witness is not None
    ok = failed >= 990 and witnesses == failed
    report("negative control 1000 random tables", ok,
           f"{failed} failed, {witnesses} witnesses")
    assert ok


def test_exchange_recovery_and_rejection():
    """Unit/conjugation recovery for n in {5, 8, 12}; rejection taxonomy."""
    ok = True
    for n in (5, 8, 12):
        g = Group(n)
        for eta in (e for e in range(1, n) if math.gcd(e, n) == 1):
            for flag in (False, True):
                cls = classify_exchange(construct_exchange(g, eta, flag),
                                        tol=1e-9)
                ok &= (cls.eta, cls.conjugate) == (eta, flag)
    errors = []
    g8 = Group(8)
    for mapping in (lambda a: Signal(g8, 2 * a.values),
                    lambda a: Signal(g8, a.values[(2 * np.arange(8)) % 8])):
        try:
            classify_exchange(Operator.from_function(g8, mapping), tol=1e-9)
            errors.append(None)
        except ClassificationError as exc:
            errors.append(type(exc))
    rejected = all(e is not None and issubclass(e, ClassificationError)
                   for e in errors)
    # both canonical counterexamples break at the fixed-point step first
    rejected &= all(e is FixedPointViolation for e in errors)
    ok &= rejected
    report("exchange recovery n=5,8,12 + rejections", ok,
           f"rejections: {[e.__name__ for e in errors if e]}")
    assert ok


def test_intertwiner_roundtrip():
    """100 seeded parameter draws at n in {4, 8, 16}."""
    ok = True
    worst_rel = 0.0
    for n in (4, 8, 16):
        g = Group(n)
        rng = np.random.default_rng(4000 + n)
        for _ in range(100):
            k0, m0, m1 = (int(rng.integers(0, n)) for _ in range(3))
            c = 0.0
            while abs(c) < 0.3:
                c = complex(rng.normal(), rng.normal())
            T = construct_intertwiner(g, k0, m0, m1, c)
            rep = check_intertwining(T, PhaseFunction.affine(g, k0, m0),
                                     PhaseFunction.affine(g, -k0, m1),
                                     tol=1e-11)
            ok &= rep.max_residual <= 1e-11
            worst_rel = max(worst_rel, rep.max_residual)
            cls = classify_intertwiner(T, tol=1e-9)
            ok &= (cls.k0, cls.m0, cls.m1) == (k0, m0, m1)
            ok &= abs(cls.c - c) <= 1e-9 * abs(c)
    report("intertwiner round trip n=4,8,16 x100", ok,
           f"worst relation residual {worst_rel:.2e}")
    assert ok


def test_circle_frequency_recovery():
    """Exact recovery for |a| <= 10 under 1e-3 noise; exact characters to 1e-12."""
    M = 256
    grid = TorusGrid(M)
    ok = True
    worst_char = 0.0
    for a in range(-10, 11):
        h = character(grid, a)
        rep = check_character_equation(h, tol=1e-12)
        ok &= rep.passed
        worst_char = max(worst_char, rep.max_residual)
        rng = np.random.default_rng(5000 + a)
        r = 1e-3 * np.sqrt(rng.uniform(0, 1, M))
        th = rng.uniform(0, 2 * np.pi, M)
        noisy = h + r * np.exp(1j * th)
        ok &= recover_frequency(noisy, 1e-2) == a
    ok &= worst_char <= 1e-12
    report("circle-grid frequency recovery |a|<=10", ok,
           f"worst character residual {worst_char:.2e}")
    assert ok


def test_twisted_homomorphism_convergence():
    """Window of breadth 8: error <= 5e-2 at S=64, strictly smaller at S=128.

    Half-width 4 is the only self-consistent reading of the grid for these
    thresholds: the half-frequency phases need S >= (2L)^2 to resolve, and
    at half-width 8 the S=64/128 errors measure 0.11/0.18 instead.
    """
    t0 = time.perf_counter()
    e64 = verify_rho_homomorphism(gaussian_pair(PlaneGrid(4.0, 64)),
                                  gaussian_pair(PlaneGrid(4.0, 64)))
    f128 = gaussian_pair(PlaneGrid(4.0, 128))
    t128 = time.perf_counter()
    e128 = verify_rho_homomorphism(f128, f128)
    elapsed128 = time.perf_counter() - t128
    ok = e64.relative_error <= 5e-2
    ok &= e128.relative_error < e64.relative_error
    ok &= elapsed128 < 60.0
    report("twisted homomorphism convergence", ok,
           f"err(64)={e64.relative_error:.2e}, err(128)={e128.relative_error:.2e}, "
           f"S=128 in {elapsed128:.2f}s")
    assert ok


def test_cross_module_consistency():
    """Pure frequency dilations classify identically in both frameworks."""
    ok = True
    for n in range(2, 9):
        g = Group(n)
        for k0 in range(n):
            T = construct_intertwiner(g, k0, 0, 0, 1)
            rep = check_conv_homomorphism(T, "basis", tol=1e-9)
            ok &= rep.passed
            cls = classify(T, tol=1e-9)
            ok &= cls.support == tuple(range(n))
            ok &= cls.sigma == {ell: (k0 * ell) % n for ell in range(n)}
    report("cross-module consistency n<=8", ok)
    assert ok

"""Canonical form of linear convolution-to-product homomorphisms on Z/nZ.

Every linear T with T(f * g) = T(f).T(g) acts row by row through a group
homomorphism pi_eta(k) = T(delta_k)(eta) into C.  Each pi_eta either
vanishes identically or is a character k -> e^{-2i pi k sigma(eta) / n},
so T is determined by a support set E and a frequency map sigma:

    T(f)(eta) = chi_E(eta) * fhat(sigma(eta))

classify() recovers (E, sigma) once the basis check passes, each row judged
zero or a character by groups.snap_characters, or raises the step at which
the row structure breaks; construct() builds the table back from (E, sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AxiomViolation, NotRootOfUnity, RowNotHomomorphic
from .groups import SNAP_FLOOR, Group, nearest_characters, snap_characters, unit_roots
from .operators import DEFAULT_TOL, Operator, check_conv_homomorphism, rel_residual


@dataclass(frozen=True)
class ConvClassification:
    """Support set, frequency map on the support, and the rebuild residual."""

    support: tuple[int, ...]
    sigma: Mapping[int, int]
    residual: float


def classify(T: Operator, tol: float = DEFAULT_TOL) -> ConvClassification:
    """Recover (support, sigma) from a dense operator passing the basis check.

    Each row is then judged by groups.snap_characters at SNAP_FLOOR * tol: it
    vanishes (eta excluded), or it has sup norm 1 and lies within that gate, in
    sup distance, of its nearest character k -> e^{-2i pi k sigma / n}.  Raises
    RowNotHomomorphic / NotRootOfUnity at the first row of neither shape, and
    AxiomViolation when the basis check itself fails at tol.
    """
    if not T.is_dense:
        raise ValueError("classification needs a dense operator")
    if not T.group.is_cyclic:
        raise ValueError("classification is defined for a single cyclic factor")
    report = check_conv_homomorphism(T, "basis", tol=tol)
    if not report.passed:
        raise AxiomViolation(report)
    n, table = T.group.n, T.table
    m, dist = nearest = nearest_characters(table)
    on, canonical, fails = snap_characters(table, SNAP_FLOOR * tol, nearest)
    bad = np.flatnonzero(fails)
    if bad.size:
        eta = int(bad[0])
        if fails[eta] == 1:
            raise RowNotHomomorphic(eta, float(np.max(np.abs(table[eta]))))
        raise NotRootOfUnity(eta, complex(table[eta, 1 % n]), float(dist[eta]))
    sigma = {eta: int(-m[eta]) % n for eta in np.flatnonzero(on).tolist()}
    return ConvClassification(tuple(sigma), sigma, rel_residual(table, canonical))


def construct(group: Group, support, sigma: Mapping[int, int]) -> Operator:
    """Dense table of T(f)(eta) = chi_E(eta) fhat(sigma(eta)).

    The support lies in 0..n-1 and sigma must be defined exactly on it, with
    values in 0..n-1; it need not be injective (any map gives a valid
    homomorphism).  A ValueError names the first eta breaking these rules.
    """
    if not group.is_cyclic:
        raise ValueError("canonical tables are defined for a single cyclic factor")
    n = group.n
    support = sorted(map(int, support))
    on_support = set(support)
    for eta in sorted(on_support | set(sigma)):
        if not 0 <= eta < n or eta not in on_support or eta not in sigma:
            raise ValueError(f"eta = {eta}: the support must lie in 0..{n - 1} "
                             f"and sigma be defined exactly on it")
        if not 0 <= int(sigma[eta]) < n:
            raise ValueError(f"sigma({eta}) = {sigma[eta]} is out of range 0..{n - 1}")
    table = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n)
    for eta in support:
        table[eta] = unit_roots(-k * int(sigma[eta]), n)
    return Operator.from_table(group, table)


"""Operators intertwining translations with modulations on Z/nZ.

With tau_k a(j) = a(j+k) and M_k^(phi) a(j) = e^{k phi(j)} a(j), a nonzero
linear T satisfying

    T tau_k = M_k^(phi) T      and      T M_k^(psi) = tau_k T

forces phi and psi affine on the 2i*pi/n lattice and T into the family

    T(a)(l) = c e^{2i pi l m1 / n} ahat(k0 l + m0),

parametrized by (k0, m0, m1) in Z/nZ and a nonzero scalar c = T(delta_0)(0).
construct_intertwiner builds the table from the parameters; classify reads
(c, psi-column ratios, one first-row entry) back off the table, snaps the
phases to the lattice, and verifies the whole table against the rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (EntryVanishes, PhaseOffLattice, ReconstructionMismatch,
                     ZeroOperator)
from .groups import Group, snap_root, unit_roots
from .operators import DEFAULT_TOL, Operator, rel_residual


@dataclass(frozen=True)
class IntertwinerClassification:
    k0: int
    m0: int
    m1: int
    c: complex
    residual: float


def construct_intertwiner(group: Group, k0: int, m0: int, m1: int,
                          c: complex) -> Operator:
    """Table entry (row l, column j) = c e^{2i pi (l m1 - j (k0 l + m0)) / n}."""
    if c == 0:
        raise ValueError("c must be nonzero")
    n = group.n
    j = np.arange(n)
    ell = np.arange(n)[:, None]
    table = c * unit_roots(ell * m1 - j[None, :] * (k0 * ell + m0), n)
    return Operator.from_table(group, table)


def _lattice_index(z: complex, n: int, tol: float, j: int) -> int:
    """Index m with z ~ e^{2i pi m / n}; PhaseOffLattice if the snap misses."""
    m, dev = snap_root(z, n, tol)
    if m is None:
        raise PhaseOffLattice(j, dev)
    return m


def classify_intertwiner(T: Operator, tol: float = DEFAULT_TOL) -> IntertwinerClassification:
    """Recover (k0, m0, m1, c) from a dense canonical-form table.

    c is read at (0, 0); psi(j) from the row-1/row-0 ratio of column j;
    m1, k0, m0 from lattice snaps of psi(0), psi(0)-psi(1) and the first-row
    entry of column 1.  The full table is then verified against the rebuild:
    their rel_residual must stay within n * tol.
    """
    if not T.is_dense:
        raise ValueError("classification needs a dense operator")
    n = T.group.n
    D = T.table
    mags = np.abs(D)
    if float(mags.max()) <= tol:
        raise ZeroOperator()
    if float(mags.min()) <= tol:
        ell, j = np.unravel_index(int(np.argmin(mags)), D.shape)
        raise EntryVanishes(int(j), int(ell))
    c = complex(D[0, 0])
    if n == 1:
        return IntertwinerClassification(0, 0, 0, c, 0.0)
    ratios = D[1, :] / D[0, :]                    # e^{psi(j)}
    m1 = _lattice_index(complex(ratios[0]), n, tol, 0)
    psi1 = _lattice_index(complex(ratios[1]), n, tol, 1)
    k0 = (m1 - psi1) % n
    m0 = _lattice_index(complex(c / D[0, 1]), n, tol, 1)
    rebuilt = construct_intertwiner(T.group, k0, m0, m1, c)
    residual = rel_residual(D, rebuilt.table)
    if residual > n * tol:
        raise ReconstructionMismatch(residual)
    return IntertwinerClassification(k0, m0, m1, c, residual)

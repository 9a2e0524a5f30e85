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
from .groups import Group, Signal, snap_root, unit_roots
from .operators import DEFAULT_TOL, AxiomReport, Operator, Witness, rel_residual


@dataclass(frozen=True)
class PhaseFunction:
    """n phase exponents, stored purely imaginary with angle in [0, 2pi)."""

    values: tuple[complex, ...]

    def __init__(self, values, tol: float = 1e-9):
        vals = []
        for v in values:
            v = complex(v)
            if abs(v.real) > tol:
                raise ValueError(
                    f"phase exponent {v!r} has a nonzero real part; "
                    "only unimodular modulations are representable")
            vals.append(1j * (v.imag % (2.0 * np.pi)))
        object.__setattr__(self, "values", tuple(vals))

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def affine(cls, group: Group, slope: int, offset: int) -> "PhaseFunction":
        """phi(j) = (2i pi / n) (slope * j + offset)."""
        n = group.n
        j = np.arange(n)
        return cls(2j * np.pi * ((slope * j + offset) % n) / n)

    def factors(self, k: int) -> np.ndarray:
        """The modulation weights e^{k phi(j)}."""
        return np.exp(k * np.asarray(self.values))


def translate(a: Signal, k: int) -> Signal:
    """tau_k a(j) = a(j + k mod n)."""
    return Signal(a.group, np.roll(a.values, -k))


def modulate(a: Signal, k: int, phi: PhaseFunction) -> Signal:
    """M_k^(phi) a(j) = e^{k phi(j)} a(j)."""
    if len(phi) != a.group.order:
        raise ValueError(
            f"phase function has {len(phi)} entries, signal has {a.group.order}")
    return Signal(a.group, phi.factors(k) * a.values)


@dataclass(frozen=True)
class IntertwinerClassification:
    k0: int
    m0: int
    m1: int
    c: complex
    residual: float

    def phases(self, group: Group) -> tuple[PhaseFunction, PhaseFunction]:
        """The (phi, psi) pair realized by these parameters."""
        return (PhaseFunction.affine(group, self.k0, self.m0),
                PhaseFunction.affine(group, -self.k0, self.m1))


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


def check_intertwining(T: Operator, phi: PhaseFunction,
                       psi: PhaseFunction, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Verify T tau_k = M_k^(phi) T and T M_k^(psi) = tau_k T for every k."""
    D = T.to_dense().table
    n = T.group.n
    worst = 0.0
    wit = None
    for k in range(n):
        # columns of T tau_k: (T tau_k) delta_j = T delta_{j-k}
        lhs1 = D[:, (np.arange(n) - k) % n]
        rhs1 = phi.factors(k)[:, None] * D
        # T M_k^(psi): scales column j by e^{k psi(j)}
        lhs2 = D * psi.factors(k)[None, :]
        rhs2 = np.roll(D, -k, axis=0)
        for name, lhs, rhs in (("T tau_k = M_k^(phi) T", lhs1, rhs1),
                               ("T M_k^(psi) = tau_k T", lhs2, rhs2)):
            r = rel_residual(lhs, rhs)
            if r > worst:
                worst = r
                if r > tol and wit is None:
                    wit = Witness(name, (k,), lhs, rhs, r)
    return AxiomReport(worst <= tol, worst, tol, witness=wit, checked=2 * n)


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
    entry of column 1.  The full table is then verified against the rebuild.
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
    residual = float(np.max(np.abs(D - rebuilt.table)))
    if residual > tol * (1.0 + abs(c)) * n:
        raise ReconstructionMismatch(residual)
    return IntertwinerClassification(k0, m0, m1, c, residual)

"""Kernel extraction and frequency recovery on a discretized circle.

An operator from grid functions on [0,1) to a window of integer
frequencies -N..N is a kernel operator: row xi of its table, divided by
the cell weight 1/M, is a sampled kernel h_xi with

    (T f)(xi) = (1/M) sum_i f(i/M) h_xi(i/M).

For operators turning convolutions into products each kernel satisfies the
character equation h((i+j) mod M) = h(i) h(j) on every grid pair (the grid
sum realizes the circle group law exactly), hence is either identically
zero or the sample of x -> e^{2i pi a x} for an integer a.  The classifier
reports the support and the frequency map phi with

    (T f)(xi) = chi_E(xi) fhat(phi(xi)),   fhat(nu) = (1/M) sum_i f_i e^{-2i pi nu i / M},

so phi(xi) = -a_xi for the character exponent a_xi in (-M/2, M/2], read
off the periodogram peak of the kernel; the Nyquist character e^{i pi M x}
gets a = +M/2, hence phi = -M/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (CharacterEquationViolation, NotUnimodular, SnapFailure)
from .groups import (SNAP_FLOOR, Group, character_certified, nearest_characters,
                     snap_characters, unit_roots)
from .operators import DEFAULT_TOL, AxiomReport, character_report, rel_residual


@dataclass(frozen=True)
class TorusGrid:
    """M uniform samples of [0, 1); cell weight 1/M."""

    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.M}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.M) / self.M

    @property
    def weight(self) -> float:
        return 1.0 / self.M


def character(grid: TorusGrid, a: int) -> np.ndarray:
    """Samples of x -> e^{2i pi a x}."""
    return unit_roots(a * np.arange(grid.M), grid.M)


@dataclass(frozen=True)
class KernelFamily:
    """Kernels h_xi indexed by the frequency window -N..N."""

    grid: TorusGrid
    N: int
    kernels: np.ndarray       # (2N+1, M), row r = kernel at xi = r - N

    def kernel(self, xi: int) -> np.ndarray:
        if not -self.N <= xi <= self.N:
            raise KeyError(f"frequency {xi} outside window -{self.N}..{self.N}")
        return self.kernels[xi + self.N]

    @property
    def frequencies(self) -> range:
        return range(-self.N, self.N + 1)


def extract_kernels(table: np.ndarray, grid: TorusGrid) -> KernelFamily:
    """Kernels from a dense (2N+1) x M table: h_xi = row / cell weight."""
    table = np.asarray(table, dtype=np.complex128)
    if table.ndim != 2 or table.shape[1] != grid.M or table.shape[0] % 2 == 0:
        raise ValueError(
            f"table must be (2N+1) x {grid.M} for the {grid.M}-point grid, "
            f"got {table.shape}")
    N = (table.shape[0] - 1) // 2
    return KernelFamily(grid, N, table / grid.weight)


def fourier_coefficient_operator(grid: TorusGrid, N: int) -> np.ndarray:
    """The map f -> (fhat(xi))_{xi=-N..N} as a dense table."""
    xi = np.arange(-N, N + 1)[:, None]
    return unit_roots(-xi * np.arange(grid.M)[None, :], grid.M) * grid.weight


def check_character_equation(h: np.ndarray, tol: float = DEFAULT_TOL) -> AxiomReport:
    """All grid pairs of h((i+j) mod M) = h(i) h(j); exact group law.

    Pairs are measured by operators.character_report, as in the basis
    check; the witness is the first failing pair (i, j) in row-major order.
    """
    return character_report(np.asarray(h)[None], Group(len(h)), tol, "h(x+y) = h(x) h(y)",
                            lambda i, j: (i, j))


def recover_frequency(h: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Frequency a in (-M/2, M/2] of a sampled character h ~ e^{2i pi a x}.

    groups.snap_characters at gate tol holds h unimodular (NotUnimodular, also
    when h vanishes) and within tol of the character at its periodogram peak
    (SnapFailure).  The Nyquist character e^{i pi M x} gets a = +M/2.  The
    caller is responsible for h having passed the character equation.
    """
    h = np.asarray(h, dtype=np.complex128)[None]
    nearest = nearest_characters(h)
    (on,), _, (fail,) = snap_characters(h, tol, nearest)
    if fail or not on:
        raise _rejection(h, nearest, 0, fail or 1)
    return int(_centred(nearest[0][0], h.shape[-1]))


def _centred(m, M: int):
    """Exponents m in [0, M) moved to (-M/2, M/2]."""
    return np.where(m > M // 2, m - M, m)


def _rejection(rows: np.ndarray, nearest, r: int, gate: int) -> Exception:
    """NotUnimodular for row r failing snap_characters' gate 1, SnapFailure for gate 2."""
    if gate == 1:
        return NotUnimodular(float(np.max(np.abs(rows[r]))))
    return SnapFailure(int(_centred(nearest[0][r], rows.shape[-1])), float(nearest[1][r]))


@dataclass(frozen=True)
class TorusClassification:
    """Support within -N..N and the frequency map of the canonical form."""

    support: tuple[int, ...]
    freq_map: Mapping[int, int]
    residual: float


def classify_torus_operator(family: KernelFamily,
                            tol: float = DEFAULT_TOL) -> TorusClassification:
    """Classify the kernels of (T f)(xi) = chi_E(xi) fhat(phi(xi)).

    Every kernel above tol in sup norm must first satisfy the character
    equation, by the bound of groups.character_certified or else by the check,
    in xi order; a violation names its xi.  groups.snap_characters then judges
    every kernel at SNAP_FLOOR * tol (the check passes c * chi for c up to about
    tol (1 + 2 tol)): zero, or a character whose exponent a gives phi(xi) = -a;
    a gate's rejection carries xi too.  One nearest_characters call on the
    family feeds the bound and the gates.  The residual is the distance from
    the kernels to the canonical ones.
    """
    kernels = family.kernels
    nearest = nearest_characters(kernels)           # one call serves both uses
    checked = ~(np.max(np.abs(kernels), axis=-1) <= tol)    # most zero kernels are exact
    for r in np.flatnonzero(checked & ~character_certified(kernels, tol, nearest)).tolist():
        report = check_character_equation(kernels[r], tol)
        if not report.passed:
            raise CharacterEquationViolation(r - family.N, report)
    on, canonical, fails = snap_characters(kernels, SNAP_FLOOR * tol, nearest)
    bad = np.flatnonzero(fails)
    if bad.size:
        exc = _rejection(kernels, nearest, bad[0], fails[bad[0]])
        exc.details["xi"] = int(bad[0]) - family.N
        raise exc
    rows = np.flatnonzero(on)
    freq_map = dict(zip((rows - family.N).tolist(),
                        (-_centred(nearest[0][rows], family.grid.M)).tolist()))
    return TorusClassification(tuple(freq_map), freq_map, rel_residual(kernels, canonical))

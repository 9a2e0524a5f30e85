"""Twisted convolution and its phase-space representation on a plane grid.

Functions live on a truncated square window [-L, L)^2 sampled at step
h = 2L/S (left-point Riemann sums, zero extension off the window).  The
operations:

    (f # g)(x, y)  = h^2 sum_{s,t} f(x-s, y-t) g(s, t) e^{i pi (x t - y s)}
    rho(p, q)phi(x) = e^{2i pi q x + i pi p q} phi(x + p)       (p on-lattice)
    K_f(x, y)      = h sum_q f(y-x, q) e^{i pi q (x+y)}
    (K1 o K2)(x,y) = h sum_z K1(x, z) K2(z, y)

In the continuum rho(f # g) = rho(f) rho(g) exactly; on the grid the match
is limited by the window truncation of f # g and by phase resolution: the
half-frequency factors e^{i pi q (x+y)} with |x+y| up to 2L are resolved
only when S >= (2L)^2.  verify_rho_homomorphism measures the achieved
relative L2 error and reports the inputs' boundary decay alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch


@dataclass(frozen=True)
class PlaneGrid:
    """Square grid on [-L, L)^2: S samples per axis, x_i = -L + i h."""

    half_width: float
    side: int

    def __post_init__(self):
        if self.side < 2 or self.side % 2:
            raise ValueError(f"side count must be even and >= 2, got {self.side}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half width must be finite and positive, got {self.half_width}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.side

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.step * np.arange(self.side)

    def resolves_phases(self) -> bool:
        """Whether S is large enough to resolve all half-frequency phases."""
        return self.side >= (2.0 * self.half_width) ** 2


def _table(grid: PlaneGrid, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grid.side, grid.side):
        raise ValueError(
            f"values must be {grid.side}x{grid.side}, got {values.shape}")
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError("table values must be finite")
    return values


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Sampled f(x_i, y_j) on a PlaneGrid, row-major in x."""

    grid: PlaneGrid
    values: np.ndarray = field(repr=False)

    def __init__(self, grid: PlaneGrid, values):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _table(grid, values))

    def boundary_ring_max(self) -> float:
        """Largest magnitude on the outermost ring; the truncation diagnostic."""
        v = self.values
        return float(max(np.abs(v[0]).max(), np.abs(v[-1]).max(),
                         np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max()))


@dataclass(frozen=True)
class OperatorKernel:
    """Sampled two-point kernel K(x_i, y_j) on the same 1-d axis."""

    grid: PlaneGrid
    values: np.ndarray = field(repr=False)

    def __init__(self, grid: PlaneGrid, values):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _table(grid, values))


def _same_grid(a, b) -> PlaneGrid:
    if a.grid != b.grid:
        raise GridMismatch(
            f"tables on different grids: {a.grid} vs {b.grid}")
    return a.grid


def gaussian_pair(grid: PlaneGrid) -> PhaseSpaceFunction:
    """The centered Gaussian e^{-pi x^2} e^{-pi y^2} sampled on the grid."""
    g = np.exp(-np.pi * grid.axis ** 2)
    return PhaseSpaceFunction(grid, np.outer(g, g))


def _phase_table(grid: PlaneGrid) -> np.ndarray:
    """P[i, b] = e^{i pi x_i x_b}, the one phase table: x, y, s, t, q share an axis."""
    return np.exp(1j * np.pi * np.outer(grid.axis, grid.axis))


def twisted_convolve(f: PhaseSpaceFunction, g: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Left-point Riemann sum of the twisted product, zero off-window.

    Evaluated exactly (to roundoff) by factoring the phase e^{i pi (x t - y s)}
    as P[i, b] conj(P[j, a]) with the one _phase_table P, and running one
    linear convolution along t per s-sample, at circular length 3S/2.
    """
    grid = _same_grid(f, g)
    S, h, c = grid.side, grid.step, grid.side // 2
    P = _phase_table(grid)
    # The rows of F are transformed once.  A linear convolution of two length-S
    # rows has indices 0..2S-2, of which c..c+S-1 are kept; at length 3S/2 a
    # kept index m wraps only onto m + 3S/2 >= 2S > 2S-2, where it is zero.
    n_fft = 3 * S // 2
    full = np.pad(np.fft.fft(f.values, n=n_fft, axis=1), ((c, c), (0, 0)))
    out = np.zeros((S, S), dtype=np.complex128)
    for a in range(S):
        shifted = full[S - a:2 * S - a]                   # row i = F[i - a + c]
        qrow = g.values[a][None, :] * P                   # (i, b)
        conv = np.fft.ifft(shifted * np.fft.fft(qrow, n=n_fft, axis=1), axis=1)
        out += conv[:, c:c + S] * P[:, a].conj()
    return PhaseSpaceFunction(grid, h * h * out)


def rho_kernel(f: PhaseSpaceFunction) -> OperatorKernel:
    """K_f(x, y) = h sum_q f(y - x, q) e^{i pi q (x + y)}, zero off-window.

    The phase is P[i, b] P[j, b] with the one _phase_table P: S^2 exponentials.
    """
    grid = f.grid
    S, h, c = grid.side, grid.step, grid.side // 2
    P = _phase_table(grid)
    full = np.pad(f.values, ((c, c), (0, 0)))
    K = np.empty((S, S), dtype=np.complex128)
    for i in range(S):
        rows = full[S - i:2 * S - i]                         # row j = f[j - i + c]
        K[i] = h * ((rows * P) @ P[i])
    return OperatorKernel(grid, K)


def compose_kernels(K1: OperatorKernel, K2: OperatorKernel) -> OperatorKernel:
    """(K1 o K2)(x, y) = h sum_z K1(x, z) K2(z, y)."""
    grid = _same_grid(K1, K2)
    return OperatorKernel(grid, grid.step * (K1.values @ K2.values))


@dataclass(frozen=True)
class RhoHomReport:
    """Measured distance between rho(f # g) and rho(f) rho(g)."""

    relative_error: float
    truncation_f: float
    truncation_g: float
    phases_resolved: bool


def relative_l2(A: np.ndarray, B: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(A - B)) / scale


def verify_rho_homomorphism(f: PhaseSpaceFunction,
                            g: PhaseSpaceFunction) -> RhoHomReport:
    """Relative L2 distance between the kernels of rho(f # g) and rho(f) rho(g)."""
    lhs = rho_kernel(twisted_convolve(f, g))
    rhs = compose_kernels(rho_kernel(f), rho_kernel(g))
    return RhoHomReport(relative_l2(lhs.values, rhs.values),
                        f.boundary_ring_max(), g.boundary_ring_max(),
                        f.grid.resolves_phases())

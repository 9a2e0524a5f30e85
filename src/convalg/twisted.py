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

twisted_convolve is chirp-factored.  With x_k = -L + k h and c = S/2, the
term f[u, t] g[a, b] of output (i, j) has u = i - a + c and t = j - b + c,
and its phase splits as

    x_i x_b - x_j x_a = -h^2 u t + (h^2 a b - 2 L h b) + (L^2 + 2 L h j + h^2 i j - 2 h^2 a j):

a modulation of f's row u, one of g's row a, and an output factor.  With the
one chirp table C[k, l] = e^{i pi h^2 k l},

    G[u] = fft_N(f[u, t] conj(C[u, t])),   Y[a] = fft_N(g[a, b] C[a, b] e^{-2i pi L h b}),
    (f # g)[i, j] = h^2 e^{i pi L^2} e^{2i pi L h j} C[i, j]
                    sum_a conj(C[a, j])^2 ifft_N(G[i - a + c] Y[a])[j + c],

at circular length N = 3S/2, over the rows with 0 <= i - a + c < S only:
2S forward and about 3S^2/4 inverse row transforms of length N.  Two outer
products u_i v_j (PhaseSpaceFunction.outer) take one sum per axis instead.
rho_kernel is two matrix products and a gather: K[i, j] = h R[j - i + c, i + j]
for R = f E, E[b, s] = e^{i pi q_b (-2L + s h)} (x_i + x_j = -2L + (i + j) h).
The gather reads R[m, s] only where m + s = 2j + c, so rows m = c + d (mod 2)
are multiplied by the columns s = d (mod 2) alone, d = 0, 1: half of f E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .groups import validated


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


@dataclass(frozen=True)
class _Table:
    """A finite S x S complex table on a PlaneGrid: a private read-only copy (groups.validated)."""

    grid: PlaneGrid
    values: np.ndarray = field(repr=False)

    def __init__(self, grid: PlaneGrid, values):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values",
                           validated(values, (grid.side, grid.side), "table values"))


class PhaseSpaceFunction(_Table):
    """Sampled f(x_i, y_j) on a PlaneGrid, row-major in x; factors is None, or for
    one built by outer(grid, u, v) as u_i v_j, read-only copies of (u, v)."""

    factors = None

    @classmethod
    def outer(cls, grid: PlaneGrid, u, v) -> "PhaseSpaceFunction":
        u, v = (validated(w, (grid.side,), "factor values") for w in (u, v))
        f = cls(grid, np.outer(u, v))
        object.__setattr__(f, "factors", (u, v))
        return f

    def boundary_ring_max(self) -> float:
        """Largest magnitude on the outermost ring; the truncation diagnostic."""
        v = self.values
        return float(max(np.abs(v[0]).max(), np.abs(v[-1]).max(),
                         np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max()))


class OperatorKernel(_Table):
    """Sampled two-point kernel K(x_i, y_j) on the same 1-d axis."""


def _same_grid(a, b) -> PlaneGrid:
    if a.grid != b.grid:
        raise GridMismatch(
            f"tables on different grids: {a.grid} vs {b.grid}")
    return a.grid


def gaussian_pair(grid: PlaneGrid) -> PhaseSpaceFunction:
    """The centered Gaussian e^{-pi x^2} e^{-pi y^2} sampled on the grid."""
    g = np.exp(-np.pi * grid.axis ** 2)
    return PhaseSpaceFunction.outer(grid, g, g)


def twisted_convolve(f: PhaseSpaceFunction, g: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Left-point Riemann sum of the twisted product, zero off-window.

    Evaluated exactly (to roundoff) by the chirp factorisation of the module
    docstring: one linear convolution along y per pair of rows (u, a) that
    meets the window, at circular length 3S/2.  When f and g both carry
    factors, the phase x_i x_b - x_j x_a splits the sum into one over a and
    one over b: h^2 (M1 conj(E)) * (M2 E)^T with M[i, a] = u_f[i - a + c] u_g[a]
    (0 off the window; M2 from the v factors) and E[a, j] = e^{i pi x_a x_j},
    two S x S x S matrix products.
    """
    grid = _same_grid(f, g)
    S, h, c, L = grid.side, grid.step, grid.side // 2, grid.half_width
    k = np.arange(S)
    if f.factors is not None and g.factors is not None:
        shift = S + k[:, None] - k              # u_f[i - a + c] = pad(u_f, c)[shift]
        M1, M2 = (np.pad(ff, c)[shift] * gg for ff, gg in zip(f.factors, g.factors))
        E = np.exp(1j * np.pi * np.outer(grid.axis, grid.axis))
        return PhaseSpaceFunction(grid, h * h * (M1 @ E.conj()) * (M2 @ E).T)
    C = np.exp(1j * np.pi * h * h * np.outer(k, k))
    drift = np.exp(2j * np.pi * L * h * k)
    # A linear convolution of two length-S rows has indices 0..2S-2, of which
    # c..c+S-1 are kept; at length 3S/2 a kept index m wraps only onto
    # m + 3S/2 >= 2S > 2S-2, where it is zero.
    n_fft = 3 * S // 2
    G = np.fft.fft(f.values * C.conj(), n=n_fft, axis=1)
    Y = np.fft.fft(g.values * C * drift.conj(), n=n_fft, axis=1)
    out = np.zeros((S, S), dtype=np.complex128)
    work = np.empty((S, n_fft), dtype=np.complex128)
    for a in range(S):
        lo, hi = max(a - c, 0), min(a + c, S)           # the rows i with u = i - a + c in [0, S)
        rows = np.multiply(G[lo - a + c:hi - a + c], Y[a], out=work[:hi - lo])
        kept = np.fft.ifft(rows, axis=1, out=rows)[:, c:c + S]
        kept *= C[a].conj() ** 2
        out[lo:hi] += kept
    del G, Y, work                  # before the output's validated copy: the peak
    out *= C
    out *= h * h * np.exp(1j * np.pi * L * L) * drift
    return PhaseSpaceFunction(grid, out)


def rho_kernel(f: PhaseSpaceFunction) -> OperatorKernel:
    """K_f(x, y) = h sum_q f(y - x, q) e^{i pi q (x + y)}, zero off-window.

    The sum depends on y - x through f's row and on x + y through the phase,
    so it is a product R = f E over every x + y on the grid, and each row of
    R holds a diagonal of K.  A diagonal reads R[m, s] only at m + s = c
    (mod 2), so R is computed per parity d on the rows m = c + d and the
    columns s = d (mod 2) alone: half of f E.
    """
    grid = f.grid
    S, h, c = grid.side, grid.step, grid.side // 2
    K = np.zeros((S, S), dtype=np.complex128)
    flat = K.reshape(-1)
    for d in (0, 1):
        E = np.exp(1j * np.pi * np.outer(grid.axis, -2.0 * grid.half_width
                                         + h * np.arange(d, 2 * S - 1, 2)))
        p = (c + d) % 2
        R = f.values[p::2] @ E              # R[r, t] is the (m, s) = (2r + p, 2t + d) entry
        del E                               # before the next parity's E: the peak
        for r in range(S // 2):
            # diagonal j - i = o of K: the i with j in [0, S), at t = i + r - (c + d) // 2
            o = 2 * r + p - c
            lo, hi = max(-o, 0), min(S - o, S)
            t = lo + r - (c + d) // 2
            flat[lo * (S + 1) + o:hi * (S + 1) + o:S + 1] = R[r, t:t + hi - lo]
    K *= h
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


@np.errstate(over="ignore", invalid="ignore")
def verify_rho_homomorphism(f: PhaseSpaceFunction,
                            g: PhaseSpaceFunction) -> RhoHomReport:
    """Relative L2 distance between the kernels of rho(f # g) and rho(f) rho(g)."""
    try:
        rho_f = rho_kernel(f)
        # f # f, as the CLI's synthesized pair and a pair document holding f twice
        same = g is f or (g.grid == f.grid and np.array_equal(
            f.values.view(np.uint64), g.values.view(np.uint64)))
        rho_g = rho_f if same else rho_kernel(g)
        error = relative_l2(rho_kernel(twisted_convolve(f, g)).values,
                            compose_kernels(rho_f, rho_g).values)
    except ValueError:      # a table on the way overflowed: NaN, too large to measure
        error = np.nan
    return RhoHomReport(error, f.boundary_ring_max(), g.boundary_ring_max(),
                        f.grid.resolves_phases())

"""Independent brute-force oracles shared across the test modules.

These stay deliberately naive (explicit Python loops over the definitions)
so that library results are checked against a second, unrelated route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convalg import Group, Operator, PlaneGrid, Signal
from convalg.errors import ConvalgError
from convalg.operators import DEFAULT_TOL, AxiomReport, check_identities


def direct_convolve(f: Signal, g: Signal) -> np.ndarray:
    """(f*g)(x) = sum_t f(t) g(x-t), summed element by element."""
    group = f.group
    n = group.order
    out = np.zeros(n, dtype=complex)
    for xi in range(n):
        x = group.element(xi)
        for ti in range(n):
            t = group.element(ti)
            diff = tuple((a - b) % m for a, b, m in zip(x, t, group.factors))
            out[xi] += f.values[ti] * g.values[group.index(diff)]
    return out


def direct_dft(f: Signal) -> np.ndarray:
    """fhat(eta) = sum_k f(k) prod_i e^{-2i pi k_i eta_i / n_i}."""
    group = f.group
    n = group.order
    out = np.zeros(n, dtype=complex)
    for ei in range(n):
        eta = group.element(ei)
        acc = 0.0 + 0.0j
        for ki in range(n):
            k = group.element(ki)
            phase = sum(a * b / m for a, b, m in zip(k, eta, group.factors))
            acc += f.values[ki] * np.exp(-2j * np.pi * phase)
        out[ei] = acc
    return out


def disc_signal(group: Group, rng: np.random.Generator) -> Signal:
    """Unit-disc random signal, independent of the library's sampler."""
    r = np.sqrt(rng.uniform(0, 1, group.order))
    th = rng.uniform(0, 2 * np.pi, group.order)
    return Signal(group, r * np.exp(1j * th))


def naive_character_residuals(rows: np.ndarray, group: Group) -> np.ndarray:
    """(k, l) -> max_r |h_r(k+l) - h_r(k) h_r(l)| / (1 + max sup of both sides).

    Builds the whole (rows, n, n) arrays of both sides, the sum k + l taken
    element by element per cyclic factor.
    """
    rows = np.asarray(rows, dtype=complex)
    n = group.order
    lhs = np.zeros((rows.shape[0], n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            s = tuple(a + b for a, b in zip(group.element(k), group.element(l)))
            lhs[:, k, l] = rows[:, group.index(s)]
    rhs = rows[:, :, None] * rows[:, None, :]
    scale = 1.0 + np.maximum(np.abs(lhs).max(axis=0), np.abs(rhs).max(axis=0))
    return np.abs(lhs - rhs).max(axis=0) / scale


# -- the intertwiner's axiom oracle: translations and modulations -------------

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


def check_intertwining(T: Operator, phi: PhaseFunction,
                       psi: PhaseFunction, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Verify T tau_k = M_k^(phi) T and T M_k^(psi) = tau_k T for every k."""
    D = T.to_dense().table
    n = T.group.n

    def cases():
        for k in range(n):
            # columns of T tau_k: (T tau_k) delta_j = T delta_{j-k}
            yield ("T tau_k = M_k^(phi) T", (k,),
                   D[:, (np.arange(n) - k) % n], phi.factors(k)[:, None] * D)
            # T M_k^(psi): scales column j by e^{k psi(j)}
            yield ("T M_k^(psi) = tau_k T", (k,),
                   D * psi.factors(k)[None, :], np.roll(D, -k, axis=0))
    return check_identities(cases(), tol)


# -- the phase-space kernel's oracle: rho at one lattice point -----------------

class OffLatticeShift(ConvalgError):
    def __init__(self, p: float, h: float):
        super().__init__(
            f"shift {p!r} is not an integer multiple of the grid step {h!r}")
        self.p = p
        self.h = h


def lattice_index(grid: PlaneGrid, p: float) -> int:
    """Index shift of an on-lattice translation p; OffLatticeShift otherwise."""
    m = round(p / grid.step)
    if abs(p - m * grid.step) > 1e-9 * max(1.0, abs(p)):
        raise OffLatticeShift(p, grid.step)
    return int(m)


def rho_point(p: float, q: float, phi: np.ndarray, grid: PlaneGrid) -> np.ndarray:
    """rho(p, q) phi = e^{2i pi q x + i pi p q} phi(x + p), zero-filled shift."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.side,):
        raise ValueError(f"expected {grid.side} samples, got {phi.shape}")
    m = lattice_index(grid, p)
    out = np.zeros_like(phi)
    src = np.arange(grid.side) + m
    ok = (src >= 0) & (src < grid.side)
    out[ok] = phi[src[ok]]
    return np.exp(2j * np.pi * q * grid.axis + 1j * np.pi * p * q) * out

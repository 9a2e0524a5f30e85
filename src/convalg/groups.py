"""Signals on finite cyclic groups and their convolution/Fourier algebra.

A Group is a product of cyclic factors Z/n1 x ... x Z/nk, its elements
flattened to indices 0..order-1 in mixed-radix order (last factor fastest).
A Signal is a complex-valued function on such a group.  The algebra:

    (f * g)(x)   = sum_t f(t) g(x - t)          (convolution, counting measure)
    (f . g)(x)   = f(x) g(x)                    (pointwise product)
    fhat(eta)    = sum_k f(k) e^{-2i pi k.eta}   (transform; k.eta = sum k_i eta_i / n_i)
    E[f]         = sum_j f(j) = fhat(0)

The inverse transform carries the 1/order factor.  Transforms are numpy.fft
n-dimensional FFTs over the factor axes, for any moduli; convolution goes
through the convolution theorem, f * g = idft(dft(f) . dft(g)).
unit_roots holds the e^{2i pi m / n} lattice that the classifiers build
their tables from; nearest_characters recovers the exponent of sampled
characters (the Z/n and circle-grid rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import GroupMismatch

Element = Union[int, Sequence[int]]

# An axiom check passing at tol still leaves a recovered quantity up to
# ~2 tol off its snapped value (Hyers-Ulam stability of the character
# equation), so every classifier snap gate is at least SNAP_FLOOR * tol wide.
SNAP_FLOOR = 4.0


@dataclass(frozen=True)
class Group:
    """Product of cyclic groups, elements indexed in mixed radix."""

    factors: tuple[int, ...]

    def __init__(self, factors: Union[int, Iterable[int]]):
        if isinstance(factors, int):
            factors = (factors,)
        factors = tuple(int(n) for n in factors)
        if not factors:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"moduli must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        p = 1
        for n in self.factors:
            p *= n
        return p

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    @property
    def n(self) -> int:
        """Modulus of a single-factor group."""
        if not self.is_cyclic:
            raise ValueError(f"group {self.factors} has more than one factor")
        return self.factors[0]

    def canonical(self, k: Element) -> tuple[int, ...]:
        """Reduce each coordinate of k modulo its factor."""
        if isinstance(k, (int, np.integer)):
            k = (int(k),)
        k = tuple(int(c) for c in k)
        if len(k) != len(self.factors):
            raise ValueError(
                f"element {k} has {len(k)} coordinates, group has {len(self.factors)}")
        return tuple(c % n for c, n in zip(k, self.factors))

    def index(self, k: Element) -> int:
        """Flat mixed-radix index of the element k."""
        idx = 0
        for c, n in zip(self.canonical(k), self.factors):
            idx = idx * n + c
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        coords = []
        for n in reversed(self.factors):
            coords.append(idx % n)
            idx //= n
        return tuple(reversed(coords))


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex-valued function on a Group; values immutable, all finite."""

    group: Group
    values: np.ndarray = field(repr=False)

    def __init__(self, group: Group, values):
        values = np.asarray(values, dtype=np.complex128).copy()
        if values.shape != (group.order,):
            raise ValueError(
                f"expected {group.order} values for group {group.factors}, "
                f"got shape {values.shape}")
        finite(values).flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

    def __getitem__(self, k: Element) -> complex:
        return complex(self.values[self.group.index(k)])


def finite(values: np.ndarray, what: str = "signal values") -> np.ndarray:
    """values itself, after a ValueError if an entry is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def _same_group(f: Signal, g: Signal) -> Group:
    if f.group != g.group:
        raise GroupMismatch(
            f"signals live on different groups: {f.group.factors} vs {g.group.factors}")
    return f.group


def delta(group: Group, k: Element = 0) -> Signal:
    """Point mass: 1 at k, 0 elsewhere."""
    v = np.zeros(group.order, dtype=np.complex128)
    v[group.index(k)] = 1.0
    return Signal(group, v)


def constant(group: Group, c: complex = 1.0) -> Signal:
    """The constant signal c * (1, 1, ..., 1)."""
    return Signal(group, np.full(group.order, c, dtype=np.complex128))


def expectation(a: Signal) -> complex:
    """E[a] = sum of all entries; equals the transform of a at 0."""
    return complex(np.sum(a.values))


def pointwise_mul(f: Signal, g: Signal) -> Signal:
    """Entrywise product f.g."""
    _same_group(f, g)
    return Signal(f.group, f.values * g.values)


def convolve(f: Signal, g: Signal) -> Signal:
    """(f * g)(x) = sum_t f(t) g(x - t), the group difference taken per factor."""
    group = _same_group(f, g)
    return Signal(group, convolve_values(f.values, g.values, group))


def convolve_values(f: np.ndarray, g: np.ndarray, group: Group) -> np.ndarray:
    """convolve of value arrays (..., order), case by case over the leading axes."""
    shape, axes = f.shape[:-1] + group.factors, tuple(range(-len(group.factors), 0))
    fg = np.fft.fftn(f.reshape(shape), axes=axes) * np.fft.fftn(g.reshape(shape), axes=axes)
    return np.fft.ifftn(fg, axes=axes).reshape(f.shape)


def negation(group: Group) -> np.ndarray:
    """Flat index of -x at every flat index x, the coordinates negated per factor."""
    idx = np.arange(group.order).reshape(group.factors)
    return np.roll(np.flip(idx), 1, axis=tuple(range(idx.ndim))).ravel()


def dft(f: Signal) -> Signal:
    """Transform fhat(eta) = sum_k f(k) e^{-2i pi <k, eta>}."""
    return Signal(f.group, np.fft.fftn(f.values.reshape(f.group.factors)).ravel())


def idft(f: Signal) -> Signal:
    """Inverse transform, (1/order) sum with the opposite phase sign."""
    return Signal(f.group, np.fft.ifftn(f.values.reshape(f.group.factors)).ravel())


def unit_roots(e, n: int) -> np.ndarray:
    """e^{2i pi (e mod n) / n} for an integer array e.

    Reducing the exponent first keeps the angle in [0, 2 pi), so large
    products like k * sigma lose no accuracy.
    """
    return np.exp(2j * np.pi * (np.asarray(e) % n) / n)


def nearest_characters(rows) -> tuple[np.ndarray, np.ndarray]:
    """Exponent and sup distance of the character nearest each row.

    rows is (r, n).  Row i is matched with k -> e^{2i pi m_i k / n}, where
    m_i in [0, n) is the peak of |fft(rows[i])|: the maximum-likelihood
    frequency of a single tone (Rife & Boorstyn 1974), exact on a character
    at every m, n/2 included.  Returns (m, max_k |rows[i, k] - e^{2i pi m_i k / n}|).
    """
    rows = np.asarray(rows, dtype=np.complex128)
    n = rows.shape[-1]
    m = np.argmax(np.abs(np.fft.fft(rows, axis=-1)), axis=-1)
    dist = np.max(np.abs(rows - unit_roots(m[:, None] * np.arange(n), n)), axis=-1)
    return m, dist


"""Independent brute-force oracles shared across the test modules.

These stay deliberately naive (explicit Python loops over the definitions)
so that library results are checked against a second, unrelated route.
The module also holds the fixture edits that once crashed the CLI.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from convalg import (Group, Operator, PlaneGrid, Signal, apply, construct, convhom, convolve,
                     delta, errors, pointwise_mul, rel_residual)
from convalg.errors import ConvalgError
from convalg.exchange import SWEEP_SIGNALS, ExchangeClassification, construct_exchange
from convalg.groups import convolve_values
from convalg.operators import DEFAULT_TOL, AxiomReport, Witness, check_identities

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from report_bytes import describe  # noqa: E402


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


def naive_snap_characters(rows, gate: float, nearest):
    """groups.snap_characters, row by row and gate by gate, in Python floats.

    The magnitudes are numpy's: its complex abs differs from Python's hypot in
    the last bit on about a third of the entries.
    """
    m, dist = nearest
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[1]
    on, fails = np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=int)
    canonical = np.zeros(rows.shape, dtype=complex)
    for r, row in enumerate(rows):
        mags = np.abs(row).tolist()
        sup = math.nan if any(map(math.isnan, mags)) else max(mags)
        if sup <= gate:             # a NaN is never within the gate
            continue
        on[r] = True
        if not abs(sup - 1.0) <= gate:
            fails[r] = 1
        elif not dist[r] <= gate:
            fails[r] = 2
        canonical[r] = np.exp(2j * np.pi * np.array([int(m[r]) * k % n for k in range(n)]) / n)
    return on, canonical, fails


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


# -- the sampled checkers, one signal and one case at a time -----------------
# The library stacks every draw, product, convolution and residual of a check;
# these run the same checks signal by signal, and must give bit-identical
# outcomes.  Products of images are plain numpy under np.errstate, so one that
# overflows gives a NaN residual, which fails, as in the library.

def naive_check_identities(cases, tol: float) -> AxiomReport:
    """Measure each (identity, inputs, lhs, rhs) case by rel_residual in turn."""
    residuals, wit = [], None
    for identity, inputs, lhs, rhs in cases:
        r = rel_residual(lhs, rhs)
        residuals.append(r)
        if wit is None and not r <= tol:
            wit = Witness(identity, inputs, lhs, rhs, r)
    return AxiomReport(wit is None, float(np.max(residuals, initial=0.0)), tol,
                       witness=wit, checked=len(residuals))


@np.errstate(over="ignore", invalid="ignore")
def naive_sampled_check(T: Operator, count: int = 64, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> AxiomReport:
    """check_conv_homomorphism(T, "sampled", ...), pair by pair."""
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(count):
            f, g = disc_signal(T.group, rng), disc_signal(T.group, rng)
            yield ("T(f*g) = T(f).T(g)", (f, g), apply(T, convolve(f, g)).values,
                   apply(T, f).values * apply(T, g).values)
    return naive_check_identities(cases(), tol)


@np.errstate(over="ignore", invalid="ignore")
def naive_exchange_axioms(T: Operator, count: int = 64, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> AxiomReport:
    """check_exchange_axioms, pair by pair."""
    group = T.group
    rng = np.random.default_rng(seed)
    pairs = [(disc_signal(group, rng), disc_signal(group, rng)) for _ in range(count)]
    pairs += [(Signal(group, np.full(group.order, c, dtype=complex)), disc_signal(group, rng))
              for c in (0.0, 1.0, 2.0, 0.5 + 0.25j)]
    pairs += [(delta(group, group.element(j)), disc_signal(group, rng))
              for j in range(min(group.order, 4))]

    def cases():
        for a, b in pairs:
            Ta, Tb = apply(T, a).values, apply(T, b).values
            yield ("T(a.b) = T(a).T(b)", (a, b), apply(T, pointwise_mul(a, b)).values, Ta * Tb)
            yield ("T(a*b) = T(a)*T(b)", (a, b),
                   apply(T, convolve(a, b)).values, convolve_values(Ta, Tb, group))
    return replace(naive_check_identities(cases(), tol), checked=len(pairs))


def naive_involution(T: Operator, tol: float = DEFAULT_TOL, samples: int = 16,
                     seed: int = 0) -> AxiomReport:
    """check_involution_symmetry, signal by signal."""
    rng = np.random.default_rng(seed)
    # the group negation, coordinate by coordinate
    neg = [T.group.index(tuple(-c for c in T.group.element(i))) for i in range(T.group.order)]

    def cases():
        for _ in range(samples):
            a = disc_signal(T.group, rng)
            yield "T(T(a))(k) = a(-k)", (a,), apply(T, apply(T, a)).values, a.values[neg]
    return naive_check_identities(cases(), tol)


def beta_of(T: Operator, c: complex) -> complex:
    """The scalar action beta(c) = E[T((c/n) * ones)]."""
    n = T.group.order
    return complex(np.sum(apply(T, Signal(T.group, np.full(n, c / n, dtype=complex))).values))


def naive_is_delta(values: np.ndarray, tol: float):
    """Index of the single entry ~1 if the rest are ~0, else None."""
    near_one = np.abs(values - 1.0) <= tol
    if np.count_nonzero(near_one) != 1:
        return None
    m = int(np.argmax(near_one))
    rest = np.abs(np.delete(values, m))
    return None if rest.size and rest.max() > tol else m


@np.errstate(over="ignore", invalid="ignore")
def naive_classify_exchange(T: Operator, tol: float = DEFAULT_TOL, seed: int = 0):
    """classify_exchange, one signal at a time; a NaN residual fails."""
    group = T.group
    n = group.n
    if n < 2:
        raise ValueError("exchange classification needs n >= 2")
    residual = 0.0
    for name, sig in (("delta_0", delta(group, 0)), ("ones", Signal(group, np.ones(n))),
                      ("zeros", Signal(group, np.zeros(n)))):
        r = rel_residual(apply(T, sig).values, sig.values)
        if not r <= tol:
            raise errors.FixedPointViolation(name, r)
        residual = max(residual, r)
    sigma = np.zeros(n, dtype=int)
    for j in range(1, n):
        m = naive_is_delta(apply(T, delta(group, j)).values, tol)
        if m is None:
            raise errors.DeltaImageNotDelta(j)
        sigma[j] = m
    eta = int(sigma[1])
    if math.gcd(eta, n) != 1:
        raise errors.EtaNotCoprime(eta, n)
    for j in range(1, n):
        if sigma[j] != (j * eta) % n:
            raise errors.DeltaImageInconsistent(j, int(sigma[j]), (j * eta) % n)
    for c in (2.0, 3.0, 1.5, 1j):
        b = beta_of(T, c)
        if min(abs(b - c), abs(b - np.conj(c))) > tol * (1.0 + abs(c)):
            raise errors.BetaNotIdentityOrConjugation(c, b)
        residual = max(residual, min(abs(b - c), abs(b - np.conj(c))) / (1.0 + abs(c)))
    d_id, d_conj = abs(b - 1j), abs(b + 1j)
    conjugate = d_conj < d_id
    if min(d_id, d_conj) > tol or max(d_id, d_conj) < 1.0:
        raise errors.BetaNotIdentityOrConjugation(1j, b)
    rng = np.random.default_rng(seed)
    canonical = construct_exchange(group, eta, conjugate)
    for _ in range(SWEEP_SIGNALS):
        a = disc_signal(group, rng)
        lhs, rhs = apply(T, a).values, apply(canonical, a).values
        r = rel_residual(lhs, rhs)
        if not r <= tol:
            raise errors.FinalSweepViolation(
                Witness("T(a)(eta j) = a(j)" + (" conjugated" if conjugate else ""),
                        (a,), lhs, rhs, r), r)
        residual = max(residual, r)
    return ExchangeClassification(eta, conjugate, "direct", residual)


def outcome(fn, *args, **kwargs) -> str:
    """What fn(*args, **kwargs) returned or raised, exact to the bit."""
    try:
        return describe(fn(*args, **kwargs))
    except (ConvalgError, ValueError) as exc:
        return describe(exc)


def recording(group: Group, fn, seen: list) -> Operator:
    """Black box running fn, which appends each input's value bytes to seen."""
    def run(a: Signal) -> Signal:
        seen.append(a.values.tobytes())
        return fn(a)
    return Operator.from_function(group, run)


# -- tables that reach classify's gates once the basis check is stubbed to pass ----

def past_the_check(kind: str) -> np.ndarray:
    """An n = 8 transform table whose row 5 is 0.5 chi ("norm") or off the root lattice
    ("lattice"); the basis check rejects both, so the tests stub it."""
    table = construct(Group(8), range(8), {e: e for e in range(8)}).table.copy()
    table[5] = 0.5 * table[5] if kind == "norm" else np.exp(2j * np.pi * 1.02 * np.arange(8) / 8)
    return table


def passing_check(monkeypatch):
    """Stub convhom's basis check to pass every table."""
    monkeypatch.setattr(convhom, "check_conv_homomorphism",
                        lambda T, mode, tol: AxiomReport(True, 0.0, tol))


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
    lhs, rhs = [], []
    for k in range(n):
        # columns of T tau_k: (T tau_k) delta_j = T delta_{j-k}
        lhs.append(D[:, (np.arange(n) - k) % n])
        rhs.append(phi.factors(k)[:, None] * D)
        # T M_k^(psi): scales column j by e^{k psi(j)}
        lhs.append(D * psi.factors(k)[None, :])
        rhs.append(np.roll(D, -k, axis=0))
    names = ("T tau_k = M_k^(phi) T", "T M_k^(psi) = tau_k T")
    return check_identities(np.array(lhs), np.array(rhs), tol,
                            lambda i: (names[i % 2], (i // 2,)))


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


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# fixture edits that once ended in a traceback or warnings: the command that
# reads the fixture, the fixture, and (keys, new value) per edit
CRASH_CASES = {
    "sigma-missing": ("construct", "conv_params_n6.json", [(("sigma",), [[3, 2]])]),
    "support-over-n": ("construct", "conv_params_n6.json",
                       [(("n",), 8), (("support",), [9]), (("sigma",), [[9, 2]])]),
    "huge-m1": ("construct", "intertwiner_params_n8.json", [(("m1",), 2 ** 70)]),
    "f-not-object": ("verify-twisted", "gaussian_pair_s64.json", [(("f",), [1])]),
    "entry-1e308": ("verify-twisted", "gaussian_pair_s64.json",
                    [(("f", "values", 10, 20), [1e308, 0.0])]),
}


def edited_fixture(name: str, edits) -> dict:
    """The fixture document with each (keys, value) edit applied."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    for keys, value in edits:
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return doc

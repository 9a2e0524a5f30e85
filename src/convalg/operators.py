"""Operators on group signals and the axiom checkers that probe them.

An Operator is either a dense column table (column k = image of the point
mass at k, hence linear) or an opaque evaluator Signal -> Signal.  Checkers
never raise on a failed identity; they return an AxiomReport whose witness
pins down a concrete violating input pair.

All residuals use the scale-free metric

    rel(lhs, rhs) = max|lhs - rhs| / (1 + max(max|lhs|, max|rhs|))

character_residuals applies it to the character equation h(k + l) = h(k) h(l)
on every pair in O(rows * order + order^2) memory; the groups are abelian, so
the equation is symmetric in (k, l) and the residuals keep only k <= l.
character_report turns those residuals into an AxiomReport, for the basis
check and the circle-grid kernel check alike.  Every witness is the first
failing case: the first pair in row-major order, or the first draw.  The
sampled checkers (here and in exchange) stack their draws, products and
convolutions and score every case in one check_identities pass; only the
operator's own evaluations run signal by signal.  Each stack is validated
once (groups.validated).  A black box meets its rows as read-only views, its
output checked by the Signal it returns; a dense image is table @ row, left
unchecked, so one that overflows reaches its residual as NaN (np.errstate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import GroupMismatch
from .groups import Group, Signal, convolve_values, delta, validated

DEFAULT_TOL = 1e-9

# complex entries per temporary in character_residuals (1 MiB), and the
# fewest it runs a k-block with
_BLOCK = 1 << 16
_MIN_BLOCK = 1 << 13


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Scale-free sup-norm distance between two value arrays."""
    return float(rel_residuals(np.asarray(lhs)[None], np.asarray(rhs)[None])[0])


def rel_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rel_residual of every case lhs[i] against rhs[i], stacked on axis 0."""
    lhs, rhs = (np.reshape(x, (len(x), -1)) for x in (lhs, rhs))
    scale = np.maximum(np.max(np.abs(lhs), axis=1, initial=0.0),
                       np.max(np.abs(rhs), axis=1, initial=0.0))
    scale += 1.0
    return np.max(np.abs(lhs - rhs), axis=1, initial=0.0) / scale


def character_residuals(rows: np.ndarray, group: Group) -> np.ndarray:
    """Entry (k, l), l >= k, is rel_residual(rows[:, k + l], rows[:, k] * rows[:, l]); 0 below.

    rows is (r, order), one function on group per row.  The group is abelian,
    so the residual is symmetric in (k, l): each unordered pair is measured
    once, as rows[:, k] * rows[:, l] with k <= l, and the lower triangle is
    left 0, since the worst pair and the first failing pair in row-major
    order always lie on or above the diagonal.  h(k + l) is read from a
    window view of the rows wrap-padded along each factor axis, and the
    scale's max_r |h_r(k + l)| from the same window over the per-column
    maximum of |rows|.  k runs in blocks along the last factor and l from the
    block's first coordinate along the first; no temporary outgrows _BLOCK
    entries or one (r, order) slab, so memory stays O(r * order + order^2).
    Every entry is a max over rows, so only the distinct rows are measured.
    """
    rows = distinct_rows(rows)
    r, n = rows.shape
    f = group.factors
    H = rows.reshape((r,) + f)
    ext = H
    for axis, m in enumerate(f, 1):
        ext = np.concatenate([ext, ext[(slice(None),) * axis + (slice(0, m - 1),)]], axis)
    # the max over a single row is the row itself
    top = (lambda x: x[0]) if r == 1 else (lambda x: x.max(axis=0))
    peak = top(np.abs(ext))
    # (r, k..., l...) windows of ext and (k..., l...) windows of peak at offset
    # k; the constructor checks they stay inside the buffer, and at the small
    # sizes costs a fraction of as_strided
    window = np.ndarray((r,) + f + f, ext.dtype, ext, strides=ext.strides + ext.strides[1:])
    peak_window = np.ndarray(f + f, peak.dtype, peak, strides=peak.strides * 2)
    res = np.empty(f + f)
    # about 1/8 of the last factor, so the skipped pairs approach half; no
    # fewer than _MIN_BLOCK entries, where numpy's per-call cost dominates
    step = max(1, min(max(-(-f[-1] // 8), -(-_MIN_BLOCK // (r * n))), _BLOCK // (r * n)))
    step = -(-f[-1] // -(-f[-1] // step))   # as many blocks, evened out
    for lead in itertools.product(*map(range, f[:-1])):
        for a in range(0, f[-1], step):
            k = lead + (slice(a, a + step),)
            l0 = (lead + (a,))[0]
            kl = k + (slice(l0, None),)
            rhs = H[(slice(None),) + k][(Ellipsis,) + (None,) * len(f)] * H[:, None, l0:]
            mag = np.abs(rhs)
            scale = np.maximum(top(mag), peak_window[kl])
            scale += 1.0
            np.subtract(window[(slice(None),) + kl], rhs, out=rhs)
            np.abs(rhs, out=mag)
            np.divide(top(mag), scale, out=res[kl])
    res = res.reshape(n, n)
    for k in range(1, n):   # the blocks also measured some pairs below the diagonal
        res[k, :k] = 0.0
    return res


def distinct_rows(rows) -> np.ndarray:
    """The rows of a 2-d array that differ bit for bit, each once, in their order.

    When every row is distinct, that is the (contiguous complex) input itself.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    _, first = np.unique(rows.view(np.dtype((np.void, rows[0].nbytes))), return_index=True)
    return rows if len(first) == len(rows) else rows[np.sort(first)]


def random_values(group: Group, rng: np.random.Generator, count: int) -> np.ndarray:
    """Values of `count` signals uniform on the complex unit disc, (count, order)."""
    u = rng.random((count, 2, group.order))     # per signal: squared radii, angles in turns
    return np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))


@dataclass(frozen=True)
class Witness:
    """A concrete violation: the inputs and both sides of the identity."""

    identity: str
    inputs: tuple
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    residual: float


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    max_residual: float
    tol: float
    witness: Optional[Witness] = None
    checked: int = 0


def check_identities(lhs: np.ndarray, rhs: np.ndarray, tol: float,
                     case: Callable[[int], tuple]) -> AxiomReport:
    """Measure every case lhs[i] = rhs[i], stacked on axis 0, by rel_residual.

    max_residual is the worst case, NaN included; the witness is the first
    case not within tol, so a NaN residual fails, and case(i) names its
    (identity, inputs).  checked counts the cases.
    """
    res = rel_residuals(lhs, rhs)
    failing = np.flatnonzero(~(res <= tol))
    wit = None
    if failing.size:
        i = int(failing[0])
        wit = Witness(*case(i), lhs[i], rhs[i], float(res[i]))
    return AxiomReport(wit is None, float(np.max(res, initial=0.0)), tol,
                       witness=wit, checked=len(res))


@np.errstate(over="ignore", invalid="ignore")
def character_report(rows: np.ndarray, group: Group, tol: float, identity: str,
                     inputs: Callable[[int, int], tuple]) -> AxiomReport:
    """The character equation of every row on all order^2 pairs, as an AxiomReport.

    max_residual is the worst pair, NaN included (from products that
    overflow); the witness is the first pair (k, l) in row-major order not
    within tol, with both sides over all rows, and inputs(k, l) names it.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    n = group.order
    res = character_residuals(rows, group)
    worst = float(res.max())
    if worst <= tol:
        return AxiomReport(True, worst, tol, checked=n * n)
    k, l = divmod(int(np.argmax(~(res <= tol))), n)
    kl = group.index(tuple(a + b for a, b in zip(group.element(k), group.element(l))))
    wit = Witness(identity, inputs(k, l), rows[:, kl], rows[:, k] * rows[:, l],
                  float(res[k, l]))
    return AxiomReport(False, worst, tol, witness=wit, checked=n * n)


class Operator:
    """Transform of signals on a fixed group: dense table or black box."""

    def __init__(self, group: Group, *, table: Optional[np.ndarray] = None,
                 evaluate: Optional[Callable[[Signal], Signal]] = None):
        if (table is None) == (evaluate is None):
            raise ValueError("give exactly one of table= or evaluate=")
        self.group = group
        if table is not None:
            table = validated(table, (group.order,) * 2, "operator table entries")
        self.table = table
        self._evaluate = evaluate

    @property
    def is_dense(self) -> bool:
        return self.table is not None

    @classmethod
    def from_table(cls, group: Group, table) -> "Operator":
        """Dense operator; column k of the table is the image of delta_k."""
        return cls(group, table=table)

    @classmethod
    def from_function(cls, group: Group, fn: Callable[[Signal], Signal]) -> "Operator":
        return cls(group, evaluate=fn)

    @classmethod
    def identity(cls, group: Group) -> "Operator":
        return cls.from_table(group, np.eye(group.order))

    @classmethod
    def dft(cls, group: Group, *, unitary: bool = False) -> "Operator":
        """Dense form of groups.dft, scaled by 1/sqrt(order) when unitary."""
        return cls._transform(group, np.fft.fftn, "ortho" if unitary else "backward")

    @classmethod
    def idft(cls, group: Group) -> "Operator":
        """Dense form of groups.idft."""
        return cls._transform(group, np.fft.ifftn, "backward")

    @classmethod
    def _transform(cls, group: Group, fftn, norm: str) -> "Operator":
        # columns are the transforms of the point masses: fftn of the identity
        # over its row axes, one axis per cyclic factor
        n = group.order
        eye = np.eye(n).reshape(group.factors * 2)
        table = fftn(eye, axes=tuple(range(len(group.factors))), norm=norm)
        return cls.from_table(group, table.reshape(n, n))

    def __call__(self, a: Signal) -> Signal:
        return apply(self, a)

    def to_dense(self) -> "Operator":
        """Materialize the column table by evaluating on all point masses."""
        if self.is_dense:
            return self
        return Operator.from_table(self.group, apply_each(self, np.eye(self.group.order))[0].T)


def apply(T: Operator, a: Signal) -> Signal:
    """Image of a under T; dense form is the column-weighted sum."""
    if a.group is not T.group and a.group != T.group:
        raise GroupMismatch(
            f"operator on {T.group.factors} applied to signal on {a.group.factors}")
    if T.is_dense:
        return Signal(T.group, T.table @ a.values)
    out = T._evaluate(a)
    if not isinstance(out, Signal) or (out.group is not T.group and out.group != T.group):
        raise ValueError("black-box evaluator returned a signal on the wrong group")
    return out


def compose(S: Operator, T: Operator) -> Operator:
    """The operator a -> S(T(a)); dense composes tables, a dense S multiplies T's image."""
    if S.group != T.group:
        raise GroupMismatch("cannot compose operators on different groups")
    if S.is_dense and T.is_dense:
        return Operator.from_table(S.group, S.table @ T.table)
    if S.is_dense:
        return Operator.from_function(
            S.group, lambda a: Signal(S.group, S.table @ apply(T, a).values))
    return Operator.from_function(S.group, lambda a: apply(S, apply(T, a)))


def apply_each(T: Operator, *stacks: np.ndarray) -> list[np.ndarray]:
    """T's image of each (cases, order) stack, validated once, row by row across the stacks."""
    group = T.group
    stacks = [validated(s, (len(stacks[0]), group.order), "stacked signal values")
              for s in stacks]
    out = [np.empty(s.shape, dtype=np.complex128) for s in stacks]
    for i in range(len(stacks[0])):
        for s, o in zip(stacks, out):
            o[i] = T.table @ s[i] if T.is_dense else apply(T, Signal._view(group, s[i])).values
    return out


@np.errstate(over="ignore", invalid="ignore")
def check_conv_homomorphism(T: Operator, mode: str = "basis", *,
                            count: int = 64, seed: int = 0,
                            tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check T(f * g) = T(f).T(g).

    basis mode runs all n^2 point-mass pairs of a dense T (a black box
    raises ValueError; to_dense() materializes a linear one), which is
    sufficient for the full identity (both sides are bilinear in (f, g)): on
    point masses it is the character equation of every row of the table
    (character_report).  sampled mode draws `count` random pairs with
    unit-disc entries; a count below 1 raises ValueError, since a check of
    no pairs would pass any operator.
    """
    group = T.group
    n = group.order
    if mode == "basis":
        if not T.is_dense:
            raise ValueError("basis mode needs a dense operator; "
                             "materialize a linear black box with to_dense()")
        return character_report(T.table, group, tol, "T(f*g) = T(f).T(g)", lambda k, l: (
            delta(group, group.element(k)), delta(group, group.element(l))))
    if mode == "sampled":
        if count < 1:
            raise ValueError(f"sampled mode needs a count of at least 1, got {count}")
        f, g = random_values(group, np.random.default_rng(seed), 2 * count).reshape(
            count, 2, n).transpose(1, 0, 2)
        lhs, Tf, Tg = apply_each(T, convolve_values(f, g, group), f, g)
        return check_identities(lhs, Tf * Tg, tol, lambda i: (
            "T(f*g) = T(f).T(g)", (Signal(group, f[i]), Signal(group, g[i]))))
    raise ValueError(f"unknown mode {mode!r}")


@np.errstate(over="ignore", invalid="ignore")
def check_exchange_axioms(T: Operator, *, count: int = 64, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check both exchange identities T(a.b) = T(a).T(b) and T(a*b) = T(a)*T(b).

    `count` random pairs (0 allowed, a negative count raises ValueError)
    plus the structured pairs (c*ones, a) and (delta_j, a) that the recovery
    procedure actually relies on.
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    group = T.group
    n = group.order
    u = random_values(group, np.random.default_rng(seed), 2 * count + 4 + min(n, 4))
    a = np.concatenate([u[:2 * count:2], np.outer((0.0, 1.0, 2.0, 0.5 + 0.25j), np.ones(n)),
                        np.eye(min(n, 4), n)])
    b = np.concatenate([u[1:2 * count:2], u[2 * count:]])
    Ta, Tb, lhs_mul, lhs_conv = apply_each(T, a, b, a * b, convolve_values(a, b, group))
    lhs = np.stack([lhs_mul, lhs_conv], 1).reshape(-1, n)
    rhs = np.stack([Ta * Tb, convolve_values(Ta, Tb, group)], 1).reshape(-1, n)
    names = ("T(a.b) = T(a).T(b)", "T(a*b) = T(a)*T(b)")
    report = check_identities(lhs, rhs, tol, lambda i: (
        names[i % 2], (Signal(group, a[i // 2]), Signal(group, b[i // 2]))))
    return replace(report, checked=len(a))

"""Benchmark workloads: seeded request streams whose answers are known in advance.

Every request is one verdict.  Its expected answer comes from outside
convalg: the parameters and defects the generator planted, numpy.fft, or
the S >= (2L)^2 resolution predicate.  A workload is a fixed cycle of
requests.  Sizes come from a generator with a fixed seed (SIZES), so every
run sends the same kinds of requests at the same sizes in the same order;
the workload seed changes their content: planted parameters, defect
positions and signal values.

Library calls go through module attributes looked up at call time
(``cli.run``, ``groups.dft``, ...) so that the traced run sees the
wrappers installed by tracer.py.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import convalg.cli as cli
from convalg import errors, exchange, groups, operators

SCHEMA = 1
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SIZES = 20091231    # seeds the size generators; the workload seed never changes sizes
TWISTED_TOL = 5e-2          # the CLI's default verify-twisted tolerance


@dataclass
class Request:
    """One verdict: ``run`` is timed, ``check`` compares its outcome untimed.

    ``check`` returns None when the outcome matches the known answer and a
    one-line description of the disagreement otherwise.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    requests: list[Request]            # one client cycles through these in order
    cycle: int                         # requests that make up the whole mix once
    warmup: list[Request]              # run once during set-up, untimed
    final_checks: list[Callable[[], Optional[str]]] = field(default_factory=list)


# -- seeded sizes -----------------------------------------------------------------

def stratum(rng: np.random.Generator, v: int, k: int, lo: int, hi: int) -> int:
    """An integer from the v-th of k equal strata of [lo, hi]."""
    width = (hi - lo + 1) / k
    return lo + int((v + rng.random()) * width)


def spread(rng: np.random.Generator, count: int, lo: int, hi: int,
           exclude=()) -> list[int]:
    """count distinct integers covering [lo, hi] evenly, in a seeded Weyl order."""
    if count > hi - lo + 1 - len(exclude):
        raise ValueError(f"cannot draw {count} distinct integers from [{lo}, {hi}]")
    u = rng.random()
    out: list[int] = []
    i = 0
    while len(out) < count:
        x = lo + int(((u + i * GOLDEN) % 1.0) * (hi - lo + 1))
        if x not in out and x not in exclude:
            out.append(x)
        i += 1
    return out


def even(x: int) -> int:
    return x - x % 2


# -- planted operators (numpy only) -------------------------------------------------

def conv_params(rng, n, size):
    support = sorted(int(e) for e in rng.choice(n, size=size, replace=False))
    return support, {e: int(rng.integers(n)) for e in support}


def conv_table(n, support, sigma):
    """T(f)(eta) = chi_E(eta) fhat(sigma(eta)) with fhat(m) = sum_k f(k) e^{-2i pi k m/n}."""
    k = np.arange(n)
    table = np.zeros((n, n), dtype=np.complex128)
    for e in support:
        table[e] = np.exp(-2j * np.pi * k * sigma[e] / n)
    return table


CONV_DEFECTS = ("perturbed-entry", "off-root-row", "scaled-row")


def plant_conv_defect(rng, table, defect):
    """Each defect breaks h(k+l) = h(k)h(l) for some pair, so the basis check fails."""
    n = table.shape[0]
    k = np.arange(n)
    t = table.copy()
    eta = int(rng.integers(n))
    if defect == "perturbed-entry":
        t[eta, int(rng.integers(n))] += 1e-3 * np.exp(2j * np.pi * rng.random())
    elif defect == "off-root-row":        # z^n = -1: fails on every wrapping pair
        t[eta] = np.exp(-2j * np.pi * k * (int(rng.integers(n)) + 0.5) / n)
    else:                                  # value 2 at the identity column: 2 != 2*2
        t[eta] = 2.0 * np.exp(-2j * np.pi * k * int(rng.integers(n)) / n)
    return t


def units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(math.isqrt(n)) + 1))


EXCHANGE_DEFECTS = ("eta-not-coprime", "inconsistent", "perturbed-entry")


def exchange_case(rng, n, defect):
    """Index map perm (T(a)(perm[j]) = a(j)), a dense perturbation, the expected verdict.

    The expected verdict is ("ok", eta) or (error type, details subset).
    """
    eta = int(rng.choice(units(n)))
    perm = (eta * np.arange(n)) % n
    bump = None
    if defect is None:
        return perm, bump, ("ok", {"eta": eta})
    if defect == "eta-not-coprime":
        # a bijection fixing 0 with perm[1] = eta sharing a divisor with n:
        # fixed points and point masses pass, then the slope test fails
        eta = int(rng.choice([u for u in range(2, n) if math.gcd(u, n) > 1]))
        perm = np.arange(n)
        perm[[1, eta]] = [eta, 1]
        return perm, bump, ("EtaNotCoprime", {"eta": eta, "n": n})
    if defect == "inconsistent":
        j1, j2 = sorted(int(j) for j in rng.choice(np.arange(2, n), size=2, replace=False))
        perm[[j1, j2]] = perm[[j2, j1]]
        return perm, bump, ("DeltaImageInconsistent",
                            {"j": j1, "got": int(perm[j1]), "expected": (eta * j1) % n})
    # an extra entry in a column j >= 1 changes one row sum: T(ones) != ones
    bump = (int(rng.integers(n)), int(rng.integers(1, n)))
    return perm, bump, ("FixedPointViolation", {"which": "ones"})


def perm_table(perm, bump=None):
    n = len(perm)
    table = np.zeros((n, n), dtype=np.complex128)
    table[perm, np.arange(n)] = 1.0
    if bump is not None:
        table[bump] += 1e-3
    return table


def dft_table(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def intertwiner_table(n, k0, m0, m1, c):
    """Entry (row l, column j) = c e^{2i pi (l m1 - j (k0 l + m0)) / n}."""
    j = np.arange(n)[None, :]
    ell = np.arange(n)[:, None]
    return c * np.exp(2j * np.pi * (ell * m1 - j * (k0 * ell + m0)) / n)


INTERTWINER_DEFECTS = ("off-lattice-phase", "vanishing-entry", "perturbed-entry")


def plant_intertwiner_defect(rng, table, c, defect):
    n = table.shape[0]
    t = table.copy()
    if defect == "off-lattice-phase":       # row-1/row-0 ratio half a lattice step off
        t[1] *= np.exp(1j * np.pi / n)
        return t, ("PhaseOffLattice", {"j": 0})
    if defect == "vanishing-entry":
        ell, j = int(rng.integers(n)), int(rng.integers(n))
        t[ell, j] = 0.0
        return t, ("EntryVanishes", {"j": j, "ell": ell})
    # rows >= 2 are read only by the final reconstruction
    ell, j = int(rng.integers(2, n)), int(rng.integers(n))
    t[ell, j] += 1e-3 * abs(c) * np.exp(2j * np.pi * rng.random())
    return t, ("ReconstructionMismatch", {})


def torus_case(rng, M, N, broken, size):
    """Kernels h_xi = e^{2i pi a_xi x} on the support (|a_xi| < M/2), zero elsewhere.

    A broken family breaks its middle supported kernel, so the classifier
    always checks about half the support before it rejects.
    """
    support = sorted(int(x) - N for x in rng.choice(2 * N + 1, size=size, replace=False))
    a = {xi: int(rng.integers(-((M - 1) // 2), M // 2 + (M % 2))) for xi in support}
    x = np.arange(M) / M
    kernels = np.zeros((2 * N + 1, M), dtype=np.complex128)
    for xi in support:
        kernels[xi + N] = np.exp(2j * np.pi * a[xi] * x)
    if broken is None:
        return kernels, ("ok", {"support": support,
                                "freq_map": [[xi, -a[xi]] for xi in support]})
    xi = support[len(support) // 2]
    if broken == "perturbed-sample":
        kernels[xi + N, int(rng.integers(M))] += 1e-3
    else:                                   # half-integer frequency: -1 on wrapping pairs
        kernels[xi + N] = np.exp(2j * np.pi * (a[xi] + 0.5) * x)
    return kernels, ("CharacterEquationViolation", {"xi": xi})


# -- JSON input documents ------------------------------------------------------------

def pairs(values) -> list:
    values = np.asarray(values, dtype=np.complex128)
    return np.column_stack([values.real, values.imag]).tolist()


def write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def write_operator(path, table) -> str:
    n = table.shape[0]
    return write_json(path, {"schema": SCHEMA, "group": [n],
                             "columns": [pairs(table[:, k]) for k in range(n)]})


def write_family(path, kernels, M, N) -> str:
    return write_json(path, {"schema": SCHEMA, "M": M, "N": N,
                             "kernels": [[xi, pairs(kernels[xi + N])]
                                         for xi in range(-N, N + 1)]})


def doc_table(doc) -> np.ndarray:
    cols = np.array(doc["columns"], dtype=float)           # (n cols, n rows, 2)
    return (cols[..., 0] + 1j * cols[..., 1]).T


# -- report checks -----------------------------------------------------------------------

def expect_verdict(verdict, result_check=None):
    """Check a CLI report against ("ok", fields) or (error type, details subset)."""
    kind, want = verdict

    def check(doc, code):
        if kind != "ok":
            if code != 1 or doc.get("error") is None:
                return f"exit {code}, expected a {kind} rejection"
            err = doc["error"]
            if err["type"] != kind:
                return f"rejected with {err['type']}, expected {kind}"
            got = {k: err["details"].get(k) for k in want}
            return None if got == want else f"details {got}, expected {want}"
        if code != 0:
            return f"exit {code}, expected 0"
        res = doc["result"]
        got = {k: res.get(k) for k in want}
        if got != want:
            return f"result {got}, expected {want}"
        return result_check(res) if result_check else None
    return check


def expect_axioms(passed, checked):
    def check(doc, code):
        res = doc["result"]
        if code != (0 if passed else 1) or res["passed"] is not passed:
            return f"exit {code}, passed {res['passed']}, expected passed {passed}"
        if res["checked"] != checked:
            return f"checked {res['checked']} pairs, expected {checked}"
        if (res["witness"] is None) is not passed:
            return "witness present on a pass or missing on a failure"
        return None
    return check


def expect_twisted(S, L):
    """phases_resolved is S >= (2L)^2; the truncation diagnostic is the Gaussian's
    largest value on the grid's outer ring; the exit code follows the error."""
    h = 2.0 * L / S
    g = np.exp(-np.pi * (-L + h * np.arange(S)) ** 2)
    ring = float(max(g[0], g[-1]) * g.max())

    def check(doc, code):
        res = doc["result"]
        if res["phases_resolved"] is not (S >= (2.0 * L) ** 2):
            return f"phases_resolved {res['phases_resolved']} at S={S}, L={L}"
        if code != (0 if res["relative_error"] <= TWISTED_TOL else 1):
            return f"exit {code} with relative error {res['relative_error']}"
        for side in ("f", "g"):
            got = res["truncation_diagnostic"][side]
            if abs(got - ring) > 1e-12 * max(ring, 1e-300):
                return f"truncation {side} {got}, expected {ring}"
        return None
    return check


def expect_table(table):
    def check(doc, code):
        if code != 0:
            return f"exit {code}, expected 0"
        got = doc_table(doc)
        if got.shape != table.shape or np.max(np.abs(got - table)) > 1e-9:
            return "constructed table differs from the canonical formula"
        return None
    return check


class Cli:
    """Requests that call convalg.cli.run in-process, from argv to report written."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.report = os.path.join(workdir, "report.json")
        self.files = 0

    def path(self, stem: str) -> str:
        self.files += 1
        return os.path.join(self.workdir, f"{self.files:04d}-{stem}.json")

    def request(self, kind: str, argv: list[str],
                check_doc: Callable[[dict, int], Optional[str]]) -> Request:
        argv = argv + ["--output", self.report]
        report = self.report

        def run():
            return cli.run(argv)

        def check(code):
            try:
                if code not in (0, 1):
                    return f"exit {code}"
                with open(report, encoding="utf-8") as fh:
                    return check_doc(json.load(fh), code)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(report)
        return Request(kind, run, check)


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


# -- cli-mix ----------------------------------------------------------------------------

VARIANTS = 4     # generated inputs per slot; variant v draws its size from stratum v


def cli_mix(seed: int, c: Cli) -> Workload:
    """All seven commands on small inputs: the fixtures plus generated operators
    with n in [8, 64], torus M <= 128 and verify-twisted S <= 48; about half of
    the classify/check requests carry a planted defect."""
    fix = [
        c.request("fixture/classify-conv", ["classify-conv", "--input", fixture("dft_n8.json")],
                  expect_verdict(("ok", {"support": list(range(8)),
                                         "sigma": [[e, e] for e in range(8)]}))),
        c.request("fixture/classify-conv-reject",
                  ["classify-conv", "--input", fixture("identity_n4.json")],
                  expect_verdict(("AxiomViolation", {}))),
        c.request("fixture/check-axioms-sampled",
                  ["check-axioms", "--input", fixture("dft_n8.json"), "--mode", "sampled",
                   "--samples", "16"], expect_axioms(True, 16)),
        c.request("fixture/classify-torus",
                  ["classify-torus", "--input", fixture("fourier_torus_m64_n8.json")],
                  expect_verdict(("ok", {"support": list(range(-8, 9)),
                                         "freq_map": [[x, x] for x in range(-8, 9)]}))),
        c.request("fixture/verify-twisted",
                  ["verify-twisted", "--input", fixture("gaussian_pair_s64.json")],
                  expect_twisted(64, 4.0)),
        c.request("fixture/construct-conv",
                  ["construct", "--input", fixture("conv_params_n6.json")],
                  expect_table(conv_table(6, [0, 3], {0: 2, 3: 2}))),
        c.request("fixture/construct-intertwiner",
                  ["construct", "--input", fixture("intertwiner_params_n8.json")],
                  expect_table(intertwiner_table(8, 3, 2, 5, 2.0 - 1.0j))),
    ]
    rounds = []
    for v in range(VARIANTS):
        rng = np.random.default_rng([seed, v])
        sizes = np.random.default_rng([SIZES, v])

        def n_of(sizes=sizes, v=v):
            return stratum(sizes, v, VARIANTS, 8, 64)
        rnd = []

        n = n_of()
        support, sigma = conv_params(rng, n, int(sizes.integers(1, n + 1)))
        table = conv_table(n, support, sigma)
        want = ("ok", {"support": support, "sigma": [[e, sigma[e]] for e in support]})
        rnd.append(c.request("classify-conv", ["classify-conv", "--input",
                                               write_operator(c.path("conv"), table)],
                             expect_verdict(want)))
        n = n_of()
        bad = plant_conv_defect(rng, conv_table(n, *conv_params(rng, n, n // 2)),
                                CONV_DEFECTS[v % 3])
        rnd.append(c.request("classify-conv-reject",
                             ["classify-conv", "--input", write_operator(c.path("conv"), bad)],
                             expect_verdict(("AxiomViolation", {}))))
        for mode, defect in (("basis", None), ("basis", CONV_DEFECTS[(v + 1) % 3]),
                             ("sampled", None), ("sampled", CONV_DEFECTS[(v + 2) % 3])):
            n = n_of()
            table = conv_table(n, *conv_params(rng, n, int(sizes.integers(1, n + 1))))
            if defect:
                table = plant_conv_defect(rng, table, defect)
            argv = ["check-axioms", "--input", write_operator(c.path("conv"), table),
                    "--mode", mode, "--seed", str(int(rng.integers(1 << 16)))]
            if mode == "sampled":
                argv += ["--samples", "16"]
            rnd.append(c.request(f"check-axioms-{mode}" + ("-reject" if defect else ""), argv,
                                 expect_axioms(defect is None,
                                               n * n if mode == "basis" else 16)))
        for variant in ("direct", "fourier"):
            for defect in (None, EXCHANGE_DEFECTS[v % 3]):
                n = n_of()
                if defect == "eta-not-coprime" and is_prime(n):
                    n += 1
                perm, bump, verdict = exchange_case(rng, n, defect)
                table = perm_table(perm, bump)
                if variant == "fourier":
                    table = dft_table(n) @ table
                if verdict[0] == "ok":
                    verdict = ("ok", {**verdict[1], "conjugate": False, "variant": variant})
                rnd.append(c.request(
                    f"classify-exchange-{variant}" + ("-reject" if defect else ""),
                    ["classify-exchange", "--variant", variant, "--input",
                     write_operator(c.path("exchange"), table)], expect_verdict(verdict)))
        for defect in (None, INTERTWINER_DEFECTS[v % 3]):
            n = n_of()
            k0, m0, m1 = (int(x) for x in rng.integers(n, size=3))
            cval = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
            table = intertwiner_table(n, k0, m0, m1, cval)
            verdict = ("ok", {"k0": k0, "m0": m0, "m1": m1})
            if defect:
                table, verdict = plant_intertwiner_defect(rng, table, cval, defect)

            def c_close(res, cval=cval):
                got = complex(*res["c"])
                return None if abs(got - cval) <= 1e-12 * abs(cval) else f"c {got}, expected {cval}"
            rnd.append(c.request("classify-intertwiner" + ("-reject" if defect else ""),
                                 ["classify-intertwiner", "--input",
                                  write_operator(c.path("intertwiner"), table)],
                                 expect_verdict(verdict, c_close)))
        for broken in (None, ("perturbed-sample", "half-frequency")[v % 2]):
            M = stratum(sizes, v, VARIANTS, 16, 128)
            N = int(sizes.integers(2, 9))
            kernels, verdict = torus_case(rng, M, N, broken, int(sizes.integers(1, 2 * N + 2)))
            rnd.append(c.request("classify-torus" + ("-reject" if broken else ""),
                                 ["classify-torus", "--input",
                                  write_family(c.path("torus"), kernels, M, N)],
                                 expect_verdict(verdict)))
        S = even(stratum(sizes, v, VARIANTS, 16, 48))
        L = round(float(rng.uniform(1.5, 4.0)), 3)
        rnd.append(c.request("verify-twisted", ["verify-twisted", "--grid-S", str(S),
                                                "--grid-L", repr(L)], expect_twisted(S, L)))
        n = n_of()
        support, sigma = conv_params(rng, n, int(sizes.integers(1, n + 1)))
        path = write_json(c.path("conv-params"), {
            "schema": SCHEMA, "n": n, "support": support,
            "sigma": [[e, sigma[e]] for e in support]})
        rnd.append(c.request("construct-conv", ["construct", "--input", path],
                             expect_table(conv_table(n, support, sigma))))
        n = n_of()
        k0, m0, m1 = (int(x) for x in rng.integers(n, size=3))
        cval = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        path = write_json(c.path("intertwiner-params"), {
            "schema": SCHEMA, "n": n, "k0": k0, "m0": m0, "m1": m1,
            "c": [cval.real, cval.imag]})
        rnd.append(c.request("construct-intertwiner", ["construct", "--input", path],
                             expect_table(intertwiner_table(n, k0, m0, m1, cval))))
        rounds.append(fix + rnd)
    requests = [r for rnd in rounds for r in rnd]
    return Workload(requests, len(requests), warmup=requests)


# -- dense-large ----------------------------------------------------------------------------

DENSE_SIZES = (128, 192, 256)
TORUS_SHAPES = ((256, 32), (512, 64))


def dense_large(seed: int, c: Cli) -> Workload:
    """classify-conv and check-axioms at each n, one accepted and one rejected
    (alternating with n), then classify-torus accepted at M=256 and rejected
    at M=512."""
    conv = {}
    for n in DENSE_SIZES:
        rng = np.random.default_rng([seed, n])
        support, sigma = conv_params(rng, n, n // 2)
        good = conv_table(n, support, sigma)
        bad = plant_conv_defect(rng, good, CONV_DEFECTS[int(rng.integers(3))])
        conv[n] = {True: (write_operator(c.path(f"conv{n}"), good),
                          ("ok", {"support": support,
                                  "sigma": [[e, sigma[e]] for e in support]})),
                   False: (write_operator(c.path(f"conv{n}-bad"), bad),
                           ("AxiomViolation", {}))}
    fam = {}
    for i, (M, N) in enumerate(TORUS_SHAPES):
        rng = np.random.default_rng([seed, M, N])
        ok = i % 2 == 0
        broken = None if ok else ("perturbed-sample", "half-frequency")[int(rng.integers(2))]
        kernels, verdict = torus_case(rng, M, N, broken, N + 1)
        fam[M] = (write_family(c.path(f"torus{M}"), kernels, M, N), verdict)

    def conv_req(command, n, ok):
        path, verdict = conv[n][ok]
        kind = f"{command}-{n}" + ("" if ok else "-reject")
        if command == "classify-conv":
            return c.request(kind, [command, "--input", path], expect_verdict(verdict))
        return c.request(kind, [command, "--input", path, "--mode", "basis"],
                         expect_axioms(ok, n * n))

    def torus_req(M):
        path, verdict = fam[M]
        return c.request(f"classify-torus-{M}" + ("" if verdict[0] == "ok" else "-reject"),
                         ["classify-torus", "--input", path], expect_verdict(verdict))

    requests = []
    for i, n in enumerate(DENSE_SIZES):
        requests.append(conv_req("classify-conv", n, i % 2 == 0))
        requests.append(conv_req("check-axioms", n, i % 2 == 1))
    requests += [torus_req(M) for M, _ in TORUS_SHAPES]
    warmup = [conv_req("classify-conv", 128, True), conv_req("check-axioms", 128, False),
              torus_req(256)]
    return Workload(requests, len(requests), warmup)


# -- phase-space ----------------------------------------------------------------------------

PHASE_SIDES = (64, 96, 128)


def gaussian_closed_form(S: float = 64, L: float = 3.0) -> Callable[[], Optional[str]]:
    """twisted_convolve(G, G) for G = e^{-pi |z|^2} equals (1/2) e^{-5 pi |z|^2 / 8}."""
    def check():
        from convalg import twisted
        grid = twisted.PlaneGrid(L, S)
        x = -L + grid.step * np.arange(S)
        g = np.exp(-np.pi * x ** 2)
        out = twisted.twisted_convolve(twisted.PhaseSpaceFunction(grid, np.outer(g, g)),
                                       twisted.PhaseSpaceFunction(grid, np.outer(g, g)))
        ref = 0.5 * np.exp(-5.0 * np.pi * (x[:, None] ** 2 + x[None, :] ** 2) / 8.0)
        err = float(np.max(np.abs(out.values - ref)))
        return None if err <= 1e-12 else f"Gaussian closed form off by {err:.3e}"
    return check


def phase_space(seed: int, c: Cli) -> Workload:
    """verify-twisted at each S, once with S >= (2L)^2 and once under-resolved."""
    rng = np.random.default_rng([seed, 7])
    requests = []
    for S in PHASE_SIDES:
        edge = math.sqrt(S) / 2.0                 # S = (2 edge)^2
        for L in (rng.uniform(2.5, edge), rng.uniform(edge + 0.25, edge + 2.0)):
            L = round(float(L), 3)
            requests.append(c.request(f"verify-twisted-{S}",
                                      ["verify-twisted", "--grid-S", str(S),
                                       "--grid-L", repr(L)], expect_twisted(S, L)))
    return Workload(requests, len(requests), warmup=requests[:2],
                    final_checks=[gaussian_closed_form()])


# -- cli ------------------------------------------------------------------------------------

def interleave(many: list, few: list) -> list:
    """The items of ``many`` in order, with those of ``few`` spread evenly among them."""
    out = []
    for i, item in enumerate(many):
        out.append(item)
        out.extend(few[i * len(few) // len(many):(i + 1) * len(few) // len(many)])
    return out


def cli_workload(seed: int, workdir: str) -> Workload:
    """Every CLI command: the small cli-mix requests, with the dense-large and
    phase-space requests spread evenly among them.  The small requests set
    the median; the large ones set the tail, most of the request time and
    the peak memory."""
    c = Cli(workdir)
    parts = [cli_mix(seed, c), dense_large(seed, c), phase_space(seed, c)]
    small, dense, phase = (part.requests for part in parts)
    requests = interleave(small, interleave(dense, phase))
    return Workload(requests, len(requests),
                    warmup=[r for part in parts for r in part.warmup],
                    final_checks=[f for part in parts for f in part.final_checks])


# -- signal-algebra ----------------------------------------------------------------------------

def lib_request(kind: str, fn: Callable[[], Any], check: Callable[[Any], Optional[str]]) -> Request:
    """A library call whose typed rejection is a verdict, not a failure."""
    def run():
        try:
            return fn()
        except errors.ClassificationError as exc:
            return exc
    return Request(kind, run, check)


def close(got, want, what):
    err = float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
    return None if err <= 1e-9 else f"{what} differs from numpy.fft by {err:.3e}"


def transform_request(kind, factors, values, inverse):
    want = (np.fft.ifftn if inverse else np.fft.fftn)(values.reshape(factors)).ravel()

    def fn():
        f = groups.Signal(groups.Group(factors), values)
        return groups.idft(f) if inverse else groups.dft(f)
    return lib_request(kind, fn, lambda out: close(out.values, want, kind))


def convolve_request(kind, factors, f, g):
    shape = tuple(factors)
    want = np.fft.ifftn(np.fft.fftn(f.reshape(shape)) * np.fft.fftn(g.reshape(shape))).ravel()

    def fn():
        group = groups.Group(factors)
        return groups.convolve(groups.Signal(group, f), groups.Signal(group, g))
    return lib_request(kind, fn, lambda out: close(out.values, want, kind))


def exchange_box(n, perm, conjugate, nonlinear, fourier):
    """Black box T(a)(perm[j]) = a(j) (conjugated), optionally followed by
    numpy's forward transform; the nonlinear defect agrees with the canonical
    map on point masses and constants and differs on generic signals."""
    def fn(a):
        v = np.empty(n, dtype=np.complex128)
        v[perm] = a.values
        if conjugate:
            v = v.conj()
        if nonlinear:
            x = a.values
            v[0] += 0.1 * x[1] * x[2] * (x[3] - x[0])
        if fourier:
            v = np.fft.fft(v)
        return groups.Signal(a.group, v)
    return fn


def expect_exchange(verdict, variant):
    kind, want = verdict

    def check(out):
        if kind == "ok":
            if not isinstance(out, exchange.ExchangeClassification):
                return f"rejected ({type(out).__name__}), expected {want}"
            got = {"eta": out.eta, "conjugate": out.conjugate, "variant": out.variant}
            exp = {**want, "variant": variant}
            return None if got == exp else f"classified {got}, expected {exp}"
        if type(out).__name__ != kind:
            return f"got {type(out).__name__}, expected {kind}"
        got = {k: out.details.get(k) for k in want}
        return None if got == want else f"details {got}, expected {want}"
    return check


def expect_report(passed):
    def check(out):
        if out.passed is not passed or (out.witness is None) is not passed:
            return f"passed {out.passed}, expected {passed}"
        return None
    return check


SIGNAL_DEFECTS = ("eta-not-coprime", "inconsistent", "nonlinear")
SIGNAL_ROUNDS = 64          # the request list holds this many rounds, then repeats


def signal_algebra(seed: int, workdir: str) -> Workload:
    """Library calls only.  Each round sends four transforms of a recent order
    (cyclic and product, warm in the transform-table cache) and four of a fresh
    one (cold), two convolutions, and the black-box checkers and classifiers,
    each once accepted and once rejected."""
    del workdir
    rng = np.random.default_rng([seed, 11])
    sizes = np.random.default_rng([SIZES, 11])
    recent = spread(sizes, 2, 600, 1000)
    fresh = spread(sizes, SIGNAL_ROUNDS, 400, 1000, exclude=recent)
    recent_product = tuple(spread(sizes, 2, 20, 40))
    # 40 factors reused every 20 rounds, long after the cache evicted them
    fresh_factors = spread(sizes, 40, 41, 80)
    requests = []

    def cvec(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    for r in range(SIGNAL_ROUNDS):
        fp = (fresh_factors[(2 * r) % 40], fresh_factors[(2 * r + 1) % 40])
        rec_n = recent[r % 2]
        for kind, factors, inverse in (
                ("dft-recent", (rec_n,), False), ("idft-fresh", (fresh[r],), True),
                ("dft-fresh", (fresh[(r + SIGNAL_ROUNDS // 2) % SIGNAL_ROUNDS],), False),
                ("idft-recent", (rec_n,), True),
                ("dft-product-recent", recent_product, False),
                ("dft-product-fresh", fp, False),
                ("idft-product-recent", recent_product, True),
                ("idft-product-fresh", (fp[1], fp[0]), True)):
            order = math.prod(factors)
            requests.append(transform_request(kind, factors, cvec(order), inverse))
        n = stratum(sizes, r % 4, 4, 64, 1000)
        requests.append(convolve_request("convolve", (n,), cvec(n), cvec(n)))
        factors = (stratum(sizes, r % 4, 4, 8, 32), int(sizes.integers(8, 33)))
        order = math.prod(factors)
        requests.append(convolve_request("convolve-product", factors, cvec(order), cvec(order)))

        for defect in (None, SIGNAL_DEFECTS[r % 3]):
            n = stratum(sizes, r % 4, 4, 16, 96)
            if defect == "eta-not-coprime" and is_prime(n):
                n += 1
            conj = bool(rng.integers(2))
            perm, _, verdict = exchange_case(rng, n, None if defect == "nonlinear" else defect)
            if defect == "nonlinear":
                verdict = ("FinalSweepViolation", {})
            elif verdict[0] == "ok":
                verdict = ("ok", {**verdict[1], "conjugate": conj})
            group = groups.Group(n)
            direct = exchange_box(n, perm, conj, defect == "nonlinear", False)
            fourier = exchange_box(n, perm, conj, defect == "nonlinear", True)
            sweep_seed = int(rng.integers(1 << 16))
            suffix = "-reject" if defect else ""
            requests.append(lib_request(
                "exchange-axioms" + suffix,
                lambda g=group, fn=direct, s=sweep_seed: operators.check_exchange_axioms(
                    operators.Operator.from_function(g, fn), count=16, seed=s),
                expect_report(defect is None)))
            requests.append(lib_request(
                "classify-exchange" + suffix,
                lambda g=group, fn=direct, s=sweep_seed: exchange.classify_exchange(
                    operators.Operator.from_function(g, fn), seed=s),
                expect_exchange(verdict, "direct")))
            requests.append(lib_request(
                "classify-fourier-exchange" + suffix,
                lambda g=group, fn=fourier, s=sweep_seed: exchange.classify_fourier_exchange(
                    operators.Operator.from_function(g, fn), seed=s),
                expect_exchange(verdict, "fourier")))

        for defect in (None, ("unnormalized", "scaled-entry")[r % 2]):
            n = stratum(sizes, r % 4, 4, 16, 128)
            q = int(rng.integers(n))

            def unitary(a, n=n, q=q, defect=defect):
                v = np.fft.fft(a.values)
                if defect != "unnormalized":
                    v = v / np.sqrt(n)
                if defect == "scaled-entry":
                    v[q] *= 1.001
                return groups.Signal(a.group, v)
            requests.append(lib_request(
                "involution" + ("-reject" if defect else ""),
                lambda g=groups.Group(n), fn=unitary, s=int(rng.integers(1 << 16)):
                    exchange.check_involution_symmetry(
                        operators.Operator.from_function(g, fn), seed=s),
                expect_report(defect is None)))

        for defect in (None, "leak"):
            n = stratum(sizes, r % 4, 4, 16, 96)
            support, sigma = conv_params(rng, n, int(sizes.integers(1, n + 1)))
            chi = np.zeros(n)
            chi[support] = 1.0
            sig = np.array([sigma.get(e, 0) for e in range(n)])
            p, q = (int(x) for x in rng.integers(n, size=2))

            def transform(a, chi=chi, sig=sig, p=p, q=q, defect=defect):
                v = chi * np.fft.fft(a.values)[sig]
                if defect:
                    v[q] += 0.01 * a.values[p]
                return groups.Signal(a.group, v)
            requests.append(lib_request(
                "sampled-conv-check" + ("-reject" if defect else ""),
                lambda g=groups.Group(n), fn=transform, s=int(rng.integers(1 << 16)):
                    operators.check_conv_homomorphism(
                        operators.Operator.from_function(g, fn), "sampled", count=32, seed=s),
                expect_report(defect is None)))
    per_round = len(requests) // SIGNAL_ROUNDS
    # sizes come from stratum r % 4, so four rounds make up the whole mix
    return Workload(requests, 4 * per_round, warmup=requests[:4 * per_round])


WORKLOADS = {
    "cli": cli_workload,
    "signal-algebra": signal_algebra,
}

#!/usr/bin/env python3
"""Write every CLI and library outcome of one checkout to a directory, for `diff -r`.

    python3 tools/report_bytes.py CHECKOUT OUTDIR [--seeds 1 2]

Runs all seven commands on every bundled fixture of CHECKOUT, once with
`--output` (OUTDIR/fixtures) and once to stdout (OUTDIR/fixtures-stdout),
and each command that reads the fixture (does not exit 2 on it) with
`--output` on every single-field edit of it (`edits`, into
OUTDIR/fixtures-edited), so that exit-2 messages are compared too.  The
fixtures and workloads hold only cyclic operators, so `check-axioms --mode
basis` also runs on the transform tables of PRODUCT_GROUPS, built here with
numpy, once clean and once with one planted entry (OUTDIR/product).  The
OVERFLOW runs take a fixture with one value raised near the float limit, whose
products overflow, so that the report would hold a NaN or an infinity, or
whose images themselves overflow, to a file and to stdout (OUTDIR/overflow).  The
gates runs (OUTDIR/gates) put one row at eps times a character into an n = 8
canonical table, for `classify-conv` and `check-axioms`, and one kernel at eps
times a character, next to one at (1 + 2 tol) times a character, into an M = 64
family for `classify-torus`, so that a support decision that moves shows.  Then,
for each seed (`--seeds` with no value runs the fixtures only), the
requests that `perfbench/workloads.py` generates: `cli_workload`'s commands
and `signal_algebra`'s library calls.  Each CLI run goes in-process through
`convalg.cli.run` of CHECKOUT and leaves one file in OUTDIR holding its
argv, exit code, stdout, stderr and report file, with the checkout and
work-directory paths replaced by `<checkout>` and `<work>`.  The library
calls of one seed go to one file, a block per request: its verdict against
the workload's known answer and its outcome (`describe`).  Running it on two
checkouts and `diff -r` of the two OUTDIRs shows every report byte and every
library outcome that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

COMMANDS = ("classify-conv", "check-axioms", "classify-exchange", "classify-intertwiner",
            "classify-torus", "verify-twisted", "construct")
DROP = object()
# what an edit puts in place of a field, by the name it goes under in a run's file name
REPLACEMENTS = {"drop": DROP, "null": None, "true": True, "str": "x", "list": [], "object": {},
                "minus-one": -1, "one-and-a-half": 1.5, "2-pow-70": 2 ** 70,
                "10-pow-400": 10 ** 400}
PRODUCT_GROUPS = ((2, 3), (4, 6), (3, 2, 2), (2, 64))
# (fixture, keys of the value set to [value, 0.0], value, argvs): products overflow to
# inf, and at 1e308 so do the operator's own images of sampled signals
OVERFLOW = (("identity_n4", ("columns", 0, 0), 1e300,
             (["check-axioms"], ["check-axioms", "--mode", "sampled"], ["classify-conv"])),
            ("identity_n4", ("columns", 0, 0), 1e308,
             (["check-axioms"], ["check-axioms", "--mode", "sampled"])),
            ("gaussian_pair_s64", ("f", "values", 0, 0), 1e308, (["verify-twisted"],)))
# the GATES runs, at --tol GATE_TOL: eps = each of GATE_SCALES times the tol, on both sides
# of the character check and near the zero gate of the row classifiers
GATE_TOL, GATE_SCALES = 1e-9, (1.5, 2.0, 2.5, 3.0)


def edits(doc: dict):
    """(name, edited doc) for each field of doc, and of its members f and g where they are
    objects (a phase-space pair), dropped or replaced by each of REPLACEMENTS in turn."""
    paths = [(k,) for k in sorted(doc)]
    paths += [(m, k) for m in ("f", "g") if isinstance(doc.get(m), dict) for k in sorted(doc[m])]
    for keys in paths:
        for name, value in REPLACEMENTS.items():
            new = node = dict(doc)
            if len(keys) == 2:
                node = new[keys[0]] = dict(doc[keys[0]])
            if value is DROP:
                del node[keys[-1]]
            else:
                node[keys[-1]] = value
            yield f"{'.'.join(keys)}-{name}", new


def describe(obj) -> str:
    """A library outcome on one line, exact to the bit: numbers as `repr`, arrays
    as a sha256 of their dtype, shape and bytes, a rejection as its type,
    message and details, dataclasses field by field."""
    if isinstance(obj, BaseException):
        details = getattr(obj, "details", None)
        extra = "" if details is None else ", " + describe(details)
        return f"{type(obj).__name__}({obj!s}{extra})"
    if hasattr(obj, "group") and hasattr(obj, "values"):          # a Signal
        return f"Signal({obj.group.factors}, {describe(obj.values)})"
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):         # an array
        digest = hashlib.sha256(f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes())
        return f"sha256:{digest.hexdigest()}"
    if dataclasses.is_dataclass(obj):
        fields = (f"{f.name}={describe(getattr(obj, f.name))}" for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({', '.join(fields)})"
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(map(describe, obj)) + ")"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{k}: {describe(v)}" for k, v in obj.items()) + "}"
    return repr(obj)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=pathlib.Path)
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2],
                        help="workload seeds (default 1 2; none: fixtures only)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    # this checkout's convalg and perfbench, ahead of anything on PYTHONPATH
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import convalg.cli as cli
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(checkout):
        print(f"error: imported convalg from {cli.__file__}, not {checkout}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as work:
        report = os.path.join(work, "report.json")
        edited = os.path.join(work, "edited.json")

        def record(path: pathlib.Path, argv: list[str]) -> int:
            with contextlib.suppress(FileNotFoundError):
                os.remove(report)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            doc = pathlib.Path(report).read_text(encoding="utf-8") if os.path.exists(report) else ""
            text = (f"argv: {' '.join(argv)}\nexit: {code}\nstdout:\n{out.getvalue()}"
                    f"stderr:\n{err.getvalue()}report:\n{doc}")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text.replace(str(checkout), "<checkout>").replace(work, "<work>"),
                            encoding="utf-8")
            return code

        for fixture in sorted((checkout / "fixtures").glob("*.json")):
            readers = []
            for command in COMMANDS:
                argv = [command, "--input", str(fixture)]
                name = f"{fixture.stem}-{command}.txt"
                if record(args.outdir / "fixtures" / name, argv + ["--output", report]) != 2:
                    readers.append(command)
                record(args.outdir / "fixtures-stdout" / name, argv)
            for edit, doc in edits(json.loads(fixture.read_text(encoding="utf-8"))):
                pathlib.Path(edited).write_text(json.dumps(doc), encoding="utf-8")
                for command in readers:
                    record(args.outdir / "fixtures-edited" / f"{fixture.stem}-{edit}-{command}.txt",
                           [command, "--input", edited, "--output", report])

        for factors in PRODUCT_GROUPS:
            # columns are the transforms of the point masses, one axis per factor
            n = int(np.prod(factors))
            eye = np.eye(n).reshape(factors * 2)
            table = np.fft.fftn(eye, axes=tuple(range(len(factors)))).reshape(n, n)
            for kind in ("clean", "planted"):
                if kind == "planted":
                    table[1, n - 1] += 1e-3
                columns = np.stack((table.T.real, table.T.imag), -1).tolist()
                pathlib.Path(edited).write_text(json.dumps(
                    {"schema": 1, "group": list(factors), "columns": columns}), encoding="utf-8")
                record(args.outdir / "product" / f"{'x'.join(map(str, factors))}-{kind}.txt",
                       ["check-axioms", "--input", edited, "--mode", "basis", "--output", report])

        for stem, keys, value, argvs in OVERFLOW:
            doc = json.loads((checkout / "fixtures" / f"{stem}.json").read_text(encoding="utf-8"))
            node = doc
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = [value, 0.0]
            pathlib.Path(edited).write_text(json.dumps(doc), encoding="utf-8")
            for argv in argvs:
                name = f"{stem}-{value:g}-{'-'.join(a.lstrip('-') for a in argv)}"
                argv = [argv[0], "--input", edited, *argv[1:]]
                record(args.outdir / "overflow" / f"{name}.txt", argv + ["--output", report])
                record(args.outdir / "overflow" / f"{name}-stdout.txt", argv)

        k = np.arange(8)
        for scale in GATE_SCALES:
            eps = scale * GATE_TOL
            # rows 0..5 are the characters of sigma(eta) = 3 eta mod 8, row 6 is 0, and
            # row 7 is eps times the character of sigma = 5
            table = np.zeros((8, 8), dtype=complex)
            table[:6] = np.exp(-2j * np.pi * ((3 * np.arange(6)[:, None] * k) % 8) / 8)
            table[7] = eps * np.exp(-2j * np.pi * ((5 * k) % 8) / 8)
            columns = np.stack((table.T.real, table.T.imag), -1).tolist()
            pathlib.Path(edited).write_text(json.dumps(
                {"schema": 1, "group": [8], "columns": columns}), encoding="utf-8")
            for command in ("classify-conv", "check-axioms"):
                record(args.outdir / "gates" / f"n8-eps{scale:g}-{command}.txt",
                       [command, "--input", edited, "--tol", repr(GATE_TOL), "--output", report])
            # kernels at xi = -2..2: chi_2, (1 + 2 tol) chi_-3, ones, eps chi_5, 0
            x = np.arange(64) / 64
            kernels = [np.exp(2j * np.pi * 2 * x),
                       (1 + 2 * GATE_TOL) * np.exp(-2j * np.pi * 3 * x),
                       np.ones(64), eps * np.exp(2j * np.pi * 5 * x), np.zeros(64)]
            pathlib.Path(edited).write_text(json.dumps({"schema": 1, "M": 64, "N": 2, "kernels": [
                [xi, np.stack((h.real, h.imag), -1).tolist()] for xi, h in
                zip(range(-2, 3), kernels)]}), encoding="utf-8")
            record(args.outdir / "gates" / f"m64-eps{scale:g}-classify-torus.txt",
                   ["classify-torus", "--input", edited, "--tol", repr(GATE_TOL),
                    "--output", report])

        if args.seeds:
            import workloads
            real_run, captured = cli.run, []
            for seed in args.seeds:
                seed_work = os.path.join(work, f"seed{seed}")
                os.mkdir(seed_work)
                requests = workloads.cli_workload(seed, seed_work).requests
                # take each request's argv; its --output is the workload's own
                # report path, so run it here with ours
                cli.run = captured.append
                try:
                    for req in requests:
                        req.run()
                finally:
                    cli.run = real_run
                for i, (req, argv) in enumerate(zip(requests, captured)):
                    argv = argv[:argv.index("--output")] + ["--output", report]
                    name = f"{i:03d}-{req.kind.replace('/', '-')}.txt"
                    record(args.outdir / f"seed{seed}" / name, argv)
                captured.clear()
            for seed in args.seeds:
                blocks = []
                for i, req in enumerate(workloads.signal_algebra(seed, work).requests):
                    try:
                        out = req.run()
                        verdict = req.check(out) or "ok"
                    except Exception as exc:    # a raising request is an outcome too
                        out, verdict = exc, "raised"
                    blocks.append(f"request {i:04d} {req.kind}\nverdict: {verdict}\n"
                                  f"outcome: {describe(out)}\n")
                path = args.outdir / "signal-algebra" / f"seed{seed}.txt"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("".join(blocks), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

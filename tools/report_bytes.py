#!/usr/bin/env python3
"""Write every CLI and library outcome of one checkout to a directory, for `diff -r`.

    python3 tools/report_bytes.py CHECKOUT OUTDIR [--seeds 1 2]

Runs all seven commands on every bundled fixture of CHECKOUT, then, for each
seed (`--seeds` with no value runs the fixtures only), the requests that
`perfbench/workloads.py` generates: `cli_workload`'s commands and
`signal_algebra`'s library calls.  Each CLI run goes in-process through
`convalg.cli.run` of CHECKOUT and leaves one file in OUTDIR holding its
argv, exit code, stderr and report, with the checkout and work-directory
paths replaced by `<checkout>` and `<work>`.  The library calls of one seed
go to one file, a block per request: its verdict against the workload's
known answer and its outcome (`describe`).  Running it on two checkouts and
`diff -r` of the two OUTDIRs shows every report byte and every library
outcome that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import pathlib
import sys
import tempfile

COMMANDS = ("classify-conv", "check-axioms", "classify-exchange", "classify-intertwiner",
            "classify-torus", "verify-twisted", "construct")


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

        def record(path: pathlib.Path, argv: list[str]) -> None:
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

        for fixture in sorted((checkout / "fixtures").glob("*.json")):
            for command in COMMANDS:
                record(args.outdir / "fixtures" / f"{fixture.stem}-{command}.txt",
                       [command, "--input", str(fixture), "--output", report])

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

"""Tests of the benchmark itself: its oracle, its tracer and its launcher."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np

import convalg
import tracer
import worker
import workloads
from convalg import cli, convhom, operators

HERE = os.path.dirname(os.path.abspath(__file__))


def error_frac(requests) -> float:
    latencies, failures = worker.closed_loop(requests, count=len(requests))
    return len(failures) / len(latencies)


def test_deliberately_wrong_answers_raise_error_frac(tmp_path):
    c = workloads.Cli(str(tmp_path))
    dft8 = workloads.fixture("dft_n8.json")
    right = ("ok", {"support": list(range(8)), "sigma": [[e, e] for e in range(8)]})
    wrong = ("ok", {"support": list(range(8)), "sigma": [[e, (e + 1) % 8] for e in range(8)]})
    values = np.arange(12.0) + 1j
    assert error_frac([c.request("classify-conv", ["classify-conv", "--input", dft8],
                                 workloads.expect_verdict(right)),
                       workloads.transform_request("dft", (3, 4), values, False)]) == 0.0

    wrong_cli = c.request("classify-conv", ["classify-conv", "--input", dft8],
                          workloads.expect_verdict(wrong))
    wrong_exit = c.request("classify-conv", ["classify-conv", "--input", dft8],
                           workloads.expect_verdict(("AxiomViolation", {})))
    wrong_fft = workloads.lib_request(
        "dft", lambda: convalg.dft(convalg.Signal(convalg.Group((3, 4)), values)),
        lambda out: workloads.close(out.values, np.fft.ifft(values), "dft"))
    for bad in (wrong_cli, wrong_exit, wrong_fft):
        assert error_frac([bad]) > 0.0


def test_a_request_that_raises_counts_as_failed():
    def boom():
        raise ValueError("not a verdict")
    assert error_frac([workloads.Request("boom", boom, lambda out: None)]) == 1.0


def test_generated_requests_agree_with_the_current_code(tmp_path):
    c = workloads.Cli(str(tmp_path))
    small = workloads.cli_mix(3, c)
    phase = workloads.phase_space(3, c)
    library = workloads.signal_algebra(3, str(tmp_path))
    for requests in (small.requests, phase.requests[:2], library.requests[:22]):
        _, failures = worker.closed_loop(requests, count=len(requests))
        assert failures == []
    assert all(check() is None for check in phase.final_checks)


def test_interleave_spreads_the_few_evenly():
    assert workloads.interleave(list("abcdef"), [1, 2]) == list("abc") + [1] + list("def") + [2]


def test_tail_leaves_ten_samples_beyond():
    pct, value = worker.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def test_tracer_wraps_every_import_site_and_restores_them():
    originals = (operators.check_conv_homomorphism, convhom.check_conv_homomorphism,
                 cli.check_conv_homomorphism, convalg.check_conv_homomorphism)
    assert len(set(map(id, originals))) == 1
    t = tracer.Tracer()
    with t:
        assert convhom.check_conv_homomorphism is not originals[0]
        assert cli.check_conv_homomorphism is convhom.check_conv_homomorphism
        assert convalg.check_conv_homomorphism is convhom.check_conv_homomorphism
        convhom.classify(operators.Operator.dft(convalg.Group(16)))
    assert (operators.check_conv_homomorphism, convhom.check_conv_homomorphism,
            cli.check_conv_homomorphism, convalg.check_conv_homomorphism) == originals

    names = [s[0] for s in t.spans]
    assert names == ["convhom.classify", "operators.basis_check"]
    assert t.spans[1][3] == 0                        # the check's parent is classify
    self_time, calls = t.self_times()
    whole = t.spans[0][2] - t.spans[0][1]
    assert 0.0 < self_time["convhom.classify"] < whole
    metrics = t.layer_metrics(1, 0.0)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["operators.pairs_checked"] == 256
    assert metrics["operators.basis_check_peak_mib"] > 0.0


def test_launcher_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

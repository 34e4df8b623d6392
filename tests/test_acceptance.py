"""Acceptance suite: the thirteen headline criteria, one per test.

Each test prints a single pass/fail line (run pytest with -s to stream
them). Most criteria delegate to the shared check registry in
qmet.checks, so the CLI `verify` subcommand and this suite cannot drift
apart. Stated wall-clock budgets are asserted where a criterion has one.
"""

import contextlib
import os
import subprocess
import sys
import time

import numpy as np

from qmet import checks, cli, graphs


@contextlib.contextmanager
def _report(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("FAIL criterion %02d (%s)" % (num, desc))
        raise
    print("pass criterion %02d (%s) [%.1f s]" % (num, desc, time.perf_counter() - t0))


def _run_check(name, budget=None):
    t0 = time.perf_counter()
    results = checks.run_checks(names=[name])
    elapsed = time.perf_counter() - t0
    assert len(results) == 1
    r = results[0]
    assert r.ok, "%s: %s" % (r.name, r.detail)
    if budget is not None:
        assert elapsed < budget, "%s took %.1f s (budget %.0f s)" % (name, elapsed, budget)
    return r


def test_criterion_01_closed_form_families():
    with _report(1, "star/bundled-star/triangle closed forms, exact and fast"):
        t0 = time.perf_counter()
        for n in range(3, 9):
            q = graphs.qfi_x(graphs.star(n))
            assert isinstance(q, int)
            assert q == (n - 1) ** 2 + 1
        tri = graphs.bundle(graphs.complete(3), [3, 4, 3])
        assert graphs.qfi_x(tri) == 34
        mismatches = []
        # bundled-star partition values b^2 + (n - b)^2 with b = n/k, confirmed
        # by the statevector comparison in the graph-closed-forms check
        for (n, k), want in (((12, 3), 80), ((12, 4), 90), ((20, 5), 272)):
            got = graphs.qfi_x(graphs.bundle(graphs.star(k), [n // k] * k))
            if got != want:
                mismatches.append(
                    "bundled star n=%d k=%d: expected %d, got %d" % (n, k, want, got))
        assert time.perf_counter() - t0 < 1.0
        assert not mismatches, "; ".join(mismatches)


def test_criterion_02_graph_qfi_vs_oracle():
    with _report(2, "graph QFI vs dense oracle, noiseless/dephasing/erasure"):
        _run_check("graph-oracle-exhaustive", budget=300)


def test_criterion_03_z_encoding():
    with _report(3, "z encoding carries no entanglement advantage"):
        _run_check("graph-z-encoding")


def test_criterion_04_free_decay():
    with _report(4, "uncorrected GHZ QFI vs Lindblad oracle and decay law"):
        _run_check("ecc-free-decay", budget=120)


def test_criterion_05_parity_code_vs_oracle():
    with _report(5, "parity-code QFI hierarchy vs amplitude oracle"):
        _run_check("ecc-parity-oracle", budget=180)


def test_criterion_06_bitflip_halving():
    with _report(6, "bit-flip code gap halves per doubled round count"):
        _run_check("ecc-bitflip")


def test_criterion_07_plateau_collapse():
    with _report(7, "plateau then collapse of the corrected QFI"):
        _run_check("ecc-plateau-collapse", budget=60)


def test_criterion_08_twirl_lemmas():
    with _report(8, "Pauli/Clifford/local-Clifford twirl residuals"):
        _run_check("twirl-lemmas", budget=180)


def test_criterion_09_soundness():
    with _report(9, "soundness bounds, dual-path and sampled-vs-exact agreement"):
        t0 = time.perf_counter()
        _run_check("soundness-exact-battery")
        _run_check("soundness-dual-path")
        _run_check("sampled-vs-exact")
        assert time.perf_counter() - t0 < 300


def test_criterion_10_privacy():
    with _report(10, "encrypted register is exactly maximally mixed"):
        _run_check("privacy")


def test_criterion_11_integrity():
    with _report(11, "end-to-end bias/MSE within integrity bounds"):
        _run_check("integrity-demo", budget=120)


def test_criterion_12_estimation_primitives():
    with _report(12, "exact estimator statistics and thermometry identities"):
        _run_check("estimation-primitives")


def _verify_quick_bytes():
    env = dict(os.environ)
    env.pop("QMET_VERIFY_PERTURB", None)
    r = subprocess.run([sys.executable, "-m", "qmet.cli", "verify", "--quick"],
                       capture_output=True, env=env)
    assert r.returncode == 0, r.stdout.decode() + r.stderr.decode()
    return r.stdout


def test_criterion_13_deterministic_output(tmp_path):
    with _report(13, "verify and sweep outputs byte-identical across runs"):
        _run_check("output-determinism")
        assert _verify_quick_bytes() == _verify_quick_bytes()
        args = ["ecc", "--code", "parity", "--n", "4", "--omega", "1",
                "--gamma", "0.25", "--tau", "0.05", "--t", "0.5",
                "--sweep", "t:0.1:1.0:10:lin"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

"""Tests of the benchmark itself: reference helpers, checkers and self time.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it; name it on the command line.  It runs the verify-quick op twice
(once with QMET_VERIFY_PERTURB=1), which takes about 40 s.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qmet import crypto, dense, estimation, pauli  # noqa: E402


def _star(n):
    return [(0, v) for v in range(1, n)]


def _bundled_star(k, b):
    """star(k) with every vertex replaced by b copies; copies of adjacent vertices are joined."""
    copies = [range(v * b, (v + 1) * b) for v in range(k)]
    return [(u, w) for _, leaf in _star(k) for u in copies[0] for w in copies[leaf]]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_statevector_reproduces_star(n):
    psi = ref.graph_statevector(n, _star(n))
    assert ref.encoding_qfi(psi, n, "x") == pytest.approx((n - 1) ** 2 + 1, abs=1e-9)


@pytest.mark.parametrize("k,b", [(2, 2), (3, 2), (4, 3), (3, 4), (5, 3)])
def test_statevector_reproduces_bundled_star(k, b):
    n = k * b
    psi = ref.graph_statevector(n, _bundled_star(k, b))
    assert ref.encoding_qfi(psi, n, "x") == pytest.approx(b * b + (n - b) ** 2, abs=1e-9)


def test_apply_pauli_matches_dense_matrix():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    for label in ("XIZ", "-YZX", "iIYI"):
        p = pauli.PauliString.from_label(label)
        assert np.allclose(ref.apply_pauli(psi, 3, p.x, p.z, p.k), p.to_matrix() @ psi)


def _corrupt(out) -> list:
    """Wrong versions of an op's output, of the same shape: too small and too large."""
    if out is None:
        return [pauli.PauliString.identity(1)]
    if isinstance(out, (int, float)):
        return [-abs(out) - 1.0, 1e3 * abs(out) + 1e3]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bytes):
        return [(out[0], out[1].replace(b"ok  ", b"FAIL", 1)), (1, out[1])]
    if isinstance(out, tuple):
        return [(bad,) + out[1:] for bad in _corrupt(out[0])]
    if isinstance(out, dict):
        return [dict(out, lhs=out["bound"] + 1.0), dict(out, accept_rate=1.5)]
    if isinstance(out, str):
        lines = out.splitlines()
        bad = []
        for value in ("-1", "1e9"):
            row = lines[1].split(",")
            row[8] = value
            bad.append("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        return bad
    if isinstance(out, np.ndarray):
        bad = out.copy()
        bad[1] = -bad[1]
        return [bad]
    if isinstance(out, crypto.SoundnessReport):
        return [dataclasses.replace(out, lhs=out.lhs + 0.01)]
    if isinstance(out, estimation.EstimatorStats):
        variance = out.variance * 1.01
        return [dataclasses.replace(out, variance=variance, mse=variance + out.bias ** 2)]
    if isinstance(out, pauli.PauliString):
        return [pauli.PauliString(out.n, out.x ^ 1, out.z, out.k)]
    raise TypeError("cannot corrupt %r" % type(out))


def _first_per_kind(ops):
    chosen = {}
    for op in ops:
        if not op.known_fault:
            chosen.setdefault(op.kind, op)
    return list(chosen.values())


@pytest.mark.parametrize("workload", ["lindblad-oracle", "key-oracle", "calculators"])
def test_each_checker_fails_a_corrupted_result(workload):
    workloads.warm_up(workload)
    # Within a kind the first op is the smallest (n and m grow along the list).
    for op in _first_per_kind(workloads.ordered_ops(workload, 0)):
        out = op.call()
        assert op.check(out) is None, op.kind
        for bad in _corrupt(out):
            r = run.run_round([dataclasses.replace(op, call=lambda bad=bad: bad)])
            assert len(r.failures) == 1, (op.kind, bad)
            assert not r.failures[0][2]


def test_verify_quick_passes_and_fails_under_perturbation(monkeypatch):
    op = workloads.build("verify-quick", 0, ROOT)[0]
    out = op.call()
    assert op.check(out) is None and op.child_maxrss_kib > 0
    assert all(op.check(bad) is not None for bad in _corrupt(out))
    monkeypatch.setenv("QMET_VERIFY_PERTURB", "1")
    r = run.run_round([workloads.build("verify-quick", 0, ROOT)[0]])
    assert len(r.failures) == 1 and r.failures[0][1].startswith("exit code")


def test_known_fault_group_fails_and_is_seed_independent():
    for seed in (0, 1):
        ops = [op for op in workloads.build("calculators", seed, ROOT) if op.known_fault]
        r = run.run_round(ops)
        assert len(ops) == 3 and len(r.failures) == 3
        assert all(known for _, _, known in r.failures)


def test_self_time_of_synthetic_spans():
    # a [0, 10] holds b [1, 4] and c [5, 7]; b holds d [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_on_a_nested_call():
    tracer = tracing.Tracer()

    def spin(seconds):
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            pass

    def inner():
        spin(0.02)

    def outer():
        spin(0.01)
        inner_t()
        spin(0.01)

    inner_t = tracer.wrap("dense.inner", inner)
    tracer.span("bench.op", tracer.wrap("crypto.outer", outer))
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [("bench.op", -1), ("crypto.outer", 0),
                                             ("dense.inner", 1)]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert selfs[1] == pytest.approx(0.02, abs=0.005)
    assert selfs[2] == pytest.approx(0.02, abs=0.005)
    assert selfs[1] + selfs[2] + selfs[0] == pytest.approx(tracer.end[0] - tracer.start[0])


def test_install_rebinds_every_name_and_uninstall_restores():
    from qmet import checks, cli, ecc, graphs

    modules = {"cli": cli, "checks": checks, "graphs": graphs, "ecc": ecc, "crypto": crypto,
               "estimation": estimation, "dense": dense, "pauli": pauli}
    original = dense.kron_all
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert crypto.kron_all is dense.kron_all is pauli.kron_all is not original
        tracer.span(tracing.OP_SPAN, crypto.dense_trap_single, 1, 1,
                    crypto.AttackSpec.fixed_pauli("XZ"))
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert dense.kron_all is original and crypto.kron_all is original
    assert metrics["dense.kron_all.calls"] > 0 and metrics["dense.kron_all.out_mib"] > 0
    assert metrics["crypto.dense_enum.self_s"] > 0
    assert set(tracing.PER_LAYER) - {"trace.overhead_s"} <= set(metrics)


def test_spans_outside_an_op_are_not_counted():
    modules = {"crypto": crypto, "dense": dense, "pauli": pauli}
    tracer = tracing.Tracer()
    attack = crypto.AttackSpec.fixed_pauli("XZ")
    tracer.install(modules)
    try:
        tracer.span(tracing.OP_SPAN, crypto.dense_trap_single, 1, 1, attack)
        inside = tracing.layer_metrics(tracer)
        # A second call outside any op span, as an output check would make.
        crypto.dense_trap_single(1, 1, attack)
        after = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert len(tracer.start) > 2 * inside["crypto.calls"] > 0
    assert after == inside


def test_op_counts_do_not_depend_on_the_number_of_rounds():
    ok = workloads.Op("ok", lambda: 1.0, lambda out: None)
    known = workloads.Op("known", lambda: 1.0, lambda out: "wrong", known_fault=True)
    ops = [ok, known, ok]
    for rounds in (1, 4):
        done = [run.run_round(ops) for _ in range(rounds)]
        assert run.summarize(done, ops)[:3] == (True, 3, 1)
    bad = workloads.Op("bad", lambda: 1.0, lambda out: "wrong")
    assert run.summarize([run.run_round([ok, bad])], [ok, bad])[:3] == (False, 2, 1)


def test_benchmark_json_matches_what_a_run_prints():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_oracles_is_the_lindblad_list_then_the_key_list():
    def kinds(ops):
        return [op.kind for op in ops]

    ordered = workloads.ordered_ops("oracles", 3)
    lindblad = workloads.ordered_ops("lindblad-oracle", 3)
    assert kinds(ordered[:len(lindblad)]) == kinds(lindblad)
    assert kinds(ordered[len(lindblad):]) == kinds(workloads.ordered_ops("key-oracle", 3))


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess

    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "reference.py"):
        shutil.copy(HERE / name, tmp_path / "perfbench" / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calculators",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0 and proc.stdout == b""

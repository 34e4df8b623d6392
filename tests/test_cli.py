"""CLI tests: exit codes, printed values, file outputs, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmet import checks, cli, crypto, ecc, graphs

STAR5 = "5\n0 1\n0 2\n0 3\n0 4\n"
CYCLE6 = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
TRIANGLE = "3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def star5(tmp_path):
    path = tmp_path / "star5.edges"
    path.write_text(STAR5)
    return str(path)


@pytest.fixture
def cycle6(tmp_path):
    path = tmp_path / "cycle6.edges"
    path.write_text(CYCLE6)
    return str(path)


def run_cli(args):
    return cli.main(list(args))


def test_graph_star5(star5, capsys):
    assert run_cli(["graph", "--edges", star5]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "qfi=17"
    assert out[1] == "class 0: u=1 m=4"
    assert out[2] == "class 1: u=4 m=1"


def test_graph_dephasing_extremes(star5, capsys):
    assert run_cli(["graph", "--edges", star5, "--dephasing", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "qfi=0"
    assert run_cli(["graph", "--edges", star5, "--dephasing", "0.1"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    np.testing.assert_allclose(float(line.split("=")[1]), 8.411975670713, rtol=1e-9)


def test_graph_oracle_and_stabilizer(star5, capsys):
    assert run_cli(["graph", "--edges", star5, "--oracle", "--yz-stabilizer"]) == 0
    out = capsys.readouterr().out
    assert "qfi=17" in out
    assert "yz_stabilizer=YZZZY" in out
    oracle = float([l for l in out.splitlines() if l.startswith("oracle=")][0][7:])
    np.testing.assert_allclose(oracle, 17.0, rtol=1e-6)
    delta = float([l for l in out.splitlines() if l.startswith("delta=")][0][6:])
    assert delta < 1e-6


def test_graph_erasure(cycle6, capsys):
    assert run_cli(["graph", "--edges", cycle6, "--erase", "0,3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "qfi=0"
    assert run_cli(["graph", "--edges", cycle6, "--mean-erase", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "qfi=5"


def test_graph_noise_requires_x_encoding(star5, capsys):
    rc = run_cli(["graph", "--edges", star5, "--encoding", "y", "--dephasing", "0.1"])
    assert rc == 2
    assert "x encoding" in capsys.readouterr().err


def test_graph_isolated_vertex(tmp_path, capsys):
    path = tmp_path / "iso.edges"
    path.write_text("3\n0 1\n")
    assert run_cli(["graph", "--edges", str(path)]) == 3
    capsys.readouterr()
    assert run_cli(["graph", "--edges", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "qfi=2"
    assert "note=" in out


@pytest.mark.parametrize("e", [5, -1])
@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_graph_mean_erase_out_of_range(tmp_path, capsys, e, oracle):
    path = tmp_path / "p3.edges"
    path.write_text("3\n0 1\n1 2\n")
    assert run_cli(["graph", "--edges", str(path), "--mean-erase", str(e), *oracle]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: erasure count %d out of range\n" % e


def test_graph_oracle_reaches_twenty_vertices_without_noise(tmp_path, capsys):
    # bundled star (20, 5): hub bundle of 4 plus 16 merged leaf clones
    path = tmp_path / "b20.edges"
    path.write_text("20\n" + "".join("%d %d\n" % (h, l) for h in range(4)
                                     for l in range(4, 20)))
    assert run_cli(["graph", "--edges", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "qfi=272" and "oracle=272" in out
    assert run_cli(["graph", "--edges", str(path), "--oracle", "--dephasing", "0.1"]) == 3
    assert "capped at 8" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_random_inputs_exit_cleanly(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    path = tmp_path_factory.getbasetemp() / "random.edges"
    path.write_text("%d\n" % n + "".join("%d %d\n" % e for e in edges))
    args = ["graph", "--edges", str(path)]
    if data.draw(st.booleans()):
        args += ["--encoding", "y"]
    noise = data.draw(st.sampled_from(["none", "dephasing", "erase", "mean-erase"]))
    if noise == "dephasing":
        args.append("--dephasing=%r" % data.draw(st.floats(-0.5, 1.5)))
    elif noise == "erase":
        verts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        args += ["--erase", ",".join(map(str, verts))]
    elif noise == "mean-erase":
        args.append("--mean-erase=%d" % data.draw(st.integers(-1, n + 2)))
    args += [flag for flag in ("--oracle", "--yz-stabilizer") if data.draw(st.booleans())]
    out = io.StringIO()
    # In process: any exception other than the CLI's own errors fails the test.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(args)
    assert rc in (0, 2, 3)
    assert "nan" not in out.getvalue()


@pytest.mark.parametrize("args,flag,value,code", [
    (["graph", "--edges", "STAR5"], "--dephasing", "-1e-05", 3),
    (["ecc", "--code", "none", "--n", "3", "--gamma", "0.1", "--tau", "0.1", "--t", "1",
      "--out", "OUT"], "--omega", "-1e-3", 0),
], ids=["graph", "ecc"])
def test_negative_exponent_value_after_a_space(star5, tmp_path, capsys, args, flag, value, code):
    # argparse alone reads "-1e-3" as an option; both spellings must mean the same.
    out_path = tmp_path / "o.csv"
    args = [{"STAR5": star5, "OUT": str(out_path)}.get(a, a) for a in args]
    results = []
    for form in ([flag, value], [flag + "=" + value]):
        try:
            rc = run_cli(args + form)
        except SystemExit as exc:
            rc = exc.code
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        results.append((rc, capsys.readouterr(), written))
    assert results[0] == results[1]
    assert results[0][0] == code


def test_graph_missing_file(tmp_path, capsys):
    rc = run_cli(["graph", "--edges", str(tmp_path / "nope.edges")])
    assert rc == 2


def test_bundle_roundtrip(tmp_path, capsys):
    src = tmp_path / "tri.edges"
    src.write_text(TRIANGLE)
    out_path = tmp_path / "bundled.edges"
    rc = run_cli(["bundle", "--edges", str(src), "--sizes", "3,4,3",
                  "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=10" in out
    assert "qfi=34" in out
    capsys.readouterr()
    assert run_cli(["graph", "--edges", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "qfi=34"


def test_bundle_size_mismatch(tmp_path, capsys):
    src = tmp_path / "tri.edges"
    src.write_text(TRIANGLE)
    rc = run_cli(["bundle", "--edges", str(src), "--sizes", "3,4",
                  "--out", str(tmp_path / "x.edges")])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["bundle", "--sizes", "3,4,3"],
    ["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.2",
     "--tau", "0.1", "--t", "0.3"],
    ["crypto", "--protocol", "trap1", "--n", "1", "--t", "1", "--attack", "id"],
], ids=["bundle", "ecc", "crypto"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, args):
    src = tmp_path / "tri.edges"
    src.write_text(TRIANGLE)
    out_path = tmp_path / "missing" / "x.out"
    if args[0] == "bundle":
        args = args + ["--edges", str(src)]
    rc = run_cli(args + ["--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % out_path)


def test_ecc_single_point(tmp_path, capsys):
    out_path = tmp_path / "point.csv"
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.3",
                  "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,omega,gamma,xi,p,tau,t,n,qfi,qfi_over_HL"
    row = lines[1].split(",")
    assert row[0] == "0"
    np.testing.assert_allclose(float(row[8]), 0.77914840798789897, rtol=1e-12)
    np.testing.assert_allclose(float(row[9]), float(row[8]) / (3 * 0.3) ** 2, rtol=1e-12)


def test_ecc_noiseless_hits_heisenberg(tmp_path):
    out_path = tmp_path / "free.csv"
    rc = run_cli(["ecc", "--code", "none", "--n", "4", "--omega", "1",
                  "--gamma", "0", "--tau", "0.1", "--t", "0.5",
                  "--out", str(out_path)])
    assert rc == 0
    row = out_path.read_text().splitlines()[1].split(",")
    np.testing.assert_allclose(float(row[9]), 1.0, rtol=1e-12)


def test_ecc_oracle_column(tmp_path):
    out_path = tmp_path / "orc.csv"
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.3", "--oracle",
                  "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].endswith(",qfi_oracle")
    row = lines[1].split(",")
    np.testing.assert_allclose(float(row[10]), float(row[8]), rtol=1e-6)


def test_ecc_non_integer_rounds(tmp_path, capsys):
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.35",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "integer multiple" in capsys.readouterr().err


def test_ecc_sweep_tau_keeps_rounds_fixed(tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.5",
                  "--sweep", "tau:0.01:0.1:5:log", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        row = line.split(",")
        tau, t = float(row[5]), float(row[6])
        np.testing.assert_allclose(float(row[0]), tau, rtol=1e-15)
        np.testing.assert_allclose(t / tau, 5.0, rtol=1e-12)


def test_ecc_preset_fills_unset(tmp_path):
    out_path = tmp_path / "preset.csv"
    rc = run_cli(["ecc", "--code", "parity", "--n", "10", "--omega", "1",
                  "--t", "1e-3", "--preset", "fig54", "--out", str(out_path)])
    assert rc == 0
    row = out_path.read_text().splitlines()[1].split(",")
    np.testing.assert_allclose(float(row[2]), 1e6)
    np.testing.assert_allclose(float(row[3]), 2e3)
    np.testing.assert_allclose(float(row[4]), 0.06)
    np.testing.assert_allclose(float(row[5]), 1e-6)


@pytest.mark.parametrize("bad", [
    ["--t", "inf"], ["--omega", "nan", "--t", "0.5"],
    # finite flags whose (n t)^2 or transfer entries overflow
    ["--code", "parity", "--n", "5", "--t", "1e300"],
    ["--n", "5", "--omega", "1e300", "--t", "1"],
    ["--code", "parity", "--n", "5", "--omega", "1e300", "--t", "1"],
])
def test_ecc_non_finite_input_fails_cleanly(tmp_path, bad):
    out_path = tmp_path / "x.csv"
    args = ["ecc", "--code", "none", "--n", "2", "--omega", "1", "--gamma", "0.1",
            "--tau", "0.1", *bad, "--out", str(out_path)]
    proc = _run_subprocess(args)
    assert proc.returncode in (2, 3)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "finite" in lines[0]
    assert not out_path.exists() or "nan" not in out_path.read_text()


def _ecc_rows(args, tmp_path):
    out_path = tmp_path / "e.csv"
    assert run_cli(["ecc", "--omega", "1", *args, "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def test_ecc_small_gamma_tau_stays_below_heisenberg(tmp_path):
    # Small gamma*tau puts R near 1, where the rank-2 QFI divides d(ln R)^2
    # by 1 - R^2 and any error in the omega-derivative is amplified.
    (row,) = _ecc_rows(["--n", "5", "--gamma", "0.05", "--tau", "1e-6", "--t", "1e-3",
                        "--code", "bitflip", "--oracle"], tmp_path)
    assert row["qfi"] <= (5 * 1e-3) ** 2
    assert abs(row["qfi"] - row["qfi_oracle"]) <= 1e-6 * row["qfi_oracle"]
    rows = _ecc_rows(["--n", "25", "--gamma", "0.05", "--tau", "1e-4", "--t", "0.1",
                      "--code", "bitflip", "--sweep", "tau:1e-6:0.3:40:log"], tmp_path)
    assert len(rows) == 40 and all(0.0 <= r["qfi_over_HL"] <= 1.0 for r in rows)
    (row,) = _ecc_rows(["--n", "25", "--gamma", "0.2", "--xi", "0.05", "--tau", "1e-6",
                        "--t", "1e-5", "--code", "parity"], tmp_path)
    assert 0.0 <= row["qfi_over_HL"] <= 1.0


# (code, base flags, sweep, with the oracle): every code with each sweep it takes.
# The p and xi sweeps start at 0, so one batch mixes the parity routes; the t
# sweeps run from 1 to 10^5 rounds.
_SWEEP_CASES = [
    ("none", dict(n=6, gamma=0.3, tau=0.05, t=0.5), ("tau", 1e-6, 0.3, 9, "log"), True),
    ("none", dict(n=4, gamma=0.3, tau=0.01, t=0.01), ("t", 0.01, 1000.0, 6, "log"), False),
    ("none", dict(n=3, gamma=2.0, tau=0.1, t=0.5), ("p", 0.0, 1.0, 5, "lin"), True),
    ("none", dict(n=3, gamma=0.1, tau=0.1, t=30.0), ("xi", 0.0, 2.0, 5, "lin"), False),
    ("parity", dict(n=5, gamma=0.2, xi=0.1, p=0.03, tau=0.05, t=0.5),
     ("tau", 1e-6, 0.3, 9, "log"), True),
    ("parity", dict(n=3, gamma=0.2, xi=0.05, p=0.02, tau=0.01, t=0.01),
     ("t", 0.01, 1000.0, 6, "log"), True),
    ("parity", dict(n=4, gamma=0.3, tau=0.05, t=0.25), ("p", 0.0, 1.0, 6, "lin"), True),
    ("parity", dict(n=25, gamma=0.05, p=0.02, tau=1e-4, t=0.1), ("xi", 0.0, 0.4, 5, "lin"), False),
    ("parity", dict(n=3, gamma=0.3, tau=0.05, t=0.25), ("xi", 0.0, 0.4, 5, "lin"), True),
    ("bitflip", dict(n=5, gamma=0.5, tau=0.02, t=0.6), ("tau", 1e-6, 0.3, 9, "log"), True),
    ("bitflip", dict(n=25, gamma=0.05, tau=1e-4, t=0.1), ("tau", 1e-6, 0.3, 9, "log"), False),
    ("bitflip", dict(n=3, gamma=0.5, tau=0.01, t=0.01), ("t", 0.01, 1000.0, 6, "log"), True),
]


@pytest.mark.parametrize("code,base,sweep,oracle", _SWEEP_CASES)
def test_ecc_sweep_rows_equal_their_single_point_rows(code, base, sweep, oracle):
    # The closed forms run over the whole sweep in one array computation; each
    # row must still be, byte for byte, the one-point CSV row of its point.
    text = cli.ecc_csv(code, omega=1.0, sweep=sweep, oracle=oracle, **base)
    header, *rows = text.splitlines()
    assert len(rows) == sweep[3]
    rounds = {round(float(row.split(",")[6]) / float(row.split(",")[5])) for row in rows}
    if sweep[0] == "t":
        assert min(rounds) == 1 and max(rounds) == 10 ** 5
    for row in rows:
        cols = dict(zip(header.split(","), map(float, row.split(","))))
        point = dict(base, **{name: cols[name] for name in ("xi", "p", "tau", "t")})
        single = cli.ecc_csv(code, omega=1.0, oracle=oracle, **point)
        assert single.splitlines()[1].split(",", 1)[1] == row.split(",", 1)[1]


@pytest.mark.parametrize("args,message", [
    (["--code", "parity", "--n", "3", "--gamma", "0.2", "--tau", "0.1", "--t", "0.5",
      "--sweep", "p:0.5:1.5:5:lin"], "error: syndrome error probability must lie in [0, 1]"),
    (["--code", "none", "--n", "3", "--gamma", "0.2", "--tau", "0.1", "--t", "0.5",
      "--sweep", "tau:0.1:1e299:4:log"], "error: QFI 0 and (n t)^2 inf must be finite"),
])
def test_ecc_failing_sweep_reports_its_first_failing_point(tmp_path, capsys, args, message):
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--omega", "1", *args, "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == message + "\n"
    assert not out_path.exists()


def _fail_oracle_at(monkeypatch, bad_taus):
    oracle_sweep = ecc.oracle_sweep

    def failing(code, params):
        for point in params:
            if point.tau in bad_taus:
                raise ArithmeticError("oracle failed at tau %r" % point.tau)
        return oracle_sweep(code, params)

    monkeypatch.setattr(ecc, "oracle_sweep", failing)


def test_ecc_sweep_oracle_failure_before_a_later_failure_wins(tmp_path, monkeypatch, capsys):
    # tau = 0.1, 1e99, 1e199, 1e299: (n t)^2 overflows from the third point on.
    _fail_oracle_at(monkeypatch, {1e99})
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "none", "--n", "3", "--omega", "1", "--gamma", "0.2",
                    "--tau", "0.1", "--t", "0.5", "--sweep", "tau:0.1:1e299:4:log", "--oracle",
                    "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == "error: oracle failed at tau 1e+99\n"
    # p = 0.5, 0.75, 1, 1.25, 1.5: validation fails from the fourth point on.
    _fail_oracle_at(monkeypatch, {0.1})
    assert run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.2",
                    "--tau", "0.1", "--t", "0.5", "--sweep", "p:0.5:1.5:5:lin", "--oracle",
                    "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == "error: oracle failed at tau 0.1\n"
    assert not out_path.exists()


def test_ecc_sweep_closed_form_failure_before_an_oracle_failure_wins(tmp_path, monkeypatch,
                                                                      capsys):
    _fail_oracle_at(monkeypatch, {1e299})
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "none", "--n", "3", "--omega", "1", "--gamma", "0.2",
                    "--tau", "0.1", "--t", "0.5", "--sweep", "tau:0.1:1e299:4:log", "--oracle",
                    "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == "error: QFI 0 and (n t)^2 inf must be finite\n"
    # A closed form that raises: at tau = 4.6e119, the third point, tau^3 overflows in the
    # series of the transfer entries (omega = gamma).
    _fail_oracle_at(monkeypatch, {1e180})
    with pytest.raises(cli.CliError, match=r"^transfer entries are not finite at omega=1.0, "
                                           r"gamma=1.0, duration=4.64158883\d+e\+119$"):
        cli.ecc_csv("parity", n=3, omega=1.0, gamma=1.0, xi=0.05, tau=0.1, t=0.5,
                    sweep=("tau", 0.1, 1e180, 4, "log"), oracle=True)
    assert not out_path.exists()


def test_ecc_bad_sweep_spec(tmp_path):
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.5",
                  "--sweep", "gamma:0.1:1:5:lin", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("sweep", ["xi:0:inf:3:lin", "xi:nan:1:3:lin", "tau:0.1:inf:3:log",
                                   "xi:-1e308:1e308:3:lin"])
def test_ecc_sweep_refuses_non_finite_endpoints_without_warnings(tmp_path, capsys, sweep):
    out_path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.1",
                      "--tau", "0.1", "--t", "1", "--sweep", sweep, "--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: sweep endpoints and their span must be finite in %r\n" % sweep)
    assert not out_path.exists()


def test_ecc_parity_at_huge_xi_writes_its_row_without_warnings(tmp_path):
    # xi tau = 1e307: e^{-2 xi tau} is 0, and -2 xi tau overflows to -inf on the way.
    out_path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.1",
                      "--xi", "1e308", "--tau", "0.1", "--t", "1", "--out", str(out_path)])
    assert rc == 0
    header, row = out_path.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["xi"] == "1e+308" and 0.0 < float(cols["qfi_over_HL"]) <= 1.0


def test_ecc_parity_oracle_at_huge_xi_writes_its_row_without_warnings(tmp_path):
    # xi tau = 1e309 overflows to inf in the oracle's round maps too; e^{-inf} = 0.
    out_path = tmp_path / "y.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.1",
                      "--tau", "10", "--t", "10", "--xi", "1e308", "--oracle",
                      "--out", str(out_path)])
    assert rc == 0
    header, row = out_path.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    np.testing.assert_allclose(float(cols["qfi_oracle"]), float(cols["qfi"]), rtol=1e-12)


def test_ecc_underflowing_n_t_squared_exits_3_without_warnings(tmp_path, capsys):
    # n t = 3e-299 squares to 0, which would make qfi_over_HL a nan.
    out_path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.1",
                      "--tau", "1e-300", "--t", "1e-299", "--out", str(out_path)])
    assert rc == 3
    assert capsys.readouterr().err == "error: (n t)^2 must be positive, got 0\n"
    assert not out_path.exists()


def test_ecc_one_step_sweep_is_the_single_point_row(tmp_path):
    args = ["ecc", "--code", "parity", "--n", "3", "--omega", "1", "--gamma", "0.1",
            "--xi", "0.2", "--p", "0.05", "--tau", "0.1", "--t", "1", "--oracle"]
    assert run_cli(args + ["--out", str(tmp_path / "one.csv")]) == 0
    assert run_cli(args + ["--sweep", "tau:0.1:0.1:1:lin",
                           "--out", str(tmp_path / "swept.csv")]) == 0
    one, swept = ((tmp_path / name).read_text().splitlines() for name in ("one.csv", "swept.csv"))
    assert len(one) == len(swept) == 2 and one[0] == swept[0]
    assert swept[1].split(",", 1)[1] == one[1].split(",", 1)[1]


def test_ecc_sweep_refuses_too_many_steps_before_any_work(tmp_path):
    out_path = tmp_path / "x.csv"
    start = time.perf_counter()
    proc = _run_subprocess(["ecc", "--code", "parity", "--n", "25", "--omega", "1",
                            "--gamma", "0.05", "--tau", "1e-4", "--t", "0.1",
                            "--sweep", "tau:0.1:0.2:3000000:lin", "--out", str(out_path)],
                           timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stderr == "error: sweep needs at most 10000 steps, got 3000000\n"
    assert not out_path.exists()
    assert cli._parse_sweep("tau:0.1:0.2:10000:lin")[3] == 10000


def test_graph_refuses_an_oversized_vertex_count(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("1000000\n0 1\n")
    start = time.perf_counter()
    proc = _run_subprocess(["graph", "--edges", str(path)], timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert "bad edge file" in proc.stderr
    assert "at most 100000 vertices, got 1000000" in proc.stderr
    assert graphs.parse_graph("100000\n0 1\n").n == 100000
    with pytest.raises(ValueError, match="^line 2: at most 100000 vertices, got 100001$"):
        graphs.parse_graph("# header\n100001\n0 1\n")


def test_bundle_refuses_too_many_clone_edges(tmp_path, monkeypatch):
    path = tmp_path / "edge.edges"
    path.write_text("2\n0 1\n")
    out_path = tmp_path / "out.edges"
    start = time.perf_counter()
    proc = _run_subprocess(["bundle", "--edges", str(path), "--sizes", "30000,30000",
                            "--out", str(out_path)], timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3
    assert proc.stderr == ("error: bundled graph needs at most 1000000 edges, "
                           "got 900000000\n")
    assert not out_path.exists()
    # The cap counts clone edges, sum of s_u s_v over the edges: 12 fit under a cap of 12.
    monkeypatch.setattr(graphs, "_BUNDLE_EDGE_CAP", 12)
    path_graph = graphs.path(3)
    assert len(graphs.bundle(path_graph, [2, 3, 2]).edges) == 12
    with pytest.raises(ValueError, match="^bundled graph needs at most 12 edges, got 15$"):
        graphs.bundle(path_graph, [2, 3, 3])


def test_crypto_identity(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    rc = run_cli(["crypto", "--protocol", "trap1", "--n", "2", "--t", "1",
                  "--attack", "id", "--out", str(out_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "lhs=0.0 bound=3.0 accept_rate=1.0 mode=exact" in stdout
    data = json.loads(out_path.read_text())
    assert data["protocol"] == "trap1"
    assert data["lhs"] == 0.0
    assert data["bound"] == 3.0
    assert list(data.keys()) == ["protocol", "n", "t", "attack", "lhs", "bound",
                                 "accept_rate", "trace_distance_budget", "mode"]


def test_crypto_pads_narrow_pauli(tmp_path, capsys):
    rc = run_cli(["crypto", "--protocol", "delegated", "--n", "2", "--t", "2",
                  "--attack", "pauli:XI", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    data = json.loads((tmp_path / "r.json").read_text())
    np.testing.assert_allclose(data["lhs"], 0.5)
    np.testing.assert_allclose(data["bound"], 1.5)


def test_crypto_sampled_mode_fields(tmp_path):
    rc = run_cli(["crypto", "--protocol", "trap1", "--n", "5", "--t", "2",
                  "--attack", "mix:0.9*IIIIIII,0.1*XZYXZYX",
                  "--trials", "300", "--seed", "7",
                  "--out", str(tmp_path / "s.json")])
    assert rc == 0
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["mode"] == "sampled"
    assert data["trials"] == 300
    assert data["seed"] == 7
    assert data["stderr"] > 0
    assert data["lhs"] <= data["bound"]


def test_crypto_clifford_sampled_mode(tmp_path):
    out_path = tmp_path / "c.json"
    rc = run_cli(["crypto", "--protocol", "cliff1", "--n", "4", "--t", "3",
                  "--attack", "mix:0.9*IIIIIII,0.1*XZYXZYX", "--trials", "20",
                  "--out", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["mode"] == "sampled"
    # Closed form 2^m (2^(m-t) - 1)(1 - a)/(4^m - 1) at m = 7, t = 3, a = 0.9.
    exact = 2 ** 7 * (2 ** 4 - 1) * 0.1 / (4 ** 7 - 1)
    np.testing.assert_allclose(exact, 0.0117194653, rtol=1e-9)
    assert 0 < data["stderr"]
    assert abs(data["lhs"] - exact) <= 4 * data["stderr"]


def test_crypto_clifford_sampled_cap(tmp_path, capsys):
    rc = run_cli(["crypto", "--protocol", "cliff1", "--n", "5", "--t", "3",
                  "--attack", "mix:0.9*IIIIIIII,0.1*XZYXZYXZ", "--trials", "20",
                  "--out", str(tmp_path / "c.json")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err == "error: sampled Clifford code capped at m = 7 qubits, got m = 8"
    assert not (tmp_path / "c.json").exists()


def test_crypto_sampled_depolarizing_in_closed_form(tmp_path):
    # Sampled rounds apply depol:s as (1 - s) rho + s Tr(rho) I / 2^m, not as
    # 4^7 Kraus matrices.  The noise commutes with every key, so every trial
    # gives the exact value and the stderr is rounding noise.
    out_path = tmp_path / "c.json"
    rc = run_cli(["crypto", "--protocol", "cliff1", "--n", "4", "--t", "3",
                  "--attack", "depol:0.3", "--trials", "200", "--out", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["mode"] == "sampled"
    # Closed form 2^m (2^(m-t) - 1)(1 - a)/(4^m - 1) with 1 - a = 0.3 (4^7 - 1)/4^7.
    assert abs(data["lhs"] - 0.03515625) <= 4 * data["stderr"] + 1e-12


def test_crypto_sampled_trap_over_cap_exits_at_once(tmp_path):
    # m = 10 is over the sampled cap; a depolarizing attack must not list its
    # 4^10 Pauli terms before that is found.
    out_path = tmp_path / "c.json"
    proc = _run_subprocess(["crypto", "--protocol", "trap1", "--n", "5", "--t", "5",
                            "--attack", "depol:0.3", "--out", str(out_path)], timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.strip() == "error: sampled trap code capped at m = 7 qubits, got m = 10"
    assert not out_path.exists()


@pytest.mark.parametrize("protocol,n,t,message", [
    ("trap1", 40, 1, "sampled soundness capped at m = 10"),
    ("cliff1", 60, 60, "sampled Clifford code capped at m = 7 qubits, got m = 120"),
    ("delegated", 1000, 1, "sampled soundness capped at m = 10"),
])
def test_crypto_over_the_sampled_cap_exits_3_before_building_the_probe(
        tmp_path, monkeypatch, capsys, protocol, n, t, message):
    # The 2^n probe of n = 40 alone would take 16 TiB.
    def forbidden(*args, **kwargs):
        raise AssertionError("built the probe before checking the sampled cap")

    monkeypatch.setattr(crypto, "_ghz_theta", forbidden)
    monkeypatch.setattr(crypto, "_data_state", forbidden)
    out_path = tmp_path / "c.json"
    start = time.perf_counter()
    rc = run_cli(["crypto", "--protocol", protocol, "--n", str(n), "--t", str(t),
                  "--attack", "id", "--out", str(out_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out_path.exists()


def test_crypto_usage_errors(tmp_path, capsys):
    rc = run_cli(["crypto", "--protocol", "trap2", "--n", "1", "--t", "1",
                  "--attack", "pauli:XI", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()
    rc = run_cli(["crypto", "--protocol", "trap1", "--n", "2", "--t", "1",
                  "--attack", "mix:0.5*II,0.6*XI", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()
    rc = run_cli(["crypto", "--protocol", "trap1", "--n", "2", "--t", "1",
                  "--attack", "pauli:XIIII", "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize("attack", ["mix:nan*II", "mix:0.5*II,nan*XI", "mix:inf*II"])
def test_crypto_rejects_non_finite_weights(tmp_path, capsys, attack):
    out_path = tmp_path / "x.json"
    rc = run_cli(["crypto", "--protocol", "trap1", "--n", "1", "--t", "1",
                  "--attack", attack, "--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad attack spec: ")
    assert not out_path.exists()


@pytest.mark.parametrize("protocol,n,t,trials,seed,attack,message", [
    ("trap1", 2, 0, 2000, 0, "id", "--t must be >= 1, got 0"),
    ("trap2", 2, 0, 2000, 0, "double:id;id", "--t must be >= 1, got 0"),
    ("delegated", 2, 0, 2000, 0, "id", "--t must be >= 1, got 0"),
    ("trap1", 0, 1, 2000, 0, "id", "--n must be >= 1, got 0"),
    ("trap1", 5, 2, 0, 0, "id", "--trials must be >= 1, got 0"),
    ("trap1", 5, 2, -3, 0, "id", "--trials must be >= 1, got -3"),
    ("trap1", 5, 2, 10 ** 6 + 1, 0, "id", "--trials must be <= 1000000, got 1000001"),
    ("trap1", 1, 1, 3, -1, "id", "--seed must be >= 0, got -1"),
    ("trap1", 5, 2, 3, -1, "id", "--seed must be >= 0, got -1"),
], ids=["trap1-t0", "trap2-t0", "delegated-t0", "n0", "trials0", "trials-negative",
        "trials-over-cap", "seed-negative-exact", "seed-negative-sampled"])
def test_crypto_degenerate_counts(tmp_path, capsys, protocol, n, t, trials, seed, attack,
                                  message):
    out_path = tmp_path / "x.json"
    rc = run_cli(["crypto", "--protocol", protocol, "--n", str(n), "--t", str(t),
                  "--trials", str(trials), "--seed", str(seed), "--attack", attack,
                  "--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out_path.exists()


def test_crypto_trials_far_over_cap_exit_2_without_allocating(tmp_path, capsys):
    # 10^12 trials would need 16 TB of per-trial values: the cap is checked
    # before any array or key is made.
    out_path = tmp_path / "x.json"
    tracemalloc.start()
    try:
        rc = run_cli(["crypto", "--protocol", "trap1", "--n", "5", "--t", "2",
                      "--attack", "mix:0.9*IIIIIII,0.1*XZYXZYX", "--trials", str(10 ** 12),
                      "--seed", "0", "--out", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == "error: --trials must be <= 1000000, got 1000000000000\n"
    assert peak < 2 ** 20
    assert not out_path.exists()


def test_crypto_identity_on_both_uses_is_exactly_zero():
    report = json.loads(cli.crypto_json("trap2", 1, 1, "double:id;id", 3, 0))
    assert report["lhs"] == 0.0
    assert report["trace_distance_budget"] == 0.0


def test_ecc_overdamped_oracle_matches_without_warnings(tmp_path):
    out_path = tmp_path / "x.csv"
    proc = _run_subprocess(["ecc", "--code", "none", "--n", "5", "--omega", "1",
                            "--gamma", "200", "--tau", "0.1", "--t", "1", "--oracle",
                            "--out", str(out_path)], {"PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    header, row = out_path.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    np.testing.assert_allclose(float(cols["qfi_oracle"]), 0.02475, rtol=1e-4)
    np.testing.assert_allclose(float(cols["qfi"]), float(cols["qfi_oracle"]), rtol=1e-6)


def test_ecc_deep_overdamped_exits_zero_without_warnings(tmp_path):
    out_path = tmp_path / "x.csv"
    proc = _run_subprocess(["ecc", "--code", "none", "--n", "5", "--omega", "1",
                            "--gamma", "800", "--tau", "0.1", "--t", "1",
                            "--out", str(out_path)], {"PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stderr
    header, row = out_path.read_text().splitlines()
    qfi = float(dict(zip(header.split(","), row.split(",")))["qfi"])
    assert 0.0 < qfi < 0.00712


def test_ecc_oracle_past_cosh_overflow_exits_zero(tmp_path):
    # gamma * tau = 1e4: cosh(gamma * tau) overflows a double, but the oracle
    # works with the damped pair e^{-gamma tau} (cosh, sinh), as the closed form does.
    out_path = tmp_path / "x.csv"
    proc = _run_subprocess(["ecc", "--code", "none", "--n", "5", "--omega", "1",
                            "--gamma", "1e5", "--tau", "0.1", "--t", "1", "--oracle",
                            "--out", str(out_path)], {"PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stderr
    header, row = out_path.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    np.testing.assert_allclose(float(cols["qfi"]), 4.9999e-05, rtol=1e-6)
    np.testing.assert_allclose(float(cols["qfi_oracle"]), float(cols["qfi"]), rtol=1e-9)


def test_ecc_oracle_normalisation_guard_exits_3(tmp_path, monkeypatch, capsys):
    def lost_normalisation(*args):
        raise ArithmeticError("amplitude propagation lost normalisation")

    monkeypatch.setattr(ecc, "_propagate", lost_normalisation)
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.3", "--oracle",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "lost normalisation" in capsys.readouterr().err


def test_ecc_bitflip_oracle_at_n11_exits_zero(tmp_path):
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "bitflip", "--n", "11", "--omega", "1", "--gamma", "0.5",
                    "--tau", "0.01", "--t", "0.3", "--oracle", "--out", str(out_path)]) == 0
    header, row = out_path.read_text().splitlines()
    cols = dict(zip(header.split(","), map(float, row.split(","))))
    np.testing.assert_allclose(cols["qfi_oracle"], cols["qfi"], rtol=1e-8)


def test_ecc_oracle_past_the_bitflip_cap_exits_3_before_building(tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("built a round map past the oracle cap")

    monkeypatch.setattr(ecc, "_round_maps", forbidden)
    monkeypatch.setattr(ecc, "_kron_power_dot", forbidden)
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "bitflip", "--n", "17", "--omega", "1", "--gamma", "0.5",
                    "--tau", "0.01", "--t", "0.3", "--oracle", "--out", str(out_path)]) == 3
    assert "bitflip oracle limited to n <= 15" in capsys.readouterr().err
    assert not out_path.exists()


def test_ecc_oracle_sweep_names_its_first_point_that_lost_normalisation(tmp_path, capsys):
    # Rounds 1, 100, 10^4, 10^6 and 10^8: the fourth and fifth points leave the guard.
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "bitflip", "--n", "11", "--omega", "1", "--gamma", "0.5",
                    "--tau", "0.01", "--t", "0.01", "--oracle", "--sweep", "t:0.01:1e6:5:log",
                    "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == (
        "error: amplitude propagation lost normalisation at n=11, omega=1.0, gamma=0.5, "
        "tau=0.01, t=10000.0, xi=0.0, p=0.0\n")
    assert not out_path.exists()


def _forbid_oracle_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle ran past its work budget")

    for name in ("_round_maps", "_propagate", "_kron_power_dot"):
        monkeypatch.setattr(ecc, name, forbidden)


def test_ecc_oracle_sweep_over_the_work_budget_exits_3_before_building(tmp_path, monkeypatch,
                                                                      capsys):
    # 10^4 parity points at n = 8 with 0 < p < 1 and 1,000 rounds: about an hour of oracle work.
    _forbid_oracle_work(monkeypatch)
    out_path = tmp_path / "x.csv"
    assert run_cli(["ecc", "--code", "parity", "--n", "8", "--omega", "1", "--gamma", "0.2",
                    "--xi", "0.1", "--p", "0.04", "--tau", "0.01", "--t", "10", "--oracle",
                    "--sweep", "tau:0.01:0.1:10000:log", "--out", str(out_path)]) == 3
    assert capsys.readouterr().err == (
        "error: oracle work estimate 9.39e+12 multiply-adds is above the budget 1e+11; "
        "use fewer points, fewer rounds or a smaller n\n")
    assert not out_path.exists()


def test_ecc_oracle_work_budget_boundary(tmp_path, monkeypatch, capsys):
    # t = 0.01 to 0.29 in steps of 0.07: 1, 8, 15, 22 and 29 rounds.
    args = ["ecc", "--code", "bitflip", "--n", "5", "--omega", "1", "--gamma", "0.5",
            "--tau", "0.01", "--t", "0.01", "--oracle", "--sweep", "t:0.01:0.29:5:lin",
            "--out", str(tmp_path / "x.csv")]
    work = ecc.oracle_work("bitflip", [ecc.EccParams(5, 1.0, 0.5, 0.01, float(t))
                                       for t in np.linspace(0.01, 0.29, 5)])
    monkeypatch.setattr(cli, "_ORACLE_WORK_CAP", work)
    assert run_cli(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_ORACLE_WORK_CAP", float(np.nextafter(work, 0.0)))
    _forbid_oracle_work(monkeypatch)
    assert run_cli(args) == 3
    assert "oracle work estimate %.3g multiply-adds is above the budget" % work in (
        capsys.readouterr().err)


def test_ecc_oracle_inputs_in_use_stay_under_the_work_budget():
    # The largest oracle sweeps of the CI, the README and the benchmark.
    sweeps = [("bitflip", [ecc.EccParams(11, 1.0, 0.5, tau, 30 * tau)
                           for tau in np.geomspace(0.01, 0.1, 8)]),
              ("bitflip", [ecc.EccParams(7, 1.0, 0.05, tau, 1000 * tau)
                           for tau in np.geomspace(1e-6, 1e-4, 7)]),
              ("parity", [ecc.EccParams(4, 1.0, 0.3, 0.05, 0.25, p=p)
                          for p in np.linspace(0.0, 1.0, 9)]),
              ("bitflip", [ecc.EccParams(5, 1.0, 0.5, 0.01, 0.01 * k) for k in range(1, 31)]),
              ("bitflip", [ecc.EccParams(15, 1.0, 0.5, 0.01, 1000 * 0.01)]),
              ("parity", [ecc.EccParams(8, 1.0, 0.2, 0.01, 1000 * 0.01, xi=0.1, p=0.04)])]
    for code, params in sweeps:
        assert ecc.oracle_work(code, params) < cli._ORACLE_WORK_CAP / 10


def test_ecc_oracle_at_a_million_rounds_exits_cleanly(tmp_path):
    out_path = tmp_path / "x.csv"
    proc = _run_subprocess(["ecc", "--code", "bitflip", "--n", "5", "--omega", "1",
                            "--gamma", "0.05", "--tau", "1e-8", "--t", "0.01", "--oracle",
                            "--out", str(out_path)], timeout=60)
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["none", "parity", "bitflip"]), st.integers(1, 7),
       st.floats(0.0, 7.0), st.floats(-8.0, 1.0), st.floats(-6.0, 0.0),
       st.floats(-8.0, 1.0), st.floats(0.0, 0.5))
def test_ecc_oracle_at_large_round_counts_exits_0_or_3(tmp_path_factory, code, n, log_rounds,
                                                       log_gamma_tau, log_tau, log_xi_tau, p):
    if code == "bitflip" and n % 2 == 0:
        n -= 1
    tau = 10.0 ** log_tau
    rounds = round(10.0 ** log_rounds)
    noise = ["--xi", repr(10.0 ** log_xi_tau / tau), "--p", repr(p)] if code == "parity" else []
    out_path = tmp_path_factory.getbasetemp() / "large_rounds.csv"
    out_path.unlink(missing_ok=True)
    # In process: any exception other than the CLI's own errors fails the test.
    rc = run_cli(["ecc", "--code", code, "--n", str(n), "--omega", "1",
                  "--gamma", repr(10.0 ** log_gamma_tau / tau), "--tau", repr(tau),
                  "--t", repr(rounds * tau), *noise, "--oracle", "--out", str(out_path)])
    assert rc in (0, 3)
    if rc == 0:
        header, row = out_path.read_text().splitlines()
        cols = dict(zip(header.split(","), map(float, row.split(","))))
        assert np.isfinite(cols["qfi"]) and np.isfinite(cols["qfi_oracle"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["none", "parity", "bitflip"]), st.floats(3.0, 300.0), st.booleans())
def test_ecc_large_finite_omega_exits_0_or_3(tmp_path_factory, code, log_omega, oracle):
    out_path = tmp_path_factory.getbasetemp() / "large_omega.csv"
    out_path.unlink(missing_ok=True)
    noise = ["--xi", "0.05", "--p", "0.02"] if code == "parity" else []
    rc = run_cli(["ecc", "--code", code, "--n", "3", "--omega", repr(10.0 ** log_omega),
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.5", *noise,
                  *(["--oracle"] if oracle else []), "--out", str(out_path)])
    assert rc in (0, 3)
    if rc == 0:
        header, row = out_path.read_text().splitlines()
        assert all(np.isfinite(float(v)) for v in row.split(","))


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def _run_subprocess(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("QMET_VERIFY_PERTURB", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qmet.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_verify_perturb_negative_control():
    r = _run_subprocess(["verify", "--quick"], {"QMET_VERIFY_PERTURB": "1"})
    assert r.returncode == 1
    assert "FAIL graph-closed-forms" in r.stdout
    assert "verification failed: graph-closed-forms" in r.stderr


@pytest.mark.parametrize("name,module,fn,point,detail", [
    ("ecc-free-decay", ecc, "qfi_no_ecc", (3, 0.7, 0.2, 0.2),
     "closed form vs Lindblad oracle worst rel nan outside [-inf, 1e-06]"),
    ("graph-oracle-quick", graphs, "qfi_dephasing", (graphs.star(5), 0.1),
     "dephasing p=0.1 star5 delta nan outside [-inf, 1e-08]"),
], ids=["ecc-free-decay", "graph-oracle-quick"])
def test_verify_fails_on_nan_closed_form(monkeypatch, name, module, fn, point, detail):
    real = getattr(module, fn)
    monkeypatch.setattr(module, fn, lambda *args: math.nan if args == point else real(*args))
    (r,) = checks.run_checks(names=[name])
    assert not r.ok
    assert r.detail == detail

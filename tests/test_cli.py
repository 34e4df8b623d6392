"""CLI tests: exit codes, printed values, file outputs, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qmet import cli

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


@pytest.mark.parametrize("bad", [["--t", "inf"], ["--omega", "nan", "--t", "0.5"]])
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


def test_ecc_bad_sweep_spec(tmp_path):
    rc = run_cli(["ecc", "--code", "parity", "--n", "3", "--omega", "1",
                  "--gamma", "0.2", "--tau", "0.1", "--t", "0.5",
                  "--sweep", "gamma:0.1:1:5:lin", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


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


def test_crypto_sampled_depolarizing_kraus_cap(tmp_path, capsys):
    # Sampled Clifford rounds apply the attack's Kraus form; for a depolarizing
    # attack at m = 7 that would be 4^7 matrices of 128 x 128, so it is refused.
    rc = run_cli(["crypto", "--protocol", "cliff1", "--n", "4", "--t", "3",
                  "--attack", "depol:0.3", "--trials", "20",
                  "--out", str(tmp_path / "c.json")])
    assert rc == 3
    assert "depolarizing Kraus form capped at m = 5" in capsys.readouterr().err


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


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def _run_subprocess(args, env_extra=None):
    env = dict(os.environ)
    env.pop("QMET_VERIFY_PERTURB", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qmet.cli", *args],
                          capture_output=True, text=True, env=env)


def test_sweep_bytes_stable_across_thread_env(tmp_path):
    args = ["ecc", "--code", "parity", "--n", "5", "--omega", "1",
            "--gamma", "0.3", "--tau", "0.05", "--t", "0.5",
            "--sweep", "t:0.1:1.0:7:lin"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    r1 = _run_subprocess(args + ["--out", str(a)], {"QMET_THREADS": "1"})
    r2 = _run_subprocess(args + ["--out", str(b)], {"QMET_THREADS": "2"})
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_thread_env(tmp_path):
    r = _run_subprocess(["ecc", "--code", "none", "--n", "2", "--omega", "1",
                         "--gamma", "0", "--tau", "0.1", "--t", "0.1",
                         "--out", str(tmp_path / "x.csv")],
                        {"QMET_THREADS": "zero"})
    assert r.returncode == 2


def test_verify_perturb_negative_control():
    r = _run_subprocess(["verify", "--quick"], {"QMET_VERIFY_PERTURB": "1"})
    assert r.returncode == 1
    assert "FAIL graph-closed-forms" in r.stdout
    assert "verification failed: graph-closed-forms" in r.stderr

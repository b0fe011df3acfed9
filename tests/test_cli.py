"""CLI dispatch, exit codes, atomic report writing, and demo plumbing."""

import json
import os

import numpy as np
import pytest

from certikit import cli, nn
from certikit.errors import ConfigError, UnknownDemo


def run_main(tmp_path, config, seed=None):
    cfg_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["--config", str(cfg_path), "--out", str(out_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


def test_certify_schur_pass(tmp_path):
    code, rep = run_main(tmp_path, {"task": "certify", "matrix": [[0.5, 0.0], [0.0, 0.5]]})
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["checks"][0]["spectral_radius"] == pytest.approx(0.5)
    assert rep["schema"] == 1


def test_certify_unstable_exit_one(tmp_path):
    code, rep = run_main(tmp_path, {"task": "certify", "matrix": [[1.5]]})
    assert code == 1
    assert rep["status"] == "violation"


def test_verify_nn_counterexample(tmp_path):
    # f(x) = relu(x) - relu(-x) = x on [-1, 1]: violation at x = -1
    net = nn.Mlp(
        (
            nn.Layer(np.array([[1.0], [-1.0]]), np.zeros(2), "relu"),
            nn.Layer(np.array([[1.0, -1.0]]), np.zeros(1), "identity"),
        )
    )
    code, rep = run_main(
        tmp_path,
        {
            "task": "verify-nn",
            "network": nn.network_to_dict(net),
            "region": {"lower": [-1.0], "upper": [1.0]},
        },
    )
    assert code == 1
    chk = rep["checks"][0]
    assert chk["status"] == "Falsified"
    assert chk["counterexample"][0] == pytest.approx(-1.0, abs=1e-5)


def test_malformed_config_exit_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["--config", str(p)]) == 2


def test_unknown_task_exit_two(tmp_path):
    code, _ = None, None
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"task": "frobnicate"}))
    assert cli.main(["--config", str(p)]) == 2


def test_missing_field_exit_two(tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"task": "certify"}))
    assert cli.main(["--config", str(p)]) == 2


def test_malformed_scores_csv_exit_two(tmp_path, capsys):
    files = {
        "short.csv": "lon,lat\n1.0,2.0\n",
        "empty.csv": "",
        "text.csv": "px,py,psi,ax,ay\n0,0,0,1,1\n0,0,zero,1,1\n",
    }
    for name, text in files.items():
        csv_path = tmp_path / name
        csv_path.write_text(text)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"task": "conformal", "scores_csv": str(csv_path)}))
        assert cli.main(["--config", str(job)]) == 2
        assert name in capsys.readouterr().err


REGION = {"lower": [-1.0], "upper": [1.0]}
GP_STATES = [[0.0, 0.5], [0.5, -0.5], [-0.5, 0.0]]
GP_PARAMS = {"sigma_f": 1.0, "lengthscales": [0.5, 0.5], "phi_j": [1.0], "phi_r": [0.0, 0.0, 0.0], "phi_g": []}
GP_JOB = {"task": "gpphs", "states": GP_STATES, "derivs": GP_STATES, "init_params": GP_PARAMS}
NET_1D = {"kind": "mlp", "layers": [{"w": [[1.0]], "b": [0.5], "act": "identity"}]}
NN_JOB = {"task": "verify-nn", "network": NET_1D, "region": REGION}


@pytest.mark.parametrize(
    "config",
    [
        {"task": "certify", "matrix": "missing.json"},
        {"task": "conformal", "scores_csv": "missing.csv"},
        {"task": "verify-nn", "network": "missing.json", "region": REGION},
        {"task": "gpphs", "dataset_csv": "missing.csv"},
        {"task": "reach", "matrix": [[0.5]], "region": {"lower": [-1.0]}},
        {"task": "reach", "matrix": [[0.5]], "region": REGION, "method": "sampled", "template": "hull"},
        {"task": "reach", "matrix": [[0.5]], "region": {"lower": [1.0], "upper": [0.0]}},
        {"task": "reach", "matrix": [[0.5, 0.0], [0.0, 0.5]], "region": REGION},
        {**GP_JOB, "derivs": GP_STATES[:2]},
        {**GP_JOB, "init_params": {k: v for k, v in GP_PARAMS.items() if k != "lengthscales"}},
        {**GP_JOB, "budget": 0},
        {**NN_JOB, "network": {"kind": "mlp"}},
        {**NN_JOB, "network": {"kind": "mlp", "layers": [{"b": [0.0], "act": "relu"}]}},
        {**NN_JOB, "network": {"kind": "bogus"}},
        {**NN_JOB, "network": [1.0]},
        {**NN_JOB, "region": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
        {**NN_JOB, "budget": 0},
        {**NN_JOB, "budget": -5},
        {"task": "filter-sim", "steps": "abc"},
        {"task": "filter-sim", "dt": float("nan")},
        {"task": "reach", "matrix": [[0.5]], "region": REGION, "steps": 1.5},
        {**NN_JOB, "tol": "1e-6"},
        {"task": "conformal", "scores": [1.0, 2.0], "delta": None},
        {**GP_JOB, "budget": True},
    ],
    ids=[
        "certify-matrix",
        "conformal-csv",
        "verify-nn-network",
        "gpphs-csv",
        "region-upper",
        "template",
        "region-order",
        "region-dimension",
        "gpphs-rows",
        "gpphs-init-params",
        "gpphs-budget",
        "network-no-layers",
        "network-layer-no-w",
        "network-kind",
        "network-list",
        "verify-nn-region-dimension",
        "verify-nn-budget-zero",
        "verify-nn-budget-negative",
        "filter-sim-steps-text",
        "filter-sim-dt-nan",
        "reach-steps-fraction",
        "verify-nn-tol-text",
        "conformal-delta-null",
        "gpphs-budget-bool",
    ],
)
def test_malformed_job_exit_two(tmp_path, monkeypatch, capsys, config):
    monkeypatch.chdir(tmp_path)  # the relative file names above do not exist there
    code, report = run_main(tmp_path, config)
    assert code == 2
    assert report is None
    assert capsys.readouterr().err.startswith("certikit: ")


@pytest.mark.parametrize("state_dim", [0, 3, 5])
def test_gpphs_state_dim_outside_csv_exit_two(tmp_path, capsys, state_dim):
    # columns t, x0, x1: state_dim must lie in 1..2
    csv_path = tmp_path / "data.csv"
    t = np.linspace(0.0, 1.0, 6)
    rows = np.column_stack([t, np.cos(t), -np.sin(t)])
    csv_path.write_text("t,x0,x1\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
    code, report = run_main(
        tmp_path, {"task": "gpphs", "dataset_csv": str(csv_path), "state_dim": state_dim, "init_params": GP_PARAMS}
    )
    assert code == 2
    assert report is None
    assert "state_dim" in capsys.readouterr().err


def test_verify_nn_one_input_net_passes(tmp_path):
    # the region and budget checks pass a well-formed job: f(x) = x + 0.5 >= 0.5 on [0, 1]
    code, rep = run_main(tmp_path, {**NN_JOB, "region": {"lower": [0.0], "upper": [1.0]}, "budget": 10})
    assert code == 0
    assert rep["checks"][0]["status"] == "Certified"


def test_requires_exactly_one_mode(tmp_path):
    assert cli.main([]) == 2
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"task": "certify", "matrix": [[0.5]]}))
    assert cli.main(["--config", str(p), "--demo", "reach-rotation"]) == 2


def test_unknown_demo_exit_two():
    assert cli.main(["--demo", "does-not-exist"]) == 2
    with pytest.raises(UnknownDemo):
        cli.demo("does-not-exist")


def test_filter_sim_task(tmp_path):
    code, rep = run_main(tmp_path, {"task": "filter-sim", "steps": 500})
    assert code == 0
    names = {c["name"]: c for c in rep["checks"]}
    assert names["forward_invariance"]["min_h"] >= -1e-6
    assert names["nominal_passthrough"]["max_deviation"] <= 1e-6


def test_conformal_task(tmp_path):
    scores = list(np.arange(1.0, 101.0))
    code, rep = run_main(tmp_path, {"task": "conformal", "scores": scores, "delta": 0.1})
    assert code == 0
    assert rep["calibration"]["n_cal"] == 100


def test_reach_task_interval(tmp_path):
    code, rep = run_main(
        tmp_path,
        {
            "task": "reach",
            "matrix": [[0.5, 0.0], [0.0, 0.5]],
            "region": {"lower": [-1, -1], "upper": [1, 1]},
            "steps": 2,
        },
    )
    assert code == 0
    assert rep["result"]["guarantee"] == "sound_overapprox"
    assert len(rep["result"]["regions"]) == 3


def test_atomic_write_no_partial_output(tmp_path):
    target = tmp_path / "out" / "r.json"
    os.makedirs(target.parent)
    cli.write_json_atomic({"a": 1}, target)
    assert json.loads(target.read_text()) == {"a": 1}
    leftovers = [p for p in os.listdir(target.parent) if p.endswith(".tmp")]
    assert not leftovers


def test_demo_reach_rotation_report():
    rep, code = cli.demo("reach-rotation")
    assert code == 0
    chk = rep["checks"][0]
    assert chk["ratio"] >= chk["target"]


def test_demo_determinism_excluding_walltime():
    r1, _ = cli.demo("koopman-stability", seed=3)
    r2, _ = cli.demo("koopman-stability", seed=3)
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

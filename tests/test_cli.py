"""CLI dispatch, exit codes, atomic report writing, and demo plumbing."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certikit import cli, conformal, gpphs, nn
from certikit.errors import ConfigError, UnknownDemo


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which strict JSON has no words for."""
    return json.loads(text, parse_constant=_reject_constant)


def run_main(tmp_path, config, seed=None):
    cfg_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["--config", str(cfg_path), "--out", str(out_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    report = strict_json(out_path.read_text()) if out_path.exists() else None
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
# f(x) = relu(x + 0.5) on [-1, 1]: its minimum is exactly 0, and the MILP bound
# lands a few ulps below it, so the job proves neither sign
RELU_SHIFT = {
    "kind": "mlp",
    "layers": [{"w": [[1.0]], "b": [0.5], "act": "relu"}, {"w": [[1.0]], "b": [0.0], "act": "identity"}],
}
GP_PARAMS_3D = {"sigma_f": 1.0, "lengthscales": [0.5] * 3, "phi_j": [1.0] * 3, "phi_r": [0.0] * 6, "phi_g": []}


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
        {"task": "filter-sim", "kappa": -1},
        {"task": "filter-sim", "u_limit": -1},
        {"task": "filter-sim", "steps": 0},
        {"task": "filter-sim", "dt": 0},
        {"task": "filter-sim", "dt": -0.01},
        {"task": "certify", "matrix": [["nan"]]},
        {"task": "certify", "matrix": [[[1]]]},
        {**NN_JOB, "network": {"kind": "mlp", "layers": [{"w": [[1.0], [2.0]], "b": [0.5, 0.0], "act": "identity"}]}},
        {**NN_JOB, "network": {"kind": "icnn", "layers": [{"w": [[1.0]], "b": [0.5], "act": "relu"}]}},
        {**NN_JOB, "network": {"kind": "mlp", "layers": [{"w": [[[1.0]]], "b": [0.5], "act": "identity"}]}},
        {**NN_JOB, "tol": -1},
        {"task": "conformal", "scores": [1.0, 2.0], "delta": 2},
        {"task": "conformal", "scores": ["a"]},
        {**GP_JOB, "init_params": GP_PARAMS_3D},
        {**GP_JOB, "inputs": [[1.0], [0.0], [2.0]]},
        {**GP_JOB, "states": [], "derivs": []},
        {**GP_JOB, "init_params": {**GP_PARAMS, "phi_g": [1, 1]}},
        {"task": "reach", "matrix": [[0.5]], "region": REGION, "method": "sampled", "seed": -1},
        {"task": "reach", "matrix": [[0.5]], "region": REGION, "steps": 0},
        {"task": "reach", "matrix": [[0.5]], "region": REGION, "steps": -2},
        {"task": "reach", "matrix": [["nan", 0], [0, 1]], "region": {"lower": [-1, -1], "upper": [1, 1]}},
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
        "filter-sim-kappa-negative",
        "filter-sim-u-limit-negative",
        "filter-sim-steps-zero",
        "filter-sim-dt-zero",
        "filter-sim-dt-negative",
        "certify-matrix-nan",
        "certify-matrix-3d",
        "verify-nn-two-outputs",
        "verify-nn-icnn",
        "verify-nn-layer-3d",
        "verify-nn-tol-negative",
        "conformal-delta-two",
        "conformal-scores-text",
        "gpphs-init-params-dimension",
        "gpphs-inputs-without-phi-g",
        "gpphs-states-empty",
        "gpphs-phi-g-without-inputs",
        "reach-seed-negative",
        "reach-steps-zero",
        "reach-steps-negative",
        "reach-matrix-nan",
    ],
)
def test_malformed_job_exit_two(tmp_path, monkeypatch, capsys, config):
    monkeypatch.chdir(tmp_path)  # the relative file names above do not exist there
    code, report = run_main(tmp_path, config)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("certikit: ") and len(err.splitlines()) == 1


def test_negative_seed_flag_exit_two(tmp_path, capsys):
    code, report = run_main(tmp_path, {"task": "certify", "matrix": [[0.5]]}, seed=-1)
    assert code == 2 and report is None
    assert cli.main(["--demo", "reach-rotation", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.count("certikit: config field 'seed'") == 2


def test_verify_nn_bound_only_is_inconclusive(tmp_path):
    code, rep = run_main(tmp_path, {**NN_JOB, "network": RELU_SHIFT})
    assert code == 3
    assert rep["status"] == "inconclusive"
    chk = rep["checks"][0]
    assert chk["status"] == "BoundOnly" and chk["passed"] is None
    assert -1e-9 < chk["bound"] <= 0.0


def _paths(cfg, prefix=()):
    """Key paths to every field of a config, nested objects included."""
    for k, v in cfg.items():
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from _paths(v, prefix + (k,))


def _negate(v):
    if isinstance(v, (int, float)):
        return -v if v else -1
    if isinstance(v, list):
        return [_negate(x) for x in v]
    if isinstance(v, dict):
        return {k: _negate(x) for k, x in v.items()}
    return "-" + v


_WRONG_TYPE = {str: 2.5, int: "1", float: "1.0", list: {"k": 1.0}, dict: [1.0]}
_MUTATIONS = {
    "wrong_type": lambda v: _WRONG_TYPE[type(v)],
    "nan": lambda v: math.nan,
    "negative": _negate,
    "empty": lambda v: type(v)() if isinstance(v, (str, list, dict)) else [],
}
# one small valid job per task, with every optional field spelled out
FUZZ_JOBS = [
    {"task": "certify", "matrix": [[0.5, 0.1], [0.0, 0.5]]},
    {
        "task": "reach",
        "matrix": [[0.9, -0.2], [0.2, 0.9]],
        "region": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "steps": 2,
        "method": "sampled",
        "template": "interval",
        "n_samples": 20,
        "eps": 0.05,
        "delta": 0.1,
        "seed": 1,
    },
    {**NN_JOB, "tol": 1e-6, "budget": 10},
    {"task": "filter-sim", "steps": 20, "x0": 0.5, "dt": 0.01, "kappa": 1.0, "u_limit": 2.0},
    {"task": "conformal", "scores": [float(i) for i in range(1, 21)], "delta": 0.2},
    {**GP_JOB, "inputs": [], "noise_var": 1e-4, "budget": 5},
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_field_never_escapes_main(data):
    # one field of a valid job made wrong (of the wrong type, NaN, negated,
    # empty or missing): main exits 0-3 and never raises; an exit 2 prints one
    # certikit: line and writes no report; any report is strict JSON
    job = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_JOBS))))
    path = data.draw(st.sampled_from(list(_paths(job))))
    how = data.draw(st.sampled_from(["missing", *_MUTATIONS]))
    parent = job
    for k in path[:-1]:
        parent = parent[k]
    if how == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _MUTATIONS[how](parent[path[-1]])
    with tempfile.TemporaryDirectory() as d:
        cfg_path, out_path = os.path.join(d, "job.json"), os.path.join(d, "report.json")
        with open(cfg_path, "w") as f:
            json.dump(job, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["--config", cfg_path, "--out", out_path])
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert not os.path.exists(out_path)
            assert sum(line.startswith("certikit:") for line in err.getvalue().splitlines()) == 1
        else:
            with open(out_path) as f:
                strict_json(f.read())


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


def test_conformal_task_from_scores_csv(tmp_path):
    # 40 (prediction x, y, heading, actual x, y) rows: calibrate_2d needs
    # n >= 19 at the default delta = 0.1
    rng = np.random.default_rng(5)
    pred = np.column_stack([rng.uniform(-5.0, 5.0, (40, 2)), rng.uniform(-np.pi, np.pi, 40)])
    rows = np.column_stack([pred, pred[:, :2] + rng.normal(scale=0.2, size=(40, 2))])
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("px,py,heading,ax,ay\n" + "\n".join(",".join(map(repr, r.tolist())) for r in rows) + "\n")
    code, rep = run_main(tmp_path, {"task": "conformal", "scores_csv": str(csv_path)})
    assert code == 0
    cal_lon, cal_lat = conformal.calibrate_2d(*conformal.load_score_csv(csv_path), 0.1)
    assert rep["calibration"] == json.loads(json.dumps({"lon": cal_lon.to_dict(), "lat": cal_lat.to_dict()}))
    assert rep["calibration"]["lon"]["n_cal"] == 40


def test_gpphs_task_from_dataset_csv(tmp_path):
    # columns t, x0, x1: the CSV job estimates derivatives with the derivative
    # filter, so it reports what the same data given inline reports
    t = np.linspace(0.0, 1.0, 6)
    X = np.column_stack([np.cos(t), -np.sin(t)])
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,x0,x1\n" + "\n".join(",".join(map(repr, r.tolist())) for r in np.column_stack([t, X])) + "\n")
    job = {"task": "gpphs", "init_params": GP_PARAMS, "budget": 20}
    code, from_csv = run_main(tmp_path, {**job, "dataset_csv": str(csv_path)})
    assert code == 0
    inline = {**job, "states": X.tolist(), "derivs": gpphs.derivative_filter(t, X).tolist()}
    code, from_inline = run_main(tmp_path, inline)
    assert code == 0
    from_csv.pop("wall_time_s")
    from_inline.pop("wall_time_s")
    assert from_csv == from_inline


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


def test_reach_interval_overflow_exit_two(tmp_path, capsys):
    job = {"task": "reach", "matrix": [[1e300]], "region": {"lower": [-1], "upper": [1]}, "steps": 3}
    code, report = run_main(tmp_path, job)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err == "certikit: NonFiniteState: interval box overflows at step 2\n"


def test_verify_nn_overflowing_weights_exit_two(tmp_path, capsys):
    # the hidden bounds are +-1e300 and the output's overflow; HiGHS would
    # reject the encoding, so the overflow must be reported before it
    net = {
        "kind": "mlp",
        "layers": [
            {"w": [[1e300], [-1e300]], "b": [0.0, 0.0], "act": "relu"},
            {"w": [[1e300, 1e300]], "b": [0.0], "act": "identity"},
        ],
    }
    code, report = run_main(tmp_path, {**NN_JOB, "network": net})
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err == "certikit: NonFiniteState: interval bounds overflow at layer 2\n"


def test_verify_nn_weights_past_highs_matrix_limit_report(tmp_path):
    # f(x) = relu(wx) + relu(-wx) with w = 1.1e15, past HiGHS's default
    # large_matrix_value of 1e15: the job gets a report, not exit 2, and its
    # bound holds every sample; f's minimum is 0, so no sign is proven
    w = 1.1e15
    net = {
        "kind": "mlp",
        "layers": [
            {"w": [[w], [-w]], "b": [0.0, 0.0], "act": "relu"},
            {"w": [[1.0, 1.0]], "b": [0.0], "act": "identity"},
        ],
    }
    code, rep = run_main(tmp_path, {**NN_JOB, "network": net})
    assert code == 3 and rep["status"] == "inconclusive"
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10_000, 1))
    f = nn.forward(nn.network_from_dict(net), xs)
    assert rep["checks"][0]["bound"] <= f.min()


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
    strict_json(json.dumps(r1))

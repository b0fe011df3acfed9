"""Config-driven command line: runs certification, reachability, network
verification, filter simulation, conformal calibration, and GP fitting jobs,
and bundles five self-contained demos.

Exit codes: 0 all checks passed, 1 a violation or counterexample was found,
2 usage error, malformed config, or infeasible problem, 3 inconclusive: no
check failed but one decided nothing (its "passed" is null), such as a
network bound that is neither certified nor falsified. Reports are JSON,
written atomically (temp file then rename); identical config and seed give
byte-identical reports apart from the wall-time field.
"""

import argparse
import json
import math
import numbers
import operator
import os
import sys
import tempfile
import time

# every solve is tiny, so one BLAS thread is fastest; the variables must be
# set before numpy is first imported (certikit/__init__.py imports none), and
# a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import (
    SCHEMA_VERSION,
    __version__,
    certify,
    conformal,
    dyn,
    filters,
    geom,
    gpphs,
    milp,
    nn,
    reach,
)
from .errors import CertikitError, ConfigError, InfeasibleFilter, UnknownDemo

__all__ = ["run", "demo", "main"]

TASKS = ("certify", "reach", "verify-nn", "filter-sim", "conformal", "gpphs")
DEMOS = (
    "integrator-cbf",
    "bicycle-conformal",
    "koopman-stability",
    "gp-massspring",
    "reach-rotation",
)


def write_json_atomic(obj, path):
    """Serialize to a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, sort_keys=True, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the exit code of each report status; usage and config errors exit 2
_EXIT_CODES = {"pass": 0, "violation": 1, "inconclusive": 3}


def _report(task, checks, seed, started, extra=None):
    """A report whose status follows from its checks, each of which passed
    (True), failed (False) or decided nothing (None): violation if any
    failed, else inconclusive if any decided nothing, else pass."""
    passed = [c["passed"] for c in checks]
    rep = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "task": task,
        "status": "violation" if False in passed else "inconclusive" if None in passed else "pass",
        "checks": checks,
        "seed": seed,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    if extra:
        rep.update(extra)
    return rep


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config field '{key}' is required")
    v = cfg[key]
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"config field '{key}' has the wrong type")
    return v


def _choice(cfg, key, options, default=None):
    """cfg[key] (or default), which must be one of options."""
    v = cfg.get(key, default)
    if v not in options:
        raise ConfigError(f"config field '{key}' is {v!r}; choose one of {options}")
    return v


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _number(cfg, key, kind, default, *, ge=None, gt=None, le=None, lt=None):
    """cfg[key] (or default) as a kind (int or float) with v >= ge, v > gt,
    v <= le and v < lt for each bound given; a value that is not a finite
    number, for int not a whole one, or out of range is a config error."""
    bounds = [(op, b) for op, b in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if b is not None]
    v = cfg.get(key, default)
    try:  # math.isfinite raises OverflowError on an int beyond float range
        if not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v):
            if (kind is float or v == math.floor(v)) and all(_COMPARE[op](v, b) for op, b in bounds):
                return kind(v)
    except OverflowError:
        pass
    rule = " and ".join(f"{op} {b}" for op, b in bounds)
    name = "integer" if kind is int else "number"
    raise ConfigError(f"config field '{key}' must be a finite {name} {rule}".rstrip())


def _array(key, v, ndim):
    """v as a non-empty float array of ndim dimensions and finite entries."""
    try:
        a = np.array(v, dtype=float)
    except (TypeError, ValueError) as e:  # text, objects, ragged rows
        raise ConfigError(f"config field '{key}' is not numeric") from e
    if a.ndim != ndim or a.size == 0 or not np.isfinite(a).all():
        raise ConfigError(f"config field '{key}' must be a non-empty {ndim}-D array of finite numbers")
    return a


def _read_file(key, path, load, **kwargs):
    """load(path, **kwargs); a file that cannot be opened or parsed is a config error."""
    try:
        return load(path, **kwargs)
    except (OSError, ValueError) as e:
        raise ConfigError(f"config field '{key}': cannot read {path}: {e}") from e


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _load_matrix(cfg, key):
    v = _require(cfg, key)
    if isinstance(v, str):
        v = _read_file(key, v, _load_json)
    return _array(key, v, 2)


def _load_network(cfg, key="network"):
    """An inline scalar-output mlp dict, or a JSON weight file holding one
    (see `nn.save_network`)."""
    v = _require(cfg, key)
    if isinstance(v, str):
        v = _read_file(key, v, _load_json)
    if not isinstance(v, dict):
        raise ConfigError(f"config field '{key}' is not a network object")
    try:
        net = nn.network_from_dict(v)
    except (KeyError, TypeError, ValueError, CertikitError) as e:
        raise ConfigError(f"config field '{key}' is not a valid network: {e!r}") from e
    if not isinstance(net, nn.Mlp) or net.out_dim != 1:
        raise ConfigError(f"config field '{key}' must be a scalar-output mlp")
    return net


def _box_from_cfg(cfg, key="region"):
    v = _require(cfg, key, dict)
    lower, upper = (_array(f"{key}.{k}", _require(v, k), 1) for k in ("lower", "upper"))
    try:
        return geom.Box(lower, upper)
    except ValueError as e:  # lower > upper
        raise ConfigError(f"config field '{key}': {e}") from e


# -- task handlers ---------------------------------------------------------


def _task_certify(cfg, seed, started):
    K = _load_matrix(cfg, "matrix")
    rho = certify.spectral_radius(K)
    schur = certify.is_schur(K)
    checks = [{"name": "schur_stable", "passed": schur, "spectral_radius": rho}]
    return _report("certify", checks, seed, started)


def _task_reach(cfg, seed, started):
    A = _load_matrix(cfg, "matrix")
    model = dyn.LinearMap(A)
    box = _box_from_cfg(cfg)
    if box.dim != model.state_dim:
        raise ConfigError(
            f"config field 'region' has dimension {box.dim}; 'matrix' needs {model.state_dim}"
        )
    steps = _number(cfg, "steps", int, 1, ge=1)
    if _choice(cfg, "method", ("interval", "sampled"), "interval") == "interval":
        res = reach.propagate_interval(model, box, steps)
    else:
        rcfg = reach.ReachConfig(
            steps=steps,
            template=_choice(cfg, "template", reach.TEMPLATES, "ball_union"),
            n_samples=_number(cfg, "n_samples", int, 200, ge=1),
            eps=_number(cfg, "eps", float, 0.05, ge=0),
            delta=_number(cfg, "delta", float, 0.1, gt=0, lt=1),
            seed=seed,
        )
        res = reach.reach_sampled(model, box, rcfg)
    checks = [{"name": "reach_completed", "passed": True, "guarantee": res.guarantee}]
    return _report("reach", checks, seed, started, {"result": res.to_dict()})


def _task_verify_nn(cfg, seed, started):
    net = _load_network(cfg)
    box = _box_from_cfg(cfg)
    if box.dim != net.in_dim:
        raise ConfigError(f"config field 'region' has dimension {box.dim}; 'network' needs {net.in_dim}")
    tol = _number(cfg, "tol", float, 1e-6, ge=0)
    budget = _number(cfg, "budget", int, 100000, ge=1)
    out = milp.verify_positivity(net, box, tol=tol, node_budget=budget)
    checks = [
        {
            "name": "network_positivity",
            # a BoundOnly bound proves neither sign
            "passed": {"Certified": True, "Falsified": False}.get(out.status),
            "status": out.status,
            "bound": out.bound,
            "counterexample": None
            if out.counterexample is None
            else list(map(float, out.counterexample)),
            "nodes_explored": out.nodes_explored,
        }
    ]
    return _report("verify-nn", checks, seed, started)


def _cbf_integrator_sim(x0, n_steps, dt, kappa, u_lim, nominal):
    """Single integrator x' = u kept below x = 1 (h = 1 - x) by a CBF filter
    with |u| <= u_lim, driven by the nominal input nominal(k) at step k.

    Returns the forward-invariance and pass-through checks and the number of
    steps whose nominal input was not admissible as is.
    """
    sys = dyn.linear_ode(np.zeros((1, 1)), np.ones((1, 1)))
    bar = filters.affine_barrier(np.array([-1.0]), 1.0, kappa)  # h = 1 - x
    flt = filters.CbfFilter(sys, bar, geom.Box([-u_lim], [u_lim]))
    x = np.array([x0])
    min_h = np.inf
    max_passthrough_dev = 0.0
    n_filtered = 0
    for k in range(n_steps):
        u_nom = np.array([nominal(k)])
        u = flt.filter(x, u_nom)
        if float(u_nom[0]) <= kappa * bar.h(x) and abs(u_nom[0]) <= u_lim:
            max_passthrough_dev = max(max_passthrough_dev, abs(float(u[0] - u_nom[0])))
        else:
            n_filtered += 1
        x = x + dt * u
        min_h = min(min_h, bar.h(x))
    checks = [
        {"name": "forward_invariance", "passed": bool(min_h >= -1e-6), "min_h": float(min_h)},
        {
            "name": "nominal_passthrough",
            "passed": bool(max_passthrough_dev <= 1e-6),
            "max_deviation": float(max_passthrough_dev),
        },
    ]
    return checks, n_filtered


def _task_filter_sim(cfg, seed, started):
    n_steps = _number(cfg, "steps", int, 1000, ge=1)
    checks, _ = _cbf_integrator_sim(
        _number(cfg, "x0", float, 0.0),
        n_steps,
        _number(cfg, "dt", float, 0.01, gt=0),
        _number(cfg, "kappa", float, 1.0, gt=0),
        _number(cfg, "u_limit", float, 2.0, ge=0),
        lambda k: 1.5 * np.sin(0.002 * k),
    )
    return _report("filter-sim", checks, seed, started, {"steps": n_steps})


def _task_conformal(cfg, seed, started):
    delta = _number(cfg, "delta", float, 0.1, gt=0, lt=1)
    if "scores_csv" in cfg:
        lon, lat = _read_file("scores_csv", _require(cfg, "scores_csv", str), conformal.load_score_csv)
        cal_lon, cal_lat = conformal.calibrate_2d(lon, lat, delta)
        cal_out = {"lon": cal_lon.to_dict(), "lat": cal_lat.to_dict()}
    else:
        cal_out = conformal.calibrate(_array("scores", _require(cfg, "scores", list), 1), delta).to_dict()
    checks = [{"name": "calibration", "passed": True, "delta": delta}]
    return _report("conformal", checks, seed, started, {"calibration": cal_out})


def _task_gpphs(cfg, seed, started):
    noise_var = _number(cfg, "noise_var", float, 0.0, ge=0)
    try:
        if "dataset_csv" in cfg:
            path = _require(cfg, "dataset_csv", str)
            raw = _read_file("dataset_csv", path, np.loadtxt, delimiter=",", skiprows=1, ndmin=2)
            d = _number(cfg, "state_dim", int, raw.shape[1] - 1, ge=1, le=raw.shape[1] - 1)
            data = gpphs.dataset_from_trajectory(raw[:, 0], raw[:, 1 : 1 + d], raw[:, 1 + d :], noise_var)
        else:
            X = _array("states", _require(cfg, "states"), 2)
            U = np.array(cfg.get("inputs") or np.zeros((len(X), 0)), dtype=float).reshape(len(X), -1)
            data = gpphs.GpPhsDataset(X, _array("derivs", _require(cfg, "derivs"), 2), U, noise_var)
    except (TypeError, ValueError) as e:  # ragged or mismatched rows, non-finite values
        raise ConfigError(f"gpphs dataset: {e}") from e
    try:
        init = gpphs.params_from_dict(_require(cfg, "init_params", dict))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"config field 'init_params': {e!r}") from e
    if not all(np.isfinite(v).all() for v in gpphs.params_to_dict(init).values()):
        raise ConfigError("config field 'init_params' must hold finite numbers")
    m = data.inputs.shape[1]
    if init.dim != data.dim or init.phi_g.size != data.dim * m:
        raise ConfigError(
            f"config field 'init_params' has dimension {init.dim} and {init.phi_g.size} phi_g entries;"
            f" the dataset needs {data.dim} and {data.dim * m}"
        )
    fitted = gpphs.fit(data, init, _number(cfg, "budget", int, 100, ge=1))
    checks = [{"name": "fit_completed", "passed": True, "nlml": gpphs.nlml(fitted, data)}]
    return _report("gpphs", checks, seed, started, {"fitted_params": gpphs.params_to_dict(fitted)})


_HANDLERS = {
    "certify": _task_certify,
    "reach": _task_reach,
    "verify-nn": _task_verify_nn,
    "filter-sim": _task_filter_sim,
    "conformal": _task_conformal,
    "gpphs": _task_gpphs,
}


def run(config, out_path=None, seed=None):
    """Dispatch a job config dict; returns (report, exit_code)."""
    started = time.monotonic()
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    task = _choice(config, "task", TASKS)
    seed = _number(config if seed is None else {"seed": seed}, "seed", int, 0, ge=0)
    report = _HANDLERS[task](config, seed, started)
    if out_path is None:
        out_path = config.get("out")
    if out_path:
        write_json_atomic(report, out_path)
    return report, _EXIT_CODES[report["status"]]


# -- demos -----------------------------------------------------------------


def _demo_integrator_cbf(seed, started, n_steps=100_000):
    """Single integrator kept below x=1 by a CBF filter for 10^5 steps."""
    # the nominal input persistently pushes up and never exceeds u_lim
    checks, n_filtered = _cbf_integrator_sim(
        0.0, n_steps, dt=0.01, kappa=1.0, u_lim=2.0, nominal=lambda k: 1.5 + 0.5 * np.sin(2e-4 * k)
    )
    return _report(
        "demo:integrator-cbf",
        checks,
        seed,
        started,
        {"steps": n_steps, "interventions": n_filtered},
    )


# Pass mark of the bicycle-conformal demo's coverage on its 400 held-out
# points, at a false-alarm rate below 1e-3 for a correct calibration. The
# predicted and actual rollouts differ only by the added position noise, so
# the heading-frame scores are exactly i.i.d. N(0, 0.05^2) per axis, and the
# coverage of calibrate_2d at delta = 0.1 on 400 such scores has a known law
# (free of the scale). In 2e5 simulated runs its 1e-3 quantile is 0.8275 and
# 0.82 is missed in 3.9e-4 of them; the earlier mark 1 - delta - 0.02 = 0.88
# was missed in 15.6%. A run calibrated at delta = 0.3 reaches 0.82 in 4.6e-4
# of 5e4 simulated runs. tests/test_conformal.py repeats both simulations.
BICYCLE_COVERAGE_PASS = 0.82


def _demo_bicycle_conformal(seed, started):
    """Kinematic bicycle rollouts with noisy observations; CQR calibration of
    heading-frame position errors, then Monte-Carlo coverage on held-out data."""
    rng = np.random.default_rng(seed)
    model = dyn.BicycleModel(wheelbase=2.5, steer_limit=0.5, accel_limit=3.0)
    delta = 0.1
    dt, horizon = 0.1, 10

    def rollout(x0, us, noisy):
        x = dyn.simulate_ode(model, x0, us, dt).states[-1]
        if noisy:
            x = x + np.concatenate([rng.normal(0, 0.05, 2), [0.0, 0.0]])
        return x

    def score_batch(n):
        lon, lat = np.empty(n), np.empty(n)
        for i in range(n):
            x0 = np.array([0.0, 0.0, rng.uniform(-0.3, 0.3), rng.uniform(3.0, 8.0)])
            us = np.column_stack(
                [rng.uniform(-0.2, 0.2, horizon), rng.uniform(-1.0, 1.0, horizon)]
            )
            pred = rollout(x0, us, noisy=False)
            actual = rollout(x0, us, noisy=True)
            lon[i], lat[i] = conformal.rotated_rect_score(
                (pred[0], pred[1], pred[2]), (actual[0], actual[1])
            )
        return lon, lat

    lon_cal, lat_cal = score_batch(400)
    cal_lon, cal_lat = conformal.calibrate_2d(lon_cal, lat_cal, delta)
    lon_te, lat_te = score_batch(400)
    cov = float(
        np.mean(
            [
                conformal.covers(cal_lon, a) and conformal.covers(cal_lat, b)
                for a, b in zip(lon_te, lat_te)
            ]
        )
    )
    checks = [
        {
            "name": "empirical_coverage",
            "passed": cov >= BICYCLE_COVERAGE_PASS,
            "coverage": cov,
            "target": BICYCLE_COVERAGE_PASS,
        }
    ]
    return _report(
        "demo:bicycle-conformal",
        checks,
        seed,
        started,
        {
            "calibration": {"lon": cal_lon.to_dict(), "lat": cal_lat.to_dict()},
            "delta": delta,
        },
    )


def _demo_koopman_stability(seed, started):
    """SVD-clamped latent operators: Schur stability and bounded rollouts."""
    rng = np.random.default_rng(seed)
    d, rollout_steps = 6, 200
    lam_min, lam_max = 0.05, 0.99
    worst_margin = np.inf
    worst_excess = -np.inf
    all_schur = True
    for _ in range(20):
        U, _ = np.linalg.qr(rng.normal(size=(d, d)))
        V, _ = np.linalg.qr(rng.normal(size=(d, d)))
        spec = certify.SvdClampSpec(rng.normal(size=d) * 3, lam_min, lam_max)
        K = certify.svd_clamp(spec, U, V)
        rho = certify.spectral_radius(K)
        all_schur = all_schur and certify.is_schur(K)
        worst_margin = min(worst_margin, 1.0 - rho)
        x = rng.normal(size=d)
        x = x / np.linalg.norm(x)
        n0 = np.linalg.norm(x)
        for k in range(1, rollout_steps + 1):
            x = K @ x
            worst_excess = max(
                worst_excess, np.linalg.norm(x) - (lam_max**k * n0 + 1e-9)
            )
    checks = [
        {"name": "all_schur", "passed": bool(all_schur), "min_margin": float(worst_margin)},
        {
            "name": "rollout_bounded",
            "passed": bool(worst_excess <= 0.0),
            "worst_excess": float(worst_excess),
        },
    ]
    return _report("demo:koopman-stability", checks, seed, started)


def _demo_gp_massspring(seed, started):
    """1-DOF mass-spring port-Hamiltonian field learned from 50 samples."""
    rng = np.random.default_rng(seed)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])  # field J grad H with H = 0.5 x'x
    X = rng.uniform(-1.5, 1.5, size=(50, 2))
    dX = X @ J.T
    data = gpphs.GpPhsDataset(X, dX, np.zeros((50, 0)), noise_var=0.0)
    init = gpphs.PhsKernelParams(
        1.0, np.array([0.5, 0.5]), np.array([1.0]), np.array([0.0, 0.0, 0.0]), np.array([])
    )
    fitted = gpphs.fit(data, init, budget=60)
    # interpolation at training points (well-conditioned params; long fitted
    # lengthscales can push the zero-noise Gram near singular)
    mean_tr, _ = gpphs.posterior(init, data, X)
    interp_err = float(np.max(np.abs(mean_tr - dX)))
    # field recovery on a grid
    g = np.linspace(-1.2, 1.2, 7)
    grid = np.array([[a, b] for a in g for b in g])
    mean_g, _ = gpphs.posterior(fitted, data, grid)
    truth = grid @ J.T
    rms_err = float(np.sqrt(np.mean((mean_g - truth) ** 2)))
    rms_norm = float(np.sqrt(np.mean(truth**2)))
    rel = rms_err / rms_norm
    checks = [
        {"name": "interpolation", "passed": bool(interp_err <= 1e-6), "max_error": interp_err},
        {"name": "field_rms", "passed": bool(rel <= 0.05), "relative_rms": rel},
    ]
    return _report(
        "demo:gp-massspring",
        checks,
        seed,
        started,
        {"n_train": 50, "fitted_params": gpphs.params_to_dict(fitted)},
    )


def _demo_reach_rotation(seed, started):
    """Wrapping effect: interval propagation of a rotating box inflates the
    tracked volume although the true image volume is constant."""
    theta = np.pi / 4.0
    A = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    k = 6
    box = geom.Box([-1.0, -1.0], [1.0, 1.0])
    res = reach.propagate_interval(dyn.LinearMap(A), box, k)
    vol0 = float(np.prod(box.upper - box.lower))
    volk = float(np.prod(res.regions[-1].upper - res.regions[-1].lower))
    ratio = volk / vol0
    target = float(np.sqrt(2.0) ** k)
    passed = ratio >= target
    checks = [
        {
            "name": "wrapping_volume_ratio",
            "passed": bool(passed),
            "ratio": ratio,
            "target": target,
            "steps": k,
        }
    ]
    return _report("demo:reach-rotation", checks, seed, started)


_DEMO_HANDLERS = {
    "integrator-cbf": _demo_integrator_cbf,
    "bicycle-conformal": _demo_bicycle_conformal,
    "koopman-stability": _demo_koopman_stability,
    "gp-massspring": _demo_gp_massspring,
    "reach-rotation": _demo_reach_rotation,
}


def demo(name, seed=0, out_path=None, **kwargs):
    """Run a bundled scenario; returns (report, exit_code)."""
    started = time.monotonic()
    if name not in _DEMO_HANDLERS:
        raise UnknownDemo(f"unknown demo '{name}'; choose one of {DEMOS}")
    seed = _number({"seed": seed}, "seed", int, 0, ge=0)
    report = _DEMO_HANDLERS[name](seed, started, **kwargs)
    if out_path:
        write_json_atomic(report, out_path)
    return report, _EXIT_CODES[report["status"]]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="certikit", description="certification and runtime-safety toolkit"
    )
    parser.add_argument("--config", help="path to a JSON job config")
    parser.add_argument("--demo", help=f"run a bundled demo: {', '.join(DEMOS)}")
    parser.add_argument("--out", help="report output path (JSON)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if (args.config is None) == (args.demo is None):
        parser.print_usage(sys.stderr)
        print("certikit: provide exactly one of --config or --demo", file=sys.stderr)
        return 2
    try:
        if args.demo is not None:
            report, code = demo(args.demo, seed=args.seed or 0, out_path=args.out)
        else:
            try:
                with open(args.config) as f:
                    config = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError(f"cannot read config: {e}") from e
            report, code = run(config, out_path=args.out, seed=args.seed)
    except (ConfigError, UnknownDemo, InfeasibleFilter) as e:
        print(f"certikit: {e}", file=sys.stderr)
        return 2
    except CertikitError as e:
        print(f"certikit: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if args.out is None:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        print()
    return code


if __name__ == "__main__":
    sys.exit(main())

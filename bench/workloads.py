"""The three benchmark workloads: filter-loop, certify-nn and learn-and-reach.

Each workload is driven by one caller in one process (a closed loop): the
next operation starts only after the previous one returns. A workload object
is built once from the run seed; that construction, plus the imports, is what
`setup_s` times. It then yields rounds of operations. Round r draws its
inputs from `default_rng([seed, r])`, so one seed gives the same inputs round
by round, however many rounds a run completes. Where an input's cost varies
too much to draw it per run, the workload uses fixed inputs instead and says
why.

An operation is an `Op(kind, call, check)`. The runner times `call()` alone.
`check(result)` runs afterwards, untimed, and returns None or a message that
says why the output is wrong. A round is a generator: the runner sends each
result back into it, so closed-loop state (the plant, the previous fit)
follows the program's own outputs. After a failed operation it sends
`FAILED`, and the round skips only what depended on that output.

`light` and `heavy` name the two operation kinds whose mean latencies the
benchmark reports for every workload (light_mean_ms, heavy_mean_ms). Where
a kind repeats fixed inputs every round, its mean is steady while its median
jumps between inputs with the machine's speed.
"""

import importlib.util
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from certikit import certify, cli, dyn, filters, geom, gpphs, milp, nn, reach

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_oracles():
    """The brute-force oracles of the test suite, imported from their file."""
    path = os.path.join(ROOT, "tests", "helpers_oracles.py")
    spec = importlib.util.spec_from_file_location("helpers_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


FAILED = object()


@dataclass(frozen=True)
class Op:
    kind: str
    call: object
    check: object


def _rng(seed, r):
    return np.random.default_rng([seed, r])


def _forward(net, X):
    """Plain numpy forward pass, so checks never call the code under test."""
    Z = np.atleast_2d(X)
    for layer in net.layers:
        Z = Z @ layer.W.T + layer.b
        if layer.activation == "relu":
            Z = np.maximum(Z, 0.0)
        elif layer.activation == "sigmoid":
            Z = 1.0 / (1.0 + np.exp(-Z))
    return Z


def _lipschitz(net):
    return float(np.prod([np.linalg.norm(layer.W, 2) for layer in net.layers]))


def _shift_output(net, c):
    """The network x -> net(x) - c."""
    last = net.layers[-1]
    return nn.Mlp(net.layers[:-1] + (nn.Layer(last.W, last.b - c, last.activation),))


def _negate(net):
    last = net.layers[-1]
    return nn.Mlp(net.layers[:-1] + (nn.Layer(-last.W, -last.b, last.activation),))


def _grid(lower, upper, k):
    axes = [np.linspace(lo, hi, k) for lo, hi in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# -- filter-loop -------------------------------------------------------------

CBF_DT = 0.01
CBF_KAPPA = 1.0
U_MAX = 2.0
# Share of CBF ticks whose nominal input already satisfies every constraint.
# Those ticks return before the QP, so they are the built-in no-change control.
P_PASS = 0.2
CBF_OPT_TOL = 1e-5  # filtered input vs the exact QP optimum
BARRIER_TOL = 1e-6  # min barrier value after each tick
PSF_DT = 0.1
STATE_TOL = 1e-6
INPUT_TOL = 1e-9
DISK_C = np.array([0.3, 0.3])
DISK_R = 0.3
GOAL = np.array([0.9, 0.9])


def _cbf_rows(flt, x):
    """The filter's constraint rows l <= A u <= h: input box, then barriers."""
    f, g = flt.sys.f(x), flt.sys.g(x)
    m = flt.sys.input_dim
    rows, lo, hi = [np.eye(m)], [flt.u_box.lower], [flt.u_box.upper]
    for bar in flt.barriers:
        gh = np.asarray(bar.grad_h(x), dtype=float)
        rows.append((gh @ g)[None, :])
        lo.append([-bar.kappa * bar.h(x) - gh @ f])
        hi.append([np.inf])
    return np.vstack(rows), np.concatenate(lo), np.concatenate(hi)


def _step_to_boundary(A, lo, hi, d):
    """Largest t >= 0 with lo <= A (t d) <= hi (u = 0 is feasible when h >= 0)."""
    Ad = A @ d
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = np.where(Ad > 0, hi / Ad, np.inf)
        t_lo = np.where(Ad < 0, lo / Ad, np.inf)
    return max(float(min(t_hi.min(), t_lo.min())), 0.0)


def _fit_sigmoid_model(A, B, hidden=16):
    """A sigmoid MLP fitted to x+ = A x + B u by least squares on its output
    layer over random hidden features (fixed data, so every seed plans with
    the same learned model). Small input weights keep the sigmoids near their
    linear range, so the model's Jacobians stay close to (A, B)."""
    rng = np.random.default_rng(2024)
    n, m = B.shape
    W1 = 0.3 * rng.normal(size=(hidden, n + m))
    b1 = 0.3 * rng.normal(size=hidden)
    Z = rng.uniform(-2.0, 2.0, size=(800, n + m))
    Y = Z[:, :n] @ A.T + Z[:, n:] @ B.T
    H = np.hstack([1.0 / (1.0 + np.exp(-(Z @ W1.T + b1))), np.ones((Z.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(H, Y, rcond=None)
    return nn.Mlp((nn.Layer(W1, b1, "sigmoid"), nn.Layer(coef[:-1].T, coef[-1], "identity")))


class FilterLoop:
    """Closed-loop runtime safety on three plants, one episode each per round:
    a 1-D integrator with one affine CBF, a planar integrator with two walls
    and a disk, and an N=10 predictive safety filter on a double integrator,
    planned once with the exact linear model and once with a learned
    sigmoid-MLP model (the SQP path)."""

    name = "filter-loop"
    # ticks planned with the learned model are their own kind ("psf_learned"):
    # mixed into one median with the exact-model ticks, the median would sit
    # where the two distributions meet
    light, heavy = "cbf", "psf"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.ticks = (10, 10, 12, 8) if tiny else (200, 200, 20, 10)
        self.oracles = load_oracles()
        line = dyn.linear_ode(np.zeros((1, 1)), np.ones((1, 1)))
        self.line = filters.CbfFilter(
            line, [filters.affine_barrier([-1.0], 1.0, CBF_KAPPA)], geom.Box([-U_MAX], [U_MAX])
        )
        plane = dyn.linear_ode(np.zeros((2, 2)), np.eye(2))
        walls = [
            filters.affine_barrier([-1.0, 0.0], 1.0, CBF_KAPPA),
            filters.affine_barrier([0.0, -1.0], 1.0, CBF_KAPPA),
        ]
        # h = |x - c|^2 - r^2: stay outside the disk
        disk = filters.quadratic_barrier(-np.eye(2), DISK_C, -(DISK_R**2), CBF_KAPPA)
        self.plane = filters.CbfFilter(plane, walls + [disk], geom.Box([-U_MAX] * 2, [U_MAX] * 2))
        A = np.array([[1.0, PSF_DT], [0.0, 1.0]])
        B = np.array([[0.5 * PSF_DT**2], [PSF_DT]])
        cfg = filters.PsfConfig(
            horizon=10,
            state_set=geom.Box([-1.0, -1.0], [1.0, 1.0]),
            input_set=geom.Box([-1.0], [1.0]),
            # v = 0 with |p| <= 0.8 is invariant under u = 0, so the filter
            # stays recursively feasible on the exact model
            terminal_set=geom.Box([-0.8, 0.0], [0.8, 0.0]),
        )
        self.psf_cfg = cfg
        self.exact = dyn.LinearMap(A, B)
        self.learned = dyn.NetworkMap(_fit_sigmoid_model(A, B), input_dim=1)
        self.psf_exact = filters.PredictiveSafetyFilter(self.exact, cfg)
        self.psf_learned = filters.PredictiveSafetyFilter(self.learned, cfg)

    def round(self, r):
        rng = _rng(self.seed, r)
        n_line, n_plane, n_exact, n_learned = self.ticks
        yield from self._cbf_episode(self.line, rng.uniform([-0.5], [0.5]), n_line, rng)
        x0 = rng.uniform([-1.0, -1.0], [0.0, 0.0])
        yield from self._cbf_episode(self.plane, x0, n_plane, rng)
        yield from self._psf_episode(self.psf_exact, self.exact, n_exact, rng)
        yield from self._psf_episode(self.psf_learned, self.learned, n_learned, rng)

    def _cbf_episode(self, flt, x, ticks, rng):
        for _ in range(ticks):
            A, lo, hi = _cbf_rows(flt, x)
            if x.size == 1:
                d = np.array([1.0 if rng.random() < 0.7 else -1.0])
            else:
                d = GOAL - x + rng.normal(scale=0.5, size=2)
                d /= np.linalg.norm(d)
            t_max = _step_to_boundary(A, lo, hi, d)
            passes = rng.random() < P_PASS
            u_nom = rng.uniform(0.1, 0.9) * t_max * d if passes else rng.uniform(1.1, 2.0) * t_max * d
            u = yield Op("cbf", partial(flt.filter, x, u_nom), partial(self._check_cbf, flt, x, u_nom, passes, A, lo, hi))
            if u is FAILED:
                return
            x = x + CBF_DT * u

    def _check_cbf(self, flt, x, u_nom, passes, A, lo, hi, u):
        if passes and not np.array_equal(u, u_nom):
            return f"pass-through tick changed u_nom {u_nom} to {u}"
        best, _ = self.oracles.active_set_oracle(np.eye(u.size), -u_nom, A, lo, hi)
        if best is None or np.max(np.abs(u - best)) > CBF_OPT_TOL:
            return f"filtered input {u} is not the QP optimum {best} at x={x}"
        x_next = x + CBF_DT * u
        h_min = min(bar.h(x_next) for bar in flt.barriers)
        if h_min < -BARRIER_TOL:
            return f"barrier value {h_min:.3g} < -{BARRIER_TOL} after tick from x={x}"
        return None

    def _psf_episode(self, flt, model, ticks, rng):
        if flt is self.psf_exact:
            # a persistent push towards a wall: the filter must brake
            x = rng.uniform([-0.5, -0.3], [0.5, 0.3])
            push = rng.choice([-1.0, 1.0])
            nominal = [push * rng.uniform(0.5, 1.5, size=1) for _ in range(ticks)]
        else:
            # a gentle swinging reference from near rest. The SQP path ends
            # in SqpNoConverge or InfeasibleFilter in most episodes under a
            # persistent push, and in about 1 of 10 with x0 as wide as above
            # and swings up to 1.0.
            x = rng.uniform([-0.3, -0.1], [0.3, 0.1])
            amp, phase = rng.uniform(0.2, 0.6), rng.uniform(0.0, 2.0 * np.pi)
            nominal = [np.array([amp * np.sin(0.3 * k + phase)]) for k in range(ticks)]
        kind = "psf" if flt is self.psf_exact else "psf_learned"
        for u_nom in nominal:
            out = yield Op(kind, partial(flt.filter, x, u_nom), partial(self._check_psf, model, x))
            if out is FAILED:
                return
            x = self._plant(model, x, out[0])

    @staticmethod
    def _plant(model, x, u):
        if isinstance(model, dyn.LinearMap):
            return model.A @ x + model.B @ u
        return _forward(model.net, np.concatenate([x, u]))[0]

    def _check_psf(self, model, x, out):
        u, _ = out
        box = self.psf_cfg.input_set
        if np.any(u < box.lower - INPUT_TOL) or np.any(u > box.upper + INPUT_TOL):
            return f"PSF input {u} outside the input set"
        x_next = self._plant(model, x, u)
        states = self.psf_cfg.state_set
        if np.any(x_next < states.lower - STATE_TOL) or np.any(x_next > states.upper + STATE_TOL):
            return f"PSF state {x_next} outside the state set after x={x}, u={u}"
        return None


# -- certify-nn --------------------------------------------------------------

BOUND_TOL = 1e-5  # criterion 1: |MILP bound - exact max|
MEDIUM_BOX = geom.Box([-1.0, -1.0], [1.0, 1.0])
DENSE_K = 401  # dense grid per axis for the medium-net reference max/min


def _medium_net(seed):
    """A 2-6-6-1 ReLU net; generator seeds 1000-1007 give verdicts of 0.2 to
    16 s on a 2-vCPU x86 sandbox."""
    r = np.random.default_rng(seed)
    return nn.Mlp(
        (
            nn.Layer(r.normal(size=(6, 2)), r.normal(size=6), "relu"),
            nn.Layer(r.normal(size=(6, 6)) / np.sqrt(6), r.normal(size=6), "relu"),
            nn.Layer(r.normal(size=(1, 6)), r.normal(size=1), "identity"),
        )
    )


def _small_net(rng):
    """As in criterion 1: at most 2 inputs, 2-8 hidden ReLUs, a random box."""
    n_in = int(rng.integers(1, 3))
    h = int(rng.integers(2, 9))
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(h, n_in)), rng.normal(size=h), "relu"),
            nn.Layer(rng.normal(size=(1, h)), rng.normal(size=1), "identity"),
        )
    )
    lo = rng.uniform(-2.0, 0.0, n_in)
    return net, geom.Box(lo, lo + rng.uniform(0.5, 2.0, n_in))


def _verify_config(net, box):
    return {
        "task": "verify-nn",
        "network": nn.network_to_dict(net),
        "region": {"lower": box.lower.tolist(), "upper": box.upper.tolist()},
        "tol": 1e-6,
    }


class CertifyNN:
    """Back-to-back verification queries, in a seed-shuffled order. Per round:
    the 50 small nets of criterion 1 (a quarter of them through `cli.run`),
    the medium panel, four more small nets drawn from the seed, and four
    cheap Schur/SVD-clamp and interval checks drawn from the seed.

    The timed classes use fixed nets because verdict time depends on the
    weights far more than on anything else: small-net verdicts take 1 ms to
    0.4 s, and one 2-6-6-1 verdict anywhere from 0.2 s to 16 s. With nets
    drawn per run, the median verdict moved by 45% from seed to seed. The
    drawn nets (kind "drawn_verdict") keep exploring new weights; they are
    how a Certified bound 2.6e-5 below the exact maximum turned up. The
    medium panel keeps the nets of generator seeds 1000-1006 whose verdict
    takes under 3 s, each on one path with one expected verdict."""

    name = "certify-nn"
    light, heavy = "small_verdict", "medium_verdict"
    # (generator seed, path): "max" calls milp.maximize_output; "certified"
    # and "falsified" run the verify-nn task (a minimization) through
    # cli.run on the net shifted to make that the right verdict.
    PANEL = ((1002, "max"), (1003, "max"), (1006, "max"), (1000, "certified"), (1005, "falsified"))
    TINY_PANEL = ((1004, "max"),)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        rng = np.random.default_rng(11)  # the generator of criterion 1
        self.small = [_small_net(rng) for _ in range(4 if tiny else 50)]
        self.n_drawn = 1 if tiny else 4
        self.panel = [(_medium_net(s), path) for s, path in (self.TINY_PANEL if tiny else self.PANEL)]
        self.oracles = load_oracles()
        self._dense = None
        self._exact = {}

    def _references(self):
        """Dense-grid max/min and a Lipschitz bound per panel net (harness work,
        computed once, outside the timed set-up)."""
        if self._dense is None:
            X = _grid(MEDIUM_BOX.lower, MEDIUM_BOX.upper, DENSE_K)
            h = (MEDIUM_BOX.upper[0] - MEDIUM_BOX.lower[0]) / (DENSE_K - 1)
            self._dense = []
            for net, _ in self.panel:
                y = _forward(net, X)[:, 0]
                # every point of the box lies within h/sqrt(2) of a grid point
                slack = _lipschitz(net) * h / np.sqrt(2.0)
                self._dense.append((float(y.max()), float(y.min()), slack))
        return self._dense

    def round(self, r):
        rng = _rng(self.seed, r)
        refs = self._references()
        jobs = [("medium", i) for i in range(len(self.panel))]
        jobs += [("small", i) for i in range(len(self.small))]
        jobs += [("drawn", i) for i in range(self.n_drawn)]
        jobs += [("certify", 0), ("schur", 0), ("interval", 0), ("interval", 1)]
        for j in rng.permutation(len(jobs)):
            kind, i = jobs[j]
            if kind == "medium":
                yield self._medium_op(i, refs[i])
            elif kind == "small":
                yield self._small_op(i)
            elif kind == "drawn":
                net, box = _small_net(rng)
                exact = self.oracles.pattern_enumeration_max(net, box)[0]
                yield Op("drawn_verdict", partial(milp.maximize_output, net, box), partial(_check_max, net, exact - BOUND_TOL, exact + BOUND_TOL))
            elif kind == "certify":
                yield self._svd_clamp_op(rng)
            elif kind == "schur":
                yield self._schur_op(rng)
            else:
                yield self._interval_op(rng)

    def _medium_op(self, i, ref):
        net, path = self.panel[i]
        dense_max, dense_min, slack = ref
        if path == "max":
            return Op(
                "medium_verdict",
                partial(milp.maximize_output, net, MEDIUM_BOX),
                partial(_check_max, net, dense_max - BOUND_TOL, dense_max + slack + BOUND_TOL),
            )
        # positivity of net - c; c on either side of the minimum by a margin
        # the grid cannot blur, so the right verdict is known in advance
        margin = max(0.05, 2.0 * slack)
        certified = path == "certified"
        c = dense_min - margin if certified else dense_min + margin
        shifted = _shift_output(net, c)
        return Op(
            "medium_verdict",
            partial(cli.run, _verify_config(shifted, MEDIUM_BOX)),
            partial(_check_min_report, shifted, certified, dense_min - c - slack - BOUND_TOL, dense_min - c + BOUND_TOL),
        )

    def _small_op(self, i):
        """Net i: maximize directly, or (i % 4 == 3) check positivity of the
        net shifted 0.25 above or below its exact minimum through cli.run."""
        net, box = self.small[i]
        if i % 4 != 3:
            if i not in self._exact:
                self._exact[i] = self.oracles.pattern_enumeration_max(net, box)[0]
            exact = self._exact[i]
            return Op("small_verdict", partial(milp.maximize_output, net, box), partial(_check_max, net, exact - BOUND_TOL, exact + BOUND_TOL))
        if i not in self._exact:
            self._exact[i] = -self.oracles.pattern_enumeration_max(_negate(net), box)[0]
        certified = i % 8 == 3
        c = self._exact[i] + (-0.25 if certified else 0.25)
        shifted = _shift_output(net, c)
        m = self._exact[i] - c
        return Op("small_verdict", partial(cli.run, _verify_config(shifted, box)), partial(_check_min_report, shifted, certified, m - BOUND_TOL, m + BOUND_TOL))

    @staticmethod
    def _svd_clamp_op(rng):
        d, lam_min, lam_max = 6, 0.05, 0.99
        U, _ = np.linalg.qr(rng.normal(size=(d, d)))
        V, _ = np.linalg.qr(rng.normal(size=(d, d)))
        spec = certify.SvdClampSpec(3.0 * rng.normal(size=d), lam_min, lam_max)

        def call():
            K = certify.svd_clamp(spec, U, V)
            return K, certify.is_schur(K), certify.spectral_radius(K)

        def check(out):
            K, schur, rho = out
            if np.linalg.norm(K, 2) > lam_max + 1e-12:
                return f"clamped operator norm {np.linalg.norm(K, 2)} > {lam_max}"
            if not schur or abs(rho - np.max(np.abs(np.linalg.eigvals(K)))) > 1e-12:
                return f"Schur verdict {schur} / spectral radius {rho} wrong for a clamped operator"
            return None

        return Op("check", call, check)

    @staticmethod
    def _schur_op(rng):
        d = 4
        M = rng.normal(size=(d, d))
        target = rng.uniform(0.5, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.5)
        K = M * (target / np.max(np.abs(np.linalg.eigvals(M))))
        stable = target < 1.0

        def check(out):
            report, code = out
            want = "pass" if stable else "violation"
            if report["status"] != want or code != (0 if stable else 1):
                return f"certify task said {report['status']} for spectral radius {target:.3f}"
            return None

        return Op("check", partial(cli.run, {"task": "certify", "matrix": K.tolist()}), check)

    @staticmethod
    def _interval_op(rng):
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(6, 2)), rng.normal(size=6), "relu"),
                nn.Layer(0.5 * rng.normal(size=(2, 6)), rng.normal(size=2), "identity"),
            )
        )
        lo = rng.uniform(-1.0, 0.0, 2)
        box = geom.Box(lo, lo + rng.uniform(0.2, 1.0, 2))
        X = rng.uniform(box.lower, box.upper, size=(2000, 2))

        def check(res):
            Y = X
            for k in (1, 2):
                Y = _forward(net, Y)
                out = res.regions[k]
                if np.any(Y < out.lower - 1e-12) or np.any(Y > out.upper + 1e-12):
                    return f"interval step {k} misses sampled images"
            return None

        return Op("check", partial(reach.propagate_interval, dyn.NetworkMap(net), box, 2), check)


def _check_max(net, low, high, out):
    if out.status != "Certified":
        return f"maximize_output gave {out.status} (bound {out.bound}, nodes {out.nodes_explored})"
    if not low <= out.bound <= high:
        return f"bound {out.bound} outside the reference interval [{low}, {high}]"
    val = float(_forward(net, out.counterexample)[0, 0])
    if val < out.bound - out.gap - BOUND_TOL or val > out.bound + BOUND_TOL:
        return f"incumbent value {val} does not match bound {out.bound}"
    return None


def _check_min_report(net, certified, low, high, out):
    """verify-nn report on net >= 0 whose true minimum lies in [low, high]."""
    report, code = out
    chk = report["checks"][0]
    want = "Certified" if certified else "Falsified"
    if chk["status"] != want or code != (0 if certified else 1):
        return f"verify-nn said {chk['status']} (exit {code}), expected {want}"
    if not low <= chk["bound"] <= high:
        return f"verify-nn bound {chk['bound']} outside [{low}, {high}]"
    if not certified:
        val = float(_forward(net, np.array(chk["counterexample"]))[0, 0])
        if val >= 0 or val < chk["bound"] - BOUND_TOL:
            return f"counterexample value {val} is not a violation at the bound {chk['bound']}"
    return None


# -- learn-and-reach ---------------------------------------------------------

REACH_DELTA = 0.1
REACH_EPS = 0.3
HALVING = 0.6  # criterion 9: Hausdorff distance at 1e4 vs 1e2 samples
GP_INTERP_TOL = 1e-6
GP_FIELD_RMS = 0.05
J_SPRING = np.array([[0.0, 1.0], [-1.0, 0.0]])


class LearnAndReach:
    """Statistical results. Per round: sampled reachability of x+ = 0.5 x with
    the sample_hull template, three times at 1e2 samples and once at 1e4,
    each scored by Hausdorff distance to a dense image; a ball_union estimate
    at the sample-size bound N; a GP-PHS fit of a mass-spring field on 50
    stratified points plus two posteriors; and the bicycle-conformal demo.

    The three 1e2-sample queries put the reach median inside one query type,
    so it does not jump between types from run to run. The run seed drives
    the GP inputs and the demo; the reach queries are the same every round. GP inputs are one
    point per cell of a 7 x 7 grid plus one: on 50 free uniform draws the
    fitted field misses the 5% RMS target for about 1 seed in 8."""

    name = "learn-and-reach"
    light, heavy = "reach_query", "gp_fit"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.model = dyn.LinearMap(0.5 * np.eye(2))
        self.x0 = geom.Box([-1.0, -1.0], [1.0, 1.0])
        self.image = geom.Box([-0.5, -0.5], [0.5, 0.5])
        self.dense = geom.PointSet(_grid(self.image.lower, self.image.upper, 40))
        self.hull_sizes = (50, 500) if tiny else (100, 10_000)
        self.coarse_repeats = 1 if tiny else 3
        lip, diam = 0.5, 2.0 * np.sqrt(2.0)
        self.n_ball = reach.sample_size(REACH_EPS, REACH_DELTA, lip, diam, 2)
        self.gp_cells, self.gp_budget = (3, 4) if tiny else (7, 60)
        # ten points cannot recover the field to 5%; at tiny sizes the check
        # only asks for a better fit than the zero field
        self.field_rms = 1.0 if tiny else GP_FIELD_RMS
        self.gp_init = gpphs.PhsKernelParams(
            1.0, np.array([0.5, 0.5]), np.array([1.0]), np.zeros(3), np.array([])
        )
        self.gp_grid = _grid([-1.2, -1.2], [1.2, 1.2], 3 if tiny else 7)

    def round(self, r):
        rng = _rng(self.seed, r)
        # the same sampling seeds every round: hull queries cost from 0.2 to
        # 0.8 s depending on the sampled geometry, which moved the reach
        # median by half from run seed to run seed
        seeds = list(range(self.coarse_repeats))
        n_coarse, n_fine = self.hull_sizes
        coarse = []
        for seed in seeds:
            out = yield self._hull_op(n_coarse, seed, None)
            coarse.append(out)
        # the fine query reuses the first seed, for the Hausdorff ratio
        yield self._hull_op(n_fine, seeds[0], None if coarse[0] is FAILED else coarse[0][1])
        cfg = reach.ReachConfig(
            steps=1, template="ball_union", n_samples=self.n_ball, eps=REACH_EPS, delta=REACH_DELTA, seed=seeds[0]
        )
        yield Op("reach_query", partial(reach.reach_sampled, self.model, self.x0, cfg), _check_containment)

        w = 3.0 / self.gp_cells
        cells = _grid([-1.5, -1.5], [1.5 - w, 1.5 - w], self.gp_cells)
        X = np.vstack([cells + rng.uniform(0.0, w, size=cells.shape), rng.uniform(-1.5, 1.5, size=(1, 2))])
        data = gpphs.GpPhsDataset(X, X @ J_SPRING.T, np.zeros((X.shape[0], 0)))
        fitted = yield Op("gp_fit", partial(gpphs.fit, data, self.gp_init, self.gp_budget), _check_params)
        truth = self.gp_grid @ J_SPRING.T
        if fitted is not FAILED:
            yield Op("gp_posterior", partial(gpphs.posterior, fitted, data, self.gp_grid), partial(_check_field, truth, self.field_rms))
        # interpolation at the training points, with the well-conditioned prior
        yield Op("gp_posterior", partial(gpphs.posterior, self.gp_init, data, X), partial(_check_interp, data.derivs))
        yield Op("demo", partial(cli.demo, "bicycle-conformal", seed=int(rng.integers(2**31))), _check_demo)

    def _hull_op(self, n, seed, coarse):
        cfg = reach.ReachConfig(steps=1, template="sample_hull", n_samples=n, eps=0.0, seed=seed)
        return Op("reach_query", partial(self._hull_query, cfg), partial(self._check_hull, coarse))

    def _hull_query(self, cfg):
        res = reach.reach_sampled(self.model, self.x0, cfg)
        return res, geom.hausdorff(res.regions[-1], self.dense)

    def _check_hull(self, coarse, out):
        """Samples stay in the true image; with 100x the samples the Hausdorff
        distance to the dense image at least shrinks by HALVING (criterion 9)."""
        res, dist = out
        pts = res.regions[-1].points
        if np.any(pts < self.image.lower - 1e-12) or np.any(pts > self.image.upper + 1e-12):
            return "sampled hull leaves the true image"
        if not np.isfinite(dist) or dist <= 0.0:
            return f"Hausdorff distance {dist} to the dense image"
        if coarse is not None and dist > HALVING * coarse:
            return f"Hausdorff ratio {dist / coarse:.3f} > {HALVING} between sample counts"
        return None


def _check_containment(res):
    rate = res.metadata["fresh_containment"][-1]
    if rate < 1 - REACH_DELTA:
        return f"fresh containment {rate:.3f} < {1 - REACH_DELTA}"
    return None


def _check_params(params):
    theta = np.concatenate([[params.sigma_f], params.lengthscales, params.phi_j, params.phi_r])
    return None if np.all(np.isfinite(theta)) else "fit returned non-finite parameters"


def _check_field(truth, bound, out):
    mean, _ = out
    rel = float(np.sqrt(np.mean((mean - truth) ** 2)) / np.sqrt(np.mean(truth**2)))
    return None if rel <= bound else f"field relative RMS {rel:.4f} > {bound}"


def _check_interp(derivs, out):
    mean, _ = out
    err = float(np.max(np.abs(mean - derivs)))
    return None if err <= GP_INTERP_TOL else f"interpolation error {err:.3g} > {GP_INTERP_TOL}"


def _check_demo(out):
    """Coverage on the demo's 400 held-out points may fall short of 1 - delta
    by sampling error alone; a correct calibration falls below three binomial
    standard errors with probability about 1e-3. (The demo's own pass mark,
    1 - delta - 0.02, is missed by chance a few times in a hundred seeds.)"""
    report, _ = out
    delta = report["delta"]
    floor = 1 - delta - 3.0 * np.sqrt(delta * (1 - delta) / 400)
    cov = report["checks"][0]["coverage"]
    return None if cov >= floor else f"bicycle-conformal coverage {cov:.3f} < {floor:.3f}"


WORKLOADS = {w.name: w for w in (FilterLoop, CertifyNN, LearnAndReach)}

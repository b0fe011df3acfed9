"""Big-M encoding exactness and branch-and-bound verification of ReLU nets."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from certikit import geom, milp, nn
from certikit.errors import DimensionMismatch, NoConvergence, UnboundedRegion, UnsupportedActivation, UnsupportedModel
from helpers_oracles import arrangement_vertex_max, pattern_enumeration_max


def relu_net(layers, rng=None):
    ls = []
    for (W, b, act) in layers:
        ls.append(nn.Layer(np.asarray(W, dtype=float), np.asarray(b, dtype=float), act))
    return nn.Mlp(tuple(ls))


def test_single_relu_max():
    net = relu_net([([[1.0]], [0.0], "relu"), ([[1.0]], [0.0], "identity")])
    out = milp.maximize_output(net, geom.Box([-1.0], [2.0]))
    assert out.status == "Certified"
    assert out.bound == pytest.approx(2.0, abs=1e-6)
    assert out.counterexample is not None


def test_identity_from_two_relus():
    # relu(x) - relu(-x) == x; max over [-1, 2] is 2
    net = relu_net(
        [([[1.0], [-1.0]], [0.0, 0.0], "relu"), ([[1.0, -1.0]], [0.0], "identity")]
    )
    out = milp.maximize_output(net, geom.Box([-1.0], [2.0]))
    assert out.status == "Certified"
    assert out.bound == pytest.approx(2.0, abs=1e-6)


def test_encoding_rows_in_order():
    # x in [-1, 1]; hidden pre-activations x + 2 in [1, 3] (affine),
    # 2x + 0.5 in [-1.5, 2.5] (unstable) and x - 3 in [-4, -2] (fixed at 0);
    # output z0 - z1 + 2 z2 + 0.25 in [-1.25, 3.25]. v = (x, z0, z1, z2, u, beta)
    net = relu_net(
        [([[1.0], [2.0], [1.0]], [2.0, 0.5, -3.0], "relu"), ([[1.0, -1.0, 2.0]], [0.25], "identity")]
    )
    model = milp.encode_network(net, geom.Box([-1.0], [1.0]))
    A = [
        [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # z0 - x <= 2
        [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],  # -z0 + x <= -2
        [2.0, 0.0, -1.0, 0.0, 0.0, 0.0],  # -z1 + 2x <= -0.5
        [-2.0, 0.0, 1.0, 0.0, 0.0, 1.5],  # z1 - 2x + 1.5 beta <= 0.5 + 1.5
        [0.0, 0.0, 1.0, 0.0, 0.0, -2.5],  # z1 - 2.5 beta <= 0
        [0.0, -1.0, 1.0, -2.0, 1.0, 0.0],  # u - (z0 - z1 + 2 z2) <= 0.25
        [0.0, 1.0, -1.0, 2.0, -1.0, 0.0],  # -u + (z0 - z1 + 2 z2) <= -0.25
    ]
    np.testing.assert_array_equal(model.A, A)
    np.testing.assert_array_equal(model.b, [2.0, -2.0, -0.5, 2.0, 0.0, 0.25, -0.25])
    np.testing.assert_array_equal(model.lo, [-1.0, 1.0, 0.0, 0.0, -1.25, 0.0])
    np.testing.assert_array_equal(model.hi, [1.0, 3.0, 2.5, 0.0, 3.25, 1.0])
    np.testing.assert_array_equal(model.binary_idx, [5])
    assert model.binary_neuron == [(0, 1)] and model.out_idx == 4


def test_encoding_exact_on_forward_assignments():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(5, 2)), rng.normal(size=5), "relu"),
                nn.Layer(rng.normal(size=(3, 5)), rng.normal(size=3), "relu"),
                nn.Layer(rng.normal(size=(1, 3)), rng.normal(size=1), "identity"),
            )
        )
        box = geom.Box([-1.0, -1.0], [1.0, 1.0])
        model = milp.encode_network(net, box)
        for x in geom.sample_region(box, 20, rng):
            v = milp.assignment_for(model, x)
            assert milp.model_violation(model, v) <= 1e-9
            assert v[model.out_idx] == pytest.approx(float(nn.forward(net, x)[0]))


def test_matches_activation_pattern_oracle():
    rng = np.random.default_rng(1)
    for _ in range(8):
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(4, 2)), rng.normal(size=4), "relu"),
                nn.Layer(rng.normal(size=(1, 4)), rng.normal(size=1), "identity"),
            )
        )
        box = geom.Box([-1.0, -1.0], [1.0, 1.0])
        out = milp.maximize_output(net, box, tol=1e-6)
        assert out.status == "Certified"
        oracle, _ = pattern_enumeration_max(net, box)
        assert abs(out.bound - oracle) <= 1e-5 * (1 + abs(oracle))


def _random_1x8(rng, n_in):
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(8, n_in)), rng.normal(size=8), "relu"),
            nn.Layer(rng.normal(size=(1, 8)), rng.normal(size=1), "identity"),
        )
    )
    lo = rng.uniform(-2.0, 0.0, n_in)
    return net, geom.Box(lo, lo + rng.uniform(0.5, 2.0, n_in))


def test_certified_bound_never_below_exact_max():
    # 1-8-1 and 2-8-1 nets: a Certified bound must hold to rounding, well
    # below the LP solver's own tolerances. The exact max comes from the kink
    # arrangement; every 15th seed also checks it against the LP enumeration.
    for s in range(90):
        rng = np.random.default_rng(1000 + s)
        for n_in in (1, 2):
            net, box = _random_1x8(rng, n_in)
            out = milp.maximize_output(net, box)
            oracle, _ = arrangement_vertex_max(net, box)
            if s % 15 == 0:
                lp_max, _ = pattern_enumeration_max(net, box)
                assert abs(oracle - lp_max) <= 1e-9 * (1 + abs(lp_max))
            assert out.status == "Certified"
            assert out.bound >= oracle - 1e-12


def test_dual_bound_valid_for_perturbed_multipliers():
    rng = np.random.default_rng(7)
    for _ in range(12):
        net, box = _random_1x8(rng, int(rng.integers(1, 3)))
        model = milp.encode_network(net, box)
        res = linprog(
            -model.objective,
            A_ub=model.A,
            b_ub=model.b,
            bounds=np.column_stack([model.lo, model.hi]),
            method="highs",
        )
        y = np.maximum(-res.ineqlin.marginals, 0.0)
        truncated = y.copy()
        truncated[rng.random(y.size) < 0.3] = 0.0
        oracle, _ = pattern_enumeration_max(net, box)
        for yp in (
            y,
            3.0 * y,
            np.maximum(y + 1e-3 * rng.normal(size=y.size), 0.0),
            truncated,
            np.round(y, 3),
            y.astype(np.float32).astype(float),
        ):
            bound = milp.dual_bound(model.objective, model.A, model.b, model.lo, model.hi, yp)
            assert bound >= oracle - 1e-12


def _contradicting_node():
    # relu(x - 0.5) and relu(-x - 0.5) cannot both be active on [-1, 1]
    net = relu_net(
        [([[1.0], [-1.0]], [-0.5, -0.5], "relu"), ([[1.0, 1.0]], [0.0], "identity")]
    )
    model = milp.encode_network(net, geom.Box([-1.0], [1.0]))
    assert model.binary_idx.size == 2
    lo, hi = model.lo.copy(), model.hi.copy()
    lo[model.binary_idx] = 1.0
    return net, model, lo, hi


def _infeasible_proof(model, lo, hi, y):
    return milp.dual_bound(np.zeros(model.n_vars), model.A, model.b, lo, hi, y)


def test_contradicting_binaries_prune_node(monkeypatch):
    net, model, lo, hi = _contradicting_node()
    elastic = milp._elastic_lp

    def no_elastic(*args):
        raise AssertionError("the HiGHS ray should prune this node")

    monkeypatch.setattr(milp, "_elastic_lp", no_elastic)
    lp = milp._NodeLp(model)
    assert lp.solve(lo, hi) is None
    ray = lp.farkas_ray()
    assert ray is not None
    assert _infeasible_proof(model, lo, hi, np.maximum(-ray, 0.0)) < 0
    y, _ = elastic(model, lo, hi)
    assert _infeasible_proof(model, lo, hi, y) < 0
    monkeypatch.setattr(milp, "_elastic_lp", elastic)
    out = milp.maximize_output(net, geom.Box([-1.0], [1.0]))
    assert out.status == "Certified"
    assert out.bound == pytest.approx(0.5, abs=1e-9)


def test_warm_started_contradicting_node_pruned_by_ray(monkeypatch):
    # the contradicting node solved from the feasible root's basis, not cold
    def no_elastic(*args):
        raise AssertionError("the HiGHS ray should prune this node")

    monkeypatch.setattr(milp, "_elastic_lp", no_elastic)
    _, model, lo, hi = _contradicting_node()
    lp = milp._NodeLp(model)
    root = lp.solve(model.lo, model.hi)
    assert root is not None
    assert lp.solve(lo, hi, root[2]) is None
    ray = lp.farkas_ray()
    assert ray is not None
    assert _infeasible_proof(model, lo, hi, np.maximum(-ray, 0.0)) < 0


@pytest.mark.parametrize("ray", ["none", "zero"])
def test_elastic_lp_prunes_when_the_ray_fails(monkeypatch, ray):
    _, model, lo, hi = _contradicting_node()
    calls = []
    elastic = milp._elastic_lp

    def counted(*args):
        calls.append(args)
        return elastic(*args)

    monkeypatch.setattr(milp, "_elastic_lp", counted)
    monkeypatch.setattr(milp._NodeLp, "farkas_ray", lambda self: None if ray == "none" else np.zeros(model.A.shape[0]))
    lp = milp._NodeLp(model)
    assert lp.solve(lo, hi) is None
    assert len(calls) == 1
    assert lp.solve(model.lo, model.hi) is not None  # a feasible node asks for neither
    assert len(calls) == 1


def test_failed_ray_never_prunes(monkeypatch):
    # the true ray negated, then zero multipliers from the elastic LP: neither
    # proves the node empty, so it must stay open with a valid bound
    _, model, lo, hi = _contradicting_node()
    lp = milp._NodeLp(model)
    assert lp.solve(lo, hi) is None
    flipped = -lp.farkas_ray()
    assert _infeasible_proof(model, lo, hi, np.maximum(-flipped, 0.0)) >= 0
    monkeypatch.setattr(milp._NodeLp, "farkas_ray", lambda self: flipped)
    monkeypatch.setattr(milp, "_elastic_lp", lambda m, lo, hi: (np.zeros(m.A.shape[0]), lo.copy()))
    out = milp._NodeLp(model).solve(lo, hi)
    assert out is not None
    assert out[0] == milp.dual_bound(model.objective, model.A, model.b, lo, hi, np.zeros(model.A.shape[0]))


def _linprog_node(model, lo, hi):
    """(optimum, dual_bound of its multipliers) of the node LP through scipy's
    linprog, or None when linprog finds it infeasible and the elastic LP
    proves that."""
    c, A, b = model.objective, model.A, model.b
    res = linprog(-c, A_ub=A, b_ub=b, bounds=np.column_stack([lo, hi]), method="highs")
    if res.status == 0:
        return -res.fun, milp.dual_bound(c, A, b, lo, hi, np.maximum(-res.ineqlin.marginals, 0.0))
    assert res.status == 2, res.message
    y, _ = milp._elastic_lp(model, lo, hi)
    assert _infeasible_proof(model, lo, hi, y) < 0
    return None


SQUARE = geom.Box([-1.0, -1.0], [1.0, 1.0])


def _criterion_1_searches(count=50):
    """(net, box) pairs drawn as acceptance criterion 1 draws them."""
    rng = np.random.default_rng(11)
    searches = []
    for _ in range(count):
        n_in, h = int(rng.integers(1, 3)), int(rng.integers(2, 9))
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(h, n_in)), rng.normal(size=h), "relu"),
                nn.Layer(rng.normal(size=(1, h)), rng.normal(size=1), "identity"),
            )
        )
        lo = rng.uniform(-2.0, 0.0, n_in)
        searches.append((net, geom.Box(lo, lo + rng.uniform(0.5, 2.0, n_in))))
    return searches


def _medium_net(seed):
    r = np.random.default_rng(seed)
    return nn.Mlp(
        (
            nn.Layer(r.normal(size=(6, 2)), r.normal(size=6), "relu"),
            nn.Layer(r.normal(size=(6, 6)) / np.sqrt(6), r.normal(size=6), "relu"),
            nn.Layer(r.normal(size=(1, 6)), r.normal(size=1), "identity"),
        )
    )


def test_warm_node_lps_bracketed_by_linprog(monkeypatch):
    # every node the search visits, each solved from its parent's basis, is
    # pruned exactly when a cold linprog(method="highs") finds the same LP
    # infeasible; otherwise its bound lies between linprog's optimum and
    # linprog's checked bound, up to 1e-9 relative. Nets as in criterion 1
    # and two 2-6-6-1 nets, each searched for its maximum and its minimum
    visited = []
    solve = milp._NodeLp.solve

    def recorded(self, lo, hi, basis=None):
        out = solve(self, lo, hi, basis)
        visited.append((self.model, lo.copy(), hi.copy(), out))
        return out

    monkeypatch.setattr(milp._NodeLp, "solve", recorded)
    for net, box in _criterion_1_searches(30):
        milp.maximize_output(net, box)
        milp.verify_positivity(net, box)
    for seed in (1002, 1005):
        milp.maximize_output(_medium_net(seed), SQUARE)
        milp.verify_positivity(_medium_net(seed), SQUARE)
    pruned = 0
    for model, lo, hi, out in visited:
        ref = _linprog_node(model, lo, hi)
        if ref is None:
            assert out is None
            pruned += 1
        else:
            optimum, checked = ref
            assert out is not None
            assert out[0] >= optimum - 1e-9 * (1 + abs(optimum))
            assert out[0] <= checked + 1e-9 * (1 + abs(checked))
    assert len(visited) > 100 and pruned > 0  # 144 and 4 with scipy 1.17


def _outcome_bits(out):
    """A VerifyOutcome with its floats as bytes, so == compares bit for bit."""
    x = None if out.counterexample is None else out.counterexample.tobytes()
    return out.status, np.float64(out.bound).tobytes(), np.float64(out.gap).tobytes(), out.nodes_explored, x


def _fresh_outcome(net, box):
    """The search's outcome on a newly built HiGHS object."""
    milp._idle.highs.clear()
    out = _outcome_bits(milp.maximize_output(net, box))
    milp._idle.highs.clear()
    return out


def test_reused_highs_object_changes_no_outcome():
    # 102 searches in one thread, forward and then reversed, all on one
    # HiGHS object, each ending bit for bit as it does on a fresh object
    searches = _criterion_1_searches() + [(_medium_net(1002), SQUARE)]
    fresh = [_fresh_outcome(net, box) for net, box in searches]
    order = list(range(len(searches)))
    for i in order + order[::-1]:
        assert _outcome_bits(milp.maximize_output(*searches[i])) == fresh[i]
    assert len(milp._idle.highs) == 1


def test_live_node_lps_hold_different_highs_objects():
    _, model, _, _ = _contradicting_node()
    milp._idle.highs.clear()
    first, second = milp._NodeLp(model), milp._NodeLp(model)
    assert first._highs is not second._highs
    held = second._highs
    first.release()
    second.release()
    assert len(milp._idle.highs) == 2
    assert milp._NodeLp(model)._highs is held  # the last one given back is lent first
    milp._idle.highs.clear()


def test_search_that_raises_gives_its_highs_object_back(monkeypatch):
    net = _medium_net(1002)
    fresh = _fresh_outcome(net, SQUARE)
    status = highs._Highs.getModelStatus
    calls = []

    def fails_third_solve(h):
        calls.append(h)
        return highs.HighsModelStatus.kSolveError if len(calls) == 3 else status(h)

    monkeypatch.setattr(highs._Highs, "getModelStatus", fails_third_solve)
    with pytest.raises(NoConvergence, match="node LP"):
        milp.maximize_output(net, SQUARE)
    monkeypatch.undo()
    assert len(calls) == 3 and len(milp._idle.highs) == 1
    held = milp._idle.highs[0]
    assert held is calls[0]
    assert _outcome_bits(milp.maximize_output(net, SQUARE)) == fresh
    assert len(milp._idle.highs) == 1 and milp._idle.highs[0] is held


def test_threads_searching_at_once_match_serial_outcomes():
    # four threads on different nets at once, switching often: each keeps its
    # own HiGHS object and every outcome equals the serial one
    jobs = [
        [(_medium_net(seed), SQUARE) for seed in (1002, 1005, 1006)] * 2,
        _criterion_1_searches(20) * 2,
        [(_medium_net(seed), SQUARE) for seed in (1003, 1000)] * 2,
        _criterion_1_searches(50)[30:] * 2,
    ]
    serial = [[_fresh_outcome(net, box) for net, box in searches] for searches in jobs]
    start = threading.Barrier(len(jobs))

    def run(searches):
        start.wait(timeout=60)
        outcomes = [_outcome_bits(milp.maximize_output(net, box)) for net, box in searches]
        return outcomes, list(milp._idle.highs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            results = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [outcomes for outcomes, _ in results] == serial
    idle = [id(h) for _, held in results for h in held]
    assert len(idle) == len(jobs) == len(set(idle))  # one object per thread


def _net_2_16_16_1(seed):
    r = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in ((2, 16, "relu"), (16, 16, "relu"), (16, 1, "identity")):
        layers.append(nn.Layer(r.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in), 0.1 * r.normal(size=fan_out), act))
    return nn.Mlp(tuple(layers))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_2_16_16_1_nets_certified_within_sampled_max(seed):
    # about 800 to 1100 nodes each. The bound is at least the maximum over 1e5
    # uniform samples and the witness, and at most that maximum plus the gap;
    # the witness is needed because the sampled maximum alone falls short of
    # the exact maximum by 1.5e-4 to 3.4e-4
    net = _net_2_16_16_1(seed)
    box = geom.Box([-1.0, -1.0], [1.0, 1.0])
    out = milp.maximize_output(net, box, node_budget=2000)
    assert out.status == "Certified"
    assert np.all(box.lower <= out.counterexample) and np.all(out.counterexample <= box.upper)
    xs = np.random.default_rng(100 + seed).uniform(-1.0, 1.0, size=(100_000, 2))
    sampled = max(float(np.max(nn.forward(net, xs))), float(nn.forward(net, out.counterexample)[0]))
    assert sampled <= out.bound <= sampled + out.gap


def test_hpolytope_region():
    # x0 + x1 <= 1 inside the unit box; maximize x0 + x1 via a linear net
    net = relu_net([([[1.0, 1.0]], [0.0], "identity")])
    region = geom.HPolytope(
        np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([1.0, 1.0, 1.0, 1.0, 1.0]),
    )
    out = milp.maximize_output(net, region)
    assert out.bound == pytest.approx(1.0, abs=1e-5)


def test_unbounded_region_rejected():
    net = relu_net([([[1.0]], [0.0], "identity")])
    with pytest.raises(UnboundedRegion):
        milp.maximize_output(net, geom.HPolytope(np.array([[1.0]]), np.array([1.0])))


def test_empty_polytope_region_rejected():
    net = relu_net([([[1.0]], [0.0], "identity")])
    with pytest.raises(ValueError, match="empty"):
        milp.maximize_output(net, geom.HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])))


def test_unsupported_activation_rejected():
    net = relu_net([([[1.0]], [0.0], "sigmoid")])
    with pytest.raises(UnsupportedActivation):
        milp.encode_network(net, geom.Box([0.0], [1.0]))


def test_verify_positivity_falsified_with_witness():
    # f(x) = x over [-1, 1]: min is -1 at x = -1
    net = relu_net(
        [([[1.0], [-1.0]], [0.0, 0.0], "relu"), ([[1.0, -1.0]], [0.0], "identity")]
    )
    out = milp.verify_positivity(net, geom.Box([-1.0], [1.0]))
    assert out.status == "Falsified"
    assert out.counterexample is not None
    assert float(nn.forward(net, out.counterexample)[0]) < 0
    assert out.counterexample[0] == pytest.approx(-1.0, abs=1e-5)


def test_verify_positivity_certified():
    # f(x) = relu(x) + relu(-x) + 0.5 = |x| + 0.5 > 0
    net = relu_net(
        [([[1.0], [-1.0]], [0.0, 0.0], "relu"), ([[1.0, 1.0]], [0.5], "identity")]
    )
    out = milp.verify_positivity(net, geom.Box([-1.0], [1.0]))
    assert out.status == "Certified"
    assert out.bound == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize(
    "layers",
    [
        [([[1.0]], [0.0], "relu"), ([[1.0]], [0.0], "identity")],
        [([[1.0], [-1.0]], [0.0, 0.0], "relu"), ([[1.0, 1.0]], [0.0], "identity")],
    ],
    ids=["relu", "abs"],
)
def test_verify_positivity_zero_minimum_not_falsified(layers):
    # f = relu(x) and f = |x| reach their minimum 0 at x = 0; the bound may
    # land a few ulps below 0, but no witness has f < 0
    net = relu_net(layers)
    out = milp.verify_positivity(net, geom.Box([-1.0], [1.0]))
    assert out.status in ("Certified", "BoundOnly")
    assert out.bound == pytest.approx(0.0, abs=1e-9)


def test_verify_positivity_falsified_only_by_negative_witness():
    # random 2-4-1 nets; with nonnegative output weights and zero output bias
    # f >= 0 everywhere, so no verdict may be Falsified
    box = geom.Box([-1.0, -1.0], [1.0, 1.0])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        W2, b2 = rng.normal(size=(1, 4)), rng.normal(size=1)
        nonneg = seed % 2 == 0
        if nonneg:
            W2, b2 = np.abs(W2), np.zeros(1)
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(4, 2)), rng.normal(size=4), "relu"),
                nn.Layer(W2, b2, "identity"),
            )
        )
        out = milp.verify_positivity(net, box)
        if out.status == "Falsified":
            assert float(nn.forward(net, out.counterexample)[0]) < 0
        assert not (nonneg and out.status == "Falsified")


def test_verify_positivity_with_exclude():
    # f(x) = |x| is zero only at the origin; excluding a neighborhood certifies
    net = relu_net(
        [([[1.0], [-1.0]], [0.0, 0.0], "relu"), ([[1.0, 1.0]], [0.0], "identity")]
    )
    out = milp.verify_positivity(
        net, geom.Box([-1.0], [1.0]), exclude=geom.Box([-0.1], [0.1])
    )
    assert out.status == "Certified"
    assert out.bound == pytest.approx(0.1, abs=1e-5)


def test_exclude_outside_the_region_changes_nothing():
    # f(x) = 1 - x on [0, 0.9] has minimum 0.1; x = 2 lies outside the region
    net = relu_net([([[-1.0]], [1.0], "identity")])
    region = geom.Box([0.0], [0.9])
    for exclude in (None, geom.Box([2.0], [3.0]), geom.Box([-3.0], [-2.0])):
        out = milp.verify_positivity(net, region, exclude=exclude)
        assert out.status == "Certified" and out.counterexample is None
        assert out.bound == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(DimensionMismatch):
        milp.verify_positivity(net, region, exclude=geom.Box([0.0, 0.0], [0.1, 0.1]))


def test_exclude_witnesses_lie_in_the_region_outside_the_exclude_box():
    rng = np.random.default_rng(3)
    falsified = 0
    for _ in range(12):
        net = nn.Mlp(
            (
                nn.Layer(rng.normal(size=(6, 2)), rng.normal(size=6), "relu"),
                nn.Layer(rng.normal(size=(1, 6)), rng.normal(size=1) - 0.5, "identity"),
            )
        )
        region = geom.Box([-1.0, -1.0], [1.0, 1.0])
        # centres up to 2.5 from the origin: some boxes overlap the region,
        # some lie beside it on one axis or both
        c, r = rng.uniform(-2.5, 2.5, 2), rng.uniform(0.1, 1.0, 2)
        exclude = geom.Box(c - r, c + r)
        out = milp.verify_positivity(net, region, exclude=exclude)
        X = geom.sample_region(region, 2000, rng)
        X = X[~np.all((X > exclude.lower) & (X < exclude.upper), axis=1)]
        assert out.bound <= nn.forward(net, X)[:, 0].min() + 1e-9
        if out.counterexample is not None:
            x = out.counterexample
            assert np.all((x >= region.lower) & (x <= region.upper))
            assert not np.all((x > exclude.lower) & (x < exclude.upper))
            falsified += out.status == "Falsified"
    assert falsified >= 3


def test_node_budget_gives_bound_only():
    rng = np.random.default_rng(5)
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(8, 2)), rng.normal(size=8), "relu"),
            nn.Layer(rng.normal(size=(1, 8)), rng.normal(size=1), "identity"),
        )
    )
    out = milp.maximize_output(net, geom.Box([-2, -2], [2, 2]), node_budget=1)
    full = milp.maximize_output(net, geom.Box([-2, -2], [2, 2]))
    assert out.bound + 1e-9 >= full.bound  # budget bound stays valid
    if out.status == "BoundOnly":
        assert out.gap > 0


def test_decrease_net_computes_difference():
    rng = np.random.default_rng(6)
    v = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(4, 2)), rng.normal(size=4), "relu"),
            nn.Layer(rng.normal(size=(1, 4)), rng.normal(size=1), "identity"),
        )
    )
    A = np.array([[0.5, 0.1], [0.0, 0.5]])
    dnet = milp.decrease_mlp(v, A)
    assert len(dnet.layers) == len(v.layers)  # the difference is fused into V's last layer
    for x in rng.normal(size=(20, 2)):
        expected = float(nn.forward(v, x)[0]) - float(nn.forward(v, A @ x)[0])
        assert float(nn.forward(dnet, x)[0]) == pytest.approx(expected, abs=1e-9)


def test_decrease_net_rejects_smooth_activations():
    v = nn.Mlp((nn.Layer(np.eye(2), np.zeros(2), "sigmoid"),))
    with pytest.raises(UnsupportedModel):
        milp.decrease_mlp(v, np.eye(2))


def test_lp_export_contains_binaries():
    net = relu_net([([[1.0]], [0.0], "relu"), ([[1.0]], [0.0], "identity")])
    model = milp.encode_network(net, geom.Box([-1.0], [1.0]))
    text = milp.export_lp_text(model)
    assert text.startswith("Maximize")
    assert "Binary" in text and "End" in text
    assert "Bounds\n -1 <= v0 <= 1\n" in text


def test_lp_export_reads_back_exactly(tmp_path):
    # HiGHS's own LP reader recovers every number of the encoding bit for bit
    model = milp.encode_network(_medium_net(1002), SQUARE)
    path = tmp_path / "model.lp"
    path.write_text(milp.export_lp_text(model))
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == highs.HighsStatus.kOk
    lp = h.getLp()
    assert lp.a_matrix_.format_ == highs.MatrixFormat.kColwise
    assert list(lp.row_names_) == [f"c{r}" for r in range(model.A.shape[0])]
    col = np.array([int(name[1:]) for name in lp.col_names_])  # file column k is variable col[k]
    assert sorted(col) == list(range(model.n_vars))
    A = np.zeros_like(model.A)
    start = np.asarray(lp.a_matrix_.start_)
    for k in range(lp.num_col_):
        rows = np.asarray(lp.a_matrix_.index_[start[k] : start[k + 1]])
        A[rows, col[k]] = np.asarray(lp.a_matrix_.value_[start[k] : start[k + 1]])
    assert np.array_equal(A, model.A)
    assert np.array_equal(np.asarray(lp.row_upper_), model.b)
    assert np.all(np.asarray(lp.row_lower_) == -np.inf)
    assert lp.sense_ == highs.ObjSense.kMaximize
    assert np.array_equal(np.asarray(lp.col_cost_), model.objective[col])
    assert np.array_equal(np.asarray(lp.col_lower_), model.lo[col])
    assert np.array_equal(np.asarray(lp.col_upper_), model.hi[col])
    binary = np.asarray(lp.integrality_) == highs.HighsVarType.kInteger
    assert np.array_equal(np.sort(col[binary]), model.binary_idx)

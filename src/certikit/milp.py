"""MILP-representable verification of ReLU networks via big-M encoding and
native best-first branch-and-bound with LP-relaxation bounds.

The encoding is exact: a point (x, u) satisfies the model for some binary
assignment iff u = net(x). Per-neuron big-M constants come from interval
bound propagation, so the LP relaxations stay tight; neurons whose
preactivation sign is fixed over the region are encoded affinely with no
binary variable. The variables are v = (x, z_1, ..., z_L, beta): the inputs,
each layer's outputs, then one binary per unstable ReLU in (layer, neuron)
order. The rows A v <= b are a polytope region's rows, then each neuron's in
turn, with p the previous layer's outputs and [l, u] the neuron's IBP
pre-activation bounds: an affine neuron (identity, or ReLU with l >= 0)
z = w.p + c gives z - w.p <= c and -z + w.p <= -c; an unstable ReLU
(l < 0 < u) gives -z + w.p <= -c, z - w.p - l beta <= c - l and
z - u beta <= 0; a ReLU fixed at 0 (u <= 0) gives no row.

Node LPs are solved by HiGHS's dual simplex with presolve off, with one
HiGHS object per thread, one model per search: a search borrows a configured
object from its thread's free list (a new one only when the list is empty)
and gives it back when it ends, even by an exception. Passing the search's
model to the object clears the last search's basis and solution, so the root
solves cold; each child changes only the column bounds and starts from its
parent's final basis, usually a few pivots from its own optimum. No node
bound trusts the solver's optimum: each bound is recomputed in floating
point from the row multipliers by the safe dual rule of Neumaier &
Shcherbina (Math. Prog. 2004), which holds for any nonnegative multipliers,
so an inexact solve can only loosen it. An infeasible node is pruned only by
a checked Farkas ray: HiGHS's dual ray, or failing that the multipliers of
an elastic LP, must give a dual bound below 0 with a zero objective.
"""

import heapq
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from . import geom, nn, reach
from .errors import DimensionMismatch, NoConvergence, UnboundedRegion, UnsupportedActivation, UnsupportedModel

__all__ = [
    "MilpModel",
    "VerifyOutcome",
    "dual_bound",
    "encode_network",
    "maximize_output",
    "verify_positivity",
    "decrease_mlp",
    "export_lp_text",
]


@dataclass
class MilpModel:
    A: np.ndarray  # one-sided constraint rows, A v <= b
    b: np.ndarray
    lo: np.ndarray  # finite variable box, lo <= v <= hi
    hi: np.ndarray
    objective: np.ndarray  # maximize objective . v
    n_vars: int
    x_idx: np.ndarray
    out_idx: int
    binary_idx: np.ndarray  # variable indices of activation indicators
    binary_neuron: list  # (layer, neuron) per binary
    net: nn.Mlp
    box: geom.Box  # bounding box of the input region


def _region_box(region):
    if isinstance(region, geom.Box):
        return region
    if isinstance(region, geom.HPolytope):
        n = region.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            c = np.zeros(n)
            c[i] = 1.0
            smin = linprog(c, A_ub=region.A, b_ub=region.b, bounds=(None, None), method="highs")
            smax = linprog(-c, A_ub=region.A, b_ub=region.b, bounds=(None, None), method="highs")
            if smin.status == 3 or smax.status == 3:
                raise UnboundedRegion("polytope region is unbounded")
            if smin.status == 2:
                raise ValueError("polytope region is empty")
            if smin.status != 0 or smax.status != 0:
                raise NoConvergence(f"polytope bounding box LP: {smin.message} / {smax.message}")
            lo[i], hi[i] = smin.x[i], smax.x[i]
            if hi[i] - lo[i] > 1e8:
                raise UnboundedRegion("polytope region is unbounded or too large")
        return geom.Box(lo - 1e-9, hi + 1e-9)
    raise TypeError(f"region must be Box or HPolytope, got {type(region).__name__}")


def encode_network(net: nn.Mlp, region) -> MilpModel:
    """Big-M MILP encoding of u = net(x) for x in a bounded region (layout: module docstring)."""
    for layer in net.layers:
        if layer.activation not in ("relu", "identity"):
            raise UnsupportedActivation(layer.activation)
    box = _region_box(region)
    if box.dim != net.in_dim:
        raise ValueError("region dimension must match network input")
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise UnboundedRegion("region must be bounded")
    pre_bounds = reach.network_preactivation_bounds(net, box)

    # rows per neuron: 2 if affine, 3 if an unstable ReLU (one binary), 0 if a ReLU fixed at 0
    n_rows = [
        np.where((layer.activation == "identity") | (lb >= 0), 2, np.where(ub > 0, 3, 0)).tolist()
        for layer, (lb, ub) in zip(net.layers, pre_bounds)
    ]
    binaries = [(li, j) for li, k in enumerate(n_rows) for j, kj in enumerate(k) if kj == 3]
    n0 = net.in_dim
    r = region.A.shape[0] if isinstance(region, geom.HPolytope) else 0  # next row to fill
    beta = n0 + sum(map(len, n_rows))  # first binary
    nv = beta + len(binaries)
    A = np.zeros((r + sum(map(sum, n_rows)), nv))
    b = np.empty(A.shape[0])
    lo, hi = np.zeros(nv), np.ones(nv)  # binaries keep [0, 1]
    lo[:n0], hi[:n0] = box.lower, box.upper
    if r:
        A[:r, :n0], b[:r] = region.A, region.b
    prev = slice(0, n0)
    for layer, (lb, ub), rows in zip(net.layers, pre_bounds, n_rows):
        z = slice(prev.stop, prev.stop + len(rows))
        if layer.activation == "identity":
            lo[z], hi[z] = lb, ub
        else:  # as Python's max(lb, 0.0), which keeps a -0.0 bound that np.maximum makes +0.0
            lo[z], hi[z] = np.where(lb < 0, 0.0, lb), np.where(ub < 0, 0.0, ub)
        for j, zj in enumerate(range(z.start, z.stop)):
            w, bj = layer.W[j], layer.b[j]
            if rows[j] == 2:
                A[r : r + 2, zj] = 1.0, -1.0
                A[r, prev], A[r + 1, prev] = -w, w
                b[r : r + 2] = bj, -bj
            elif rows[j] == 3:
                A[r : r + 3, zj] = -1.0, 1.0, 1.0
                A[r, prev], A[r + 1, prev] = w, -w
                A[r + 1 : r + 3, beta] = -lb[j], -ub[j]
                b[r : r + 3] = -bj, bj - lb[j], 0.0
                beta += 1
            r += rows[j]
        prev = z
    obj = np.zeros(nv)
    obj[prev.start] = 1.0
    return MilpModel(
        A=A, b=b, lo=lo, hi=hi, objective=obj, n_vars=nv, x_idx=np.arange(n0), out_idx=prev.start,
        binary_idx=np.arange(nv - len(binaries), nv), binary_neuron=binaries, net=net, box=box,
    )


def assignment_for(model: MilpModel, x) -> np.ndarray:
    """Full variable vector (x, z, beta) read off from an actual forward pass."""
    x = np.asarray(x, dtype=float).ravel()
    v = np.zeros(model.n_vars)
    v[model.x_idx] = x
    z = x
    pos = model.x_idx.size
    pre_by_layer = []
    for layer in model.net.layers:
        a = layer.W @ z + layer.b
        pre_by_layer.append(a)
        z = np.maximum(a, 0.0) if layer.activation == "relu" else a
        v[pos : pos + z.size] = z
        pos += z.size
    for k, (li, j) in enumerate(model.binary_neuron):
        v[model.binary_idx[k]] = 1.0 if pre_by_layer[li][j] > 0 else 0.0
    return v


def model_violation(model: MilpModel, v) -> float:
    excess = np.concatenate([model.A @ v - model.b, model.lo - v, v - model.hi])
    return float(np.max(excess, initial=0.0))


@dataclass
class VerifyOutcome:
    status: str  # Certified | Falsified | BoundOnly
    bound: float
    counterexample: np.ndarray | None
    nodes_explored: int
    gap: float


def dual_bound(c, A, b, lo, hi, y) -> float:
    """Upper bound on max c.v s.t. A v <= b, lo <= v <= hi, valid for any
    multipliers y >= 0: c.v <= y.b + sum_j max(r_j lo_j, r_j hi_j) with
    r = c - A'y, plus a bound on the rounding error of that sum."""
    r = c - A.T @ y
    terms = np.concatenate([y * b, np.maximum(r * lo, r * hi)])
    scale = np.abs(terms).sum() + (np.abs(c) + np.abs(A).T @ y) @ np.maximum(np.abs(lo), np.abs(hi))
    gamma = 2 * (A.size + terms.size) * np.finfo(float).eps
    return float(terms.sum() + gamma * scale)


def _elastic_lp(model: MilpModel, lo, hi):
    """min 1's s.t. A v - s <= b, s >= 0: row multipliers y in [0, 1] whose
    dual_bound with c = 0 is below 0 prove the node infeasible."""
    m, n = model.A.shape
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(m)]),
        A_ub=np.hstack([model.A, -np.eye(m)]),
        b_ub=model.b,
        bounds=np.vstack([np.column_stack([lo, hi]), np.column_stack([np.zeros(m), np.full(m, np.inf)])]),
        method="highs",
    )
    if res.status != 0:
        raise NoConvergence(f"elastic node LP: {res.message}")
    return np.maximum(-res.ineqlin.marginals, 0.0), res.x[:n]


# dual simplex (simplex_strategy 1) without presolve, so that a node starts
# from the basis it is given; no matrix entry is rejected as too large, since
# every bound is recomputed by dual_bound
_HIGHS_OPTIONS = {
    "presolve": "off",
    "highs_debug_level": 0,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": 1,
    "large_matrix_value": np.inf,
}


class _IdleHighs(threading.local):
    """Per thread, .highs lists the configured HiGHS objects no search holds."""

    def __init__(self):
        self.highs = []


_idle = _IdleHighs()


def _borrow_highs():
    if _idle.highs:
        return _idle.highs.pop()
    h = highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        if h.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise NoConvergence(f"node LP: HiGHS rejected option {key}={value!r}")
    return h


class _NodeLp:
    """The LP relaxation max c.v s.t. A v <= b, lo <= v <= hi of one model as
    a single HiGHS model on a borrowed HiGHS object; nodes change only its
    column bounds. release() gives the object back to the thread's free list."""

    def __init__(self, model: MilpModel):
        self.model = model
        m, n = model.A.shape
        # A column-wise without zeros, as scipy.sparse.csc_array(A) stores it
        cols, rows = np.nonzero(model.A.T)
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(n + 1))
        lp.a_matrix_.index_ = rows
        lp.a_matrix_.value_ = model.A.T[cols, rows]
        lp.col_cost_ = -model.objective
        lp.col_lower_ = model.lo
        lp.col_upper_ = model.hi
        lp.row_lower_ = np.full(m, -np.inf)
        lp.row_upper_ = model.b
        self._highs = _borrow_highs()
        if self._highs.passModel(lp) == highs.HighsStatus.kError:  # the object is dropped
            raise NoConvergence(
                f"node LP: HiGHS rejected the model (largest |coefficient| {np.abs(model.A).max(initial=0.0):.3g})"
            )
        self._cols = np.arange(n, dtype=np.int32)

    def release(self):
        """Give the HiGHS object back to this thread's free list; the node LP
        cannot solve after this."""
        _idle.highs.append(self._highs)
        self._highs = None

    def farkas_ray(self):
        """HiGHS's dual ray of the last (infeasible) solve, or None."""
        _, has_ray, ray = self._highs.getDualRay()
        return np.asarray(ray) if has_ray else None

    def solve(self, lo, hi, basis=None):
        """(checked upper bound, LP point, final basis) of the node with
        variable box [lo, hi], or None when the node is proven infeasible.
        The solve starts from basis, a getBasis() of an earlier node, or
        from the last solve's basis when basis is None (cold on a fresh
        model)."""
        h = self._highs
        if basis is not None and h.setBasis(basis) != highs.HighsStatus.kOk:
            raise NoConvergence("node LP: HiGHS rejected the starting basis")
        h.changeColsBounds(self._cols.size, self._cols, lo, hi)
        h.run()
        status = h.getModelStatus()
        model = self.model
        c, A, b = model.objective, model.A, model.b
        if status == highs.HighsModelStatus.kOptimal:
            sol = h.getSolution()
            y = np.maximum(-np.asarray(sol.row_dual), 0.0)
            return dual_bound(c, A, b, lo, hi, y), np.asarray(sol.col_value), h.getBasis()
        if status != highs.HighsModelStatus.kInfeasible:
            raise NoConvergence(f"node LP: {h.modelStatusToString(status)}")
        zero = np.zeros_like(c)
        ray = self.farkas_ray()
        if ray is not None and dual_bound(zero, A, b, lo, hi, np.maximum(-ray, 0.0)) < 0:
            return None
        y, v = _elastic_lp(model, lo, hi)
        if dual_bound(zero, A, b, lo, hi, y) < 0:
            return None
        return dual_bound(c, A, b, lo, hi, y), v, h.getBasis()


def maximize_output(net: nn.Mlp, region, tol=1e-6, node_budget=10_000) -> VerifyOutcome:
    """Global maximum of a scalar-output ReLU network over a bounded region.

    Best-first branch-and-bound on activation binaries; node bounds are dual
    bounds of the LP relaxation, branching picks the most fractional
    indicator (ties: smallest index). The returned bound is at least every
    open, pruned or closed node's bound and the incumbent. Returns Certified
    when the bound gap closes to tol, else BoundOnly with the best bound and
    incumbent.
    """
    if net.out_dim != 1:
        raise ValueError("maximize_output needs a scalar-output network")
    model = encode_network(net, region)
    lp = _NodeLp(model)
    try:
        return _branch_and_bound(net, model, lp, tol, node_budget)
    finally:
        lp.release()


def _branch_and_bound(net, model, lp, tol, node_budget) -> VerifyOutcome:
    incumbent = -np.inf
    incumbent_x = None

    def update_incumbent(x):
        nonlocal incumbent, incumbent_x
        x = np.clip(x, model.box.lower, model.box.upper)
        val = float(nn.forward(net, x)[0])
        if val > incumbent:
            incumbent, incumbent_x = val, x.copy()

    heap = []
    counter = 0
    dropped = -np.inf  # largest bound of a pruned or closed node
    root = lp.solve(model.lo, model.hi)
    nodes = 1
    if root is None:
        return VerifyOutcome("Certified", -np.inf, None, nodes, 0.0)
    update_incumbent(root[1][model.x_idx])
    heapq.heappush(heap, (-root[0], counter, model.lo, model.hi, *root[1:]))
    while heap and -heap[0][0] > incumbent + tol and nodes < node_budget:
        neg_bound, _, lo, hi, v, basis = heapq.heappop(heap)
        free = [k for k, i in enumerate(model.binary_idx) if lo[i] < hi[i]]
        if not free:
            dropped = max(dropped, -neg_bound)
            continue
        _, kb = min((abs(v[model.binary_idx[k]] - 0.5), k) for k in free)
        for val in (0.0, 1.0):
            clo, chi = lo.copy(), hi.copy()
            clo[model.binary_idx[kb]] = chi[model.binary_idx[kb]] = val
            child = lp.solve(clo, chi, basis)
            nodes += 1
            if child is None:
                continue
            update_incumbent(child[1][model.x_idx])
            if child[0] > incumbent + tol:
                counter += 1
                heapq.heappush(heap, (-child[0], counter, clo, chi, *child[1:]))
            else:
                dropped = max(dropped, child[0])

    bound = max(-heap[0][0] if heap else -np.inf, dropped, incumbent)
    gap = float(max(bound - incumbent, 0.0))
    status = "Certified" if gap <= tol else "BoundOnly"
    return VerifyOutcome(status, float(bound), incumbent_x, nodes, gap)


def _cover_boxes(region: geom.Box, exclude: geom.Box):
    """Axis slabs, clipped to the region, covering the region minus the
    excluded box's interior (up to 2n boxes)."""
    if exclude.dim != region.dim:
        raise DimensionMismatch(f"exclude box has dimension {exclude.dim}, the region {region.dim}")
    boxes = []
    for i in range(region.dim):
        if exclude.lower[i] > region.lower[i]:
            hi = region.upper.copy()
            hi[i] = min(exclude.lower[i], region.upper[i])
            boxes.append(geom.Box(region.lower, hi))
        if exclude.upper[i] < region.upper[i]:
            lo = region.lower.copy()
            lo[i] = max(exclude.upper[i], region.lower[i])
            boxes.append(geom.Box(lo, region.upper))
    return boxes


def verify_positivity(f_net: nn.Mlp, region: geom.Box, exclude=None, tol=1e-6, node_budget=10_000) -> VerifyOutcome:
    """Certify min_{x in region \\ exclude} f(x) >= 0 or produce a violation."""
    if f_net.out_dim != 1:
        raise ValueError("verify_positivity needs a scalar-output network")
    neg = nn.compose(nn.Mlp((nn.Layer([[-1.0]], [0.0], "identity"),)), f_net)
    boxes = _cover_boxes(region, exclude) if exclude is not None else [region]
    if not boxes:
        raise ValueError("exclude covers the whole region")
    outs = [maximize_output(neg, box, tol=tol, node_budget=node_budget) for box in boxes]
    min_bound = min((-out.bound for out in outs if np.isfinite(out.bound)), default=np.inf)
    found = [(float(nn.forward(f_net, out.counterexample)[0]), out.counterexample) for out in outs
             if out.counterexample is not None]
    best_val, witness = min(found, key=lambda vx: vx[0], default=(np.inf, None))
    # only a witness with f < 0 falsifies: a bound a few ulps below 0 with
    # f(witness) >= 0 proves neither sign
    if best_val < 0:
        status = "Falsified"
    elif min_bound >= 0 and all(out.status != "BoundOnly" for out in outs):
        status = "Certified"
    else:
        status = "BoundOnly"
    nodes = sum(out.nodes_explored for out in outs)
    return VerifyOutcome(status, float(min_bound), witness if status != "Certified" else None, nodes, float(best_val - min_bound))


def decrease_mlp(v_net: nn.Mlp, A: np.ndarray) -> nn.Mlp:
    """Network computing V(x) - V(Ax) for a ReLU/identity V and linear map A.

    Raises UnsupportedModel when the composition is not MILP-representable.
    """
    for layer in v_net.layers:
        if layer.activation not in ("relu", "identity"):
            raise UnsupportedModel("decrease network needs relu/identity V")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = v_net.in_dim
    if A.shape != (n, n):
        raise UnsupportedModel("dynamics must be a square matrix on the V domain")
    linear = nn.Mlp((nn.Layer(A, np.zeros(n), "identity"),))
    difference = nn.Mlp((nn.Layer([[1.0, -1.0]], [0.0], "identity"),))
    return nn.compose(difference, nn.stack(v_net, nn.compose(v_net, linear)))


def export_lp_text(model: MilpModel) -> str:
    """Plain LP-file text of the encoding (fixed constraint order)."""
    names = [f"v{i}" for i in range(model.n_vars)]
    lines = ["Maximize", " obj: " + " + ".join(
        f"{model.objective[i]:.17g} {names[i]}" for i in np.nonzero(model.objective)[0]
    ), "Subject To"]
    for r in range(model.A.shape[0]):
        cols = np.nonzero(model.A[r])[0]
        expr = " + ".join(f"{model.A[r, c]:.17g} {names[c]}" for c in cols)
        lines.append(f" c{r}: {expr} <= {model.b[r]:.17g}")
    lines.append("Bounds")
    lines += [f" {model.lo[i]:.17g} <= {names[i]} <= {model.hi[i]:.17g}" for i in range(model.n_vars)]
    lines.append("Binary")
    lines.append(" " + " ".join(names[i] for i in model.binary_idx))
    lines.append("End")
    return "\n".join(lines) + "\n"

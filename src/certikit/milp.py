"""MILP-representable verification of ReLU networks via big-M encoding and
native best-first branch-and-bound with LP-relaxation bounds.

The encoding is exact: a point (x, u) satisfies the model for some binary
assignment iff u = net(x). Per-neuron big-M constants come from interval
bound propagation, so the LP relaxations stay tight; neurons whose
preactivation sign is fixed over the region are encoded affinely with no
binary variable.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import geom, nn, qp, reach
from .errors import UnboundedRegion, UnsupportedActivation, UnsupportedModel

__all__ = [
    "MilpModel",
    "ReluEncoding",
    "VerifyOutcome",
    "encode_network",
    "maximize_output",
    "verify_positivity",
    "decrease_mlp",
    "export_lp_text",
]

_INF = np.inf


@dataclass
class ReluEncoding:
    """Per-layer preactivation bounds, which give the big-M constants."""

    lb: list  # per-layer arrays
    ub: list


@dataclass
class MilpModel:
    A: np.ndarray  # constraint rows, l <= A v <= u
    l: np.ndarray
    u: np.ndarray
    objective: np.ndarray  # maximize objective . v
    n_vars: int
    x_idx: np.ndarray
    out_idx: int
    binary_idx: np.ndarray  # variable indices of activation indicators
    binary_bound_rows: np.ndarray  # row index carrying each binary's [0,1] bounds
    binary_neuron: list  # (layer, neuron) per binary
    encoding: ReluEncoding
    net: nn.Mlp
    box: geom.Box  # bounding box of the input region


def _region_box(region):
    if isinstance(region, geom.Box):
        return region
    if isinstance(region, geom.HPolytope):
        n = region.dim
        lo = np.empty(n)
        hi = np.empty(n)
        m = region.A.shape[0]
        l = np.full(m, -_INF)
        for i in range(n):
            c = np.zeros(n)
            c[i] = 1.0
            smin = qp.solve_lp(c, region.A, l, region.b, tol=1e-8)
            smax = qp.solve_lp(-c, region.A, l, region.b, tol=1e-8)
            if smin.status == "DualInfeasible" or smax.status == "DualInfeasible":
                raise UnboundedRegion("polytope region is unbounded")
            lo[i], hi[i] = smin.z[i], smax.z[i]
            if not (np.isfinite(lo[i]) and np.isfinite(hi[i])) or hi[i] - lo[i] > 1e8:
                raise UnboundedRegion("polytope region is unbounded or too large")
        return geom.Box(lo - 1e-9, hi + 1e-9)
    raise TypeError(f"region must be Box or HPolytope, got {type(region).__name__}")


def encode_network(net: nn.Mlp, region) -> MilpModel:
    """Big-M MILP encoding of u = net(x) for x in the given bounded region."""
    for layer in net.layers:
        if layer.activation not in ("relu", "identity"):
            raise UnsupportedActivation(layer.activation)
    box = _region_box(region)
    if box.dim != net.in_dim:
        raise ValueError("region dimension must match network input")
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise UnboundedRegion("region must be bounded")
    pre_bounds = reach.network_preactivation_bounds(net, box)
    enc = ReluEncoding([b[0] for b in pre_bounds], [b[1] for b in pre_bounds])

    n0 = net.in_dim
    z_base = []
    nv = n0
    for layer in net.layers:
        z_base.append(nv)
        nv += layer.W.shape[0]
    binaries = []  # (layer, neuron)
    for li, layer in enumerate(net.layers):
        if layer.activation == "relu":
            for j in range(layer.W.shape[0]):
                if enc.lb[li][j] < 0 < enc.ub[li][j]:
                    binaries.append((li, j))
    beta_idx = {bn: nv + k for k, bn in enumerate(binaries)}
    nv += len(binaries)

    rows, lbs, ubs = [], [], []

    def add_row(cols, vals, lo, hi):
        r = np.zeros(nv)
        r[list(cols)] = vals
        rows.append(r)
        lbs.append(lo)
        ubs.append(hi)
        return len(rows) - 1

    # input region
    if isinstance(region, geom.HPolytope):
        for i in range(region.A.shape[0]):
            add_row(range(n0), region.A[i], -_INF, region.b[i])
        for i in range(n0):
            add_row([i], [1.0], box.lower[i], box.upper[i])
    else:
        for i in range(n0):
            add_row([i], [1.0], box.lower[i], box.upper[i])

    binary_rows = {}
    for li, layer in enumerate(net.layers):
        prev = list(range(n0)) if li == 0 else list(
            range(z_base[li - 1], z_base[li - 1] + net.layers[li - 1].W.shape[0])
        )
        for j in range(layer.W.shape[0]):
            zj = z_base[li] + j
            w = layer.W[j]
            bj = layer.b[j]
            lb, ub = enc.lb[li][j], enc.ub[li][j]
            if layer.activation == "identity" or lb >= 0:
                # affine neuron: z = w.prev + b
                add_row([zj] + prev, [1.0] + list(-w), bj, bj)
                if layer.activation == "relu":
                    add_row([zj], [1.0], max(lb, 0.0), max(ub, 0.0))
            elif ub <= 0:
                add_row([zj], [1.0], 0.0, 0.0)
            else:
                bi = beta_idx[(li, j)]
                add_row([zj] + prev, [1.0] + list(-w), bj, _INF)  # z >= a
                add_row([zj], [1.0], 0.0, max(ub, 0.0))  # 0 <= z <= ub
                add_row([zj] + prev + [bi], [1.0] + list(-w) + [-lb], -_INF, bj - lb)
                add_row([zj, bi], [1.0, -ub], -_INF, 0.0)  # z <= ub * beta
                binary_rows[(li, j)] = add_row([bi], [1.0], 0.0, 1.0)

    obj = np.zeros(nv)
    out_idx = z_base[-1]
    obj[out_idx] = 1.0
    return MilpModel(
        A=np.array(rows),
        l=np.array(lbs),
        u=np.array(ubs),
        objective=obj,
        n_vars=nv,
        x_idx=np.arange(n0),
        out_idx=out_idx,
        binary_idx=np.array([beta_idx[bn] for bn in binaries], dtype=int),
        binary_bound_rows=np.array([binary_rows[bn] for bn in binaries], dtype=int),
        binary_neuron=binaries,
        encoding=enc,
        net=net,
        box=box,
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
    Av = model.A @ v
    return float(
        max(np.max(model.l - Av, initial=0.0), np.max(Av - model.u, initial=0.0))
    )


@dataclass
class VerifyOutcome:
    status: str  # Certified | Falsified | BoundOnly
    bound: float
    counterexample: np.ndarray | None
    nodes_explored: int
    gap: float

    def to_dict(self):
        return {
            "status": self.status,
            "bound": self.bound,
            "counterexample": None if self.counterexample is None else self.counterexample.tolist(),
            "nodes_explored": self.nodes_explored,
            "gap": self.gap,
        }


def _node_lp(model: MilpModel, fixed: dict, solver: qp.AdmmSolver):
    l = model.l.copy()
    u = model.u.copy()
    for k, val in fixed.items():
        r = model.binary_bound_rows[k]
        l[r] = u[r] = float(val)
    prob = qp.QProblem(
        np.zeros((model.n_vars, model.n_vars)), -model.objective, model.A, l, u
    )
    return solver.solve(prob)


def maximize_output(net: nn.Mlp, region, tol=1e-6, node_budget=10_000) -> VerifyOutcome:
    """Global maximum of a scalar-output ReLU network over a bounded region.

    Best-first branch-and-bound on activation binaries; node bounds come from
    the LP relaxation, branching picks the most fractional indicator
    (ties: smallest index). Returns Certified when the bound gap closes to
    tol, else BoundOnly with the best bound and incumbent.
    """
    if net.out_dim != 1:
        raise ValueError("maximize_output needs a scalar-output network")
    model = encode_network(net, region)
    solver = qp.AdmmSolver(tol=min(tol * 1e-2, 1e-7))
    nb = model.binary_idx.size

    incumbent = -np.inf
    incumbent_x = None

    def update_incumbent(x):
        nonlocal incumbent, incumbent_x
        x = np.clip(x, model.box.lower, model.box.upper)
        val = float(nn.forward(net, x)[0])
        if val > incumbent:
            incumbent, incumbent_x = val, x.copy()

    slack = 1e-7
    heap = []
    counter = 0
    sol = _node_lp(model, {}, solver)
    nodes = 1
    if sol.status == "PrimalInfeasible":
        return VerifyOutcome("Certified", -np.inf, None, nodes, 0.0)
    root_bound = -sol.objective + slack * (1 + abs(sol.objective))
    update_incumbent(sol.z[model.x_idx])
    heapq.heappush(heap, (-root_bound, counter, {}, sol.z))
    status = "Certified"
    global_bound = root_bound
    while heap:
        neg_bound, _, fixed, zsol = heapq.heappop(heap)
        global_bound = -neg_bound
        if global_bound <= incumbent + tol:
            global_bound = max(global_bound, incumbent)
            break
        if nodes >= node_budget:
            status = "BoundOnly"
            break
        beta = zsol[model.binary_idx] if nb else np.array([])
        frac = [(abs(beta[k] - 0.5), k) for k in range(nb) if k not in fixed]
        if not frac:
            continue
        _, kb = min(frac)
        for val in (0.0, 1.0):
            child = dict(fixed)
            child[kb] = val
            sol = _node_lp(model, child, solver)
            nodes += 1
            if sol.status == "PrimalInfeasible":
                continue
            bound = -sol.objective + slack * (1 + abs(sol.objective))
            update_incumbent(sol.z[model.x_idx])
            if bound > incumbent + tol:
                counter += 1
                heapq.heappush(heap, (-bound, counter, child, sol.z))
    else:
        global_bound = incumbent  # heap exhausted: every branch pruned or solved

    gap = float(max(global_bound - incumbent, 0.0))
    if status == "Certified" and gap > tol:
        status = "BoundOnly"
    return VerifyOutcome(status, float(max(global_bound, incumbent)), incumbent_x, nodes, gap)


def negate_mlp(net: nn.Mlp) -> nn.Mlp:
    last = net.layers[-1]
    if last.activation == "identity":
        layers = net.layers[:-1] + (nn.Layer(-last.W, -last.b, "identity"),)
    else:
        layers = net.layers + (nn.Layer(-np.eye(net.out_dim), np.zeros(net.out_dim), "identity"),)
    return nn.Mlp(layers)


def _cover_boxes(region: geom.Box, exclude: geom.Box):
    """Axis slabs covering region minus the excluded box (up to 2n boxes)."""
    boxes = []
    n = region.dim
    for i in range(n):
        if exclude.lower[i] > region.lower[i]:
            hi = region.upper.copy()
            hi[i] = exclude.lower[i]
            boxes.append(geom.Box(region.lower, hi))
        if exclude.upper[i] < region.upper[i]:
            lo = region.lower.copy()
            lo[i] = exclude.upper[i]
            boxes.append(geom.Box(lo, region.upper))
    return boxes


def verify_positivity(f_net: nn.Mlp, region: geom.Box, exclude=None, tol=1e-6, node_budget=10_000) -> VerifyOutcome:
    """Certify min_{x in region \\ exclude} f(x) >= 0 or produce a violation."""
    if f_net.out_dim != 1:
        raise ValueError("verify_positivity needs a scalar-output network")
    neg = negate_mlp(f_net)
    boxes = _cover_boxes(region, exclude) if exclude is not None else [region]
    if not boxes:
        raise ValueError("exclude covers the whole region")
    min_bound = np.inf
    best_val = np.inf
    witness = None
    nodes = 0
    any_budget = False
    for box in boxes:
        out = maximize_output(neg, box, tol=tol, node_budget=node_budget)
        nodes += out.nodes_explored
        if out.status == "BoundOnly":
            any_budget = True
        if np.isfinite(out.bound):
            min_bound = min(min_bound, -out.bound)
        if out.counterexample is not None:
            val = float(nn.forward(f_net, out.counterexample)[0])
            if val < best_val:
                best_val = val
                witness = out.counterexample
    if best_val < 0:
        return VerifyOutcome("Falsified", float(min_bound), witness, nodes, float(best_val - min_bound))
    status = "BoundOnly" if any_budget else ("Certified" if min_bound >= 0 else "Falsified")
    if status == "Falsified":
        # certified minimum is negative: the witness attains it within tol
        return VerifyOutcome("Falsified", float(min_bound), witness, nodes, float(best_val - min_bound))
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
    # blockwise: x -> [V-branch(x); V-branch(Ax)], then subtract the scalars
    first = v_net.layers[0]
    blocks = []
    W0 = np.vstack([first.W, first.W @ A])
    b0 = np.concatenate([first.b, first.b])
    blocks.append(nn.Layer(W0, b0, first.activation))
    for layer in v_net.layers[1:]:
        W = np.block(
            [
                [layer.W, np.zeros_like(layer.W)],
                [np.zeros_like(layer.W), layer.W],
            ]
        )
        b = np.concatenate([layer.b, layer.b])
        blocks.append(nn.Layer(W, b, layer.activation))
    blocks.append(nn.Layer(np.array([[1.0, -1.0]]), np.zeros(1), "identity"))
    return nn.Mlp(tuple(blocks))


def export_lp_text(model: MilpModel) -> str:
    """Plain LP-file text of the encoding (fixed constraint order)."""
    names = [f"v{i}" for i in range(model.n_vars)]
    lines = ["Maximize", " obj: " + " + ".join(
        f"{model.objective[i]:g} {names[i]}" for i in np.nonzero(model.objective)[0]
    ), "Subject To"]
    for r in range(model.A.shape[0]):
        cols = np.nonzero(model.A[r])[0]
        expr = " + ".join(f"{model.A[r, c]:g} {names[c]}" for c in cols)
        lo, hi = model.l[r], model.u[r]
        if lo == hi:
            lines.append(f" c{r}: {expr} = {lo:g}")
        else:
            if np.isfinite(lo):
                lines.append(f" c{r}l: {expr} >= {lo:g}")
            if np.isfinite(hi):
                lines.append(f" c{r}u: {expr} <= {hi:g}")
    lines.append("Binary")
    lines.append(" " + " ".join(names[i] for i in model.binary_idx))
    lines.append("End")
    return "\n".join(lines) + "\n"

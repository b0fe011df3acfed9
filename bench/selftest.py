"""Fast self-test of the harness at tiny sizes (about a minute).

For each workload it runs one tiny round untraced and two traced, each on a
fresh workload built from the same seed, and asserts that:

- no operation fails;
- every end-to-end metric and every per-layer metric the workloads were
  specified with is emitted, as is every metric BENCHMARK.json lists;
- every per-layer count repeats exactly between the two traced runs
  (among them qp.solve.iterations, milp.nodes, filters.cbf.interventions
  and gpphs.nlml.calls).
"""

import run
import tracer as tracer_mod

SEED = 7
END_TO_END = ["setup_s", "peak_rss_mb", "failed_frac", "ops_per_s"]
PER_LAYER = (
    [f"qp.solve.{k}" for k in ("calls", "self_s", "iterations", "maxiter", "infeasible", "optimal_frac")]
    + [f"filters.cbf.{k}" for k in ("calls", "self_s", "interventions", "intervention_frac")]
    + [f"filters.psf.{k}" for k in ("calls", "self_s", "sqp_iterations", "qp_iterations")]
    + [f"{f}.{k}" for f in ("dyn.step", "dyn.linearize", "nn.forward") for k in ("calls", "self_s")]
    + ["milp.maximize_output.calls", "milp.maximize_output.self_s", "milp.nodes", "milp.s_per_node"]
    + ["milp.encode_network.self_s"]
    + [f"milp.verdict.{v}" for v in ("certified", "falsified", "bound_only")]
    + ["reach.reach_sampled.calls", "reach.reach_sampled.self_s", "reach.hull_distance.calls"]
    + ["reach.hull_distance.self_s", "reach.propagate_interval.self_s"]
    + ["geom.hausdorff.calls", "geom.hausdorff.self_s", "geom.contains.calls", "geom.contains.self_s"]
    + ["geom.sample_region.self_s"]
    + [f"gpphs.{f}.{k}" for f in ("gram", "nlml", "posterior", "fit") for k in ("calls", "self_s")]
    + ["gpphs.nlml.cholesky_fail", "conformal.calibrate.self_s", "conformal.covers.self_s", "certify.self_s"]
    + ["cli.run.calls", "cli.run.self_s", "cli.demo.self_s", "cli.cold_start_s"]
)
NAMED_COUNTS = ["qp.solve.iterations", "milp.nodes", "filters.cbf.interventions", "gpphs.nlml.calls"]


def traced_round(name, cold_start_s):
    wl = run.build(name, SEED, tiny=True)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        res = run.run_rounds(wl, rounds=1, tracer=tr)
    finally:
        tr.uninstall()
    assert res["failed"] == 0, res["failures"]
    return run.layer_metrics(tr.summary(), res, cold_start_s)


def main():
    spec = run.load_spec()
    cold = run.measure_cold_start()
    problems = []
    for name in run.NAMED:
        wl = run.build(name, SEED, tiny=True)
        res = run.run_rounds(wl, rounds=1)
        if res["failed"]:
            problems.append(f"{name}: {res['failures']}")
        setup_s, _ = run.measure_setup(name, SEED)
        e2e, _ = run.end_to_end(wl, res, setup_s)
        want = END_TO_END + [n for n, *_ in run.NAMED[name]] + [m["name"] for m in spec["end_to_end"]]
        problems += [f"{name}: end-to-end {m} missing" for m in want if e2e.get(m, (None,))[0] is None]

        first, second = traced_round(name, cold), traced_round(name, cold)
        want = PER_LAYER + [m["name"] for m in spec["per_layer"]]
        problems += [f"{name}: per-layer {m} missing" for m in want if m not in first]
        for key, (value, unit) in second.items():
            if unit == "count" and first[key][0] != value:
                problems.append(f"{name}: {key} differs between runs of one seed: {first[key][0]} vs {value}")
        counts = ", ".join(f"{k} {first[k][0]}" for k in NAMED_COUNTS)
        print(f"{name}: {res['attempted']} ops, setup {setup_s:.2f} s; repeated counts: {counts}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0

"""certikit benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload filter-loop --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25    # every workload, both modes
    python3 bench/run.py --compare DIR_A DIR_B          # two sets of result files
    python3 bench/run.py --selftest                     # fast harness self-test

A `--trace 0` run measures end-to-end metrics for `--seconds` (the round in
progress at the deadline completes). A shared 2-vCPU x86 VM was seen to
change speed by up to 1.6x within minutes, through load the program cannot
see, so every half second the runner also times a fixed calibration kernel,
and the gated times are scaled to the kernel's reference speed:
time x CAL_REF_S / (mean kernel time in the run). The unscaled values are
kept in the result file and printed under `raw.*`.

A `--trace 1` run wraps certikit's public functions at runtime (see
tracer.py), runs a fixed number of rounds so its counts repeat exactly for a
seed, and reports per-layer metrics. Each run
writes a result file to `bench/out/` (or `--out`) and prints, as its last
stdout line, one JSON object with `correct`, `attempted`, `failed` and the
metrics that BENCHMARK.json lists for its mode. The human-readable report,
with the metric names the workloads were specified with, goes to stderr.

certikit is imported from `src/` of the checkout; nothing needs building.
"""

import os
import sys
import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

BLAS_THREADS = 1  # every workload is one caller on small matrices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CAL_REF_S = 0.02  # the calibration kernel's time at the reference speed
CAL_EVERY_S = 0.5
SETUP_REPEATS = 3
COLD_START_REPEATS = 3
# Traced runs execute a fixed number of rounds (about 25 s each on a 2-core
# x86 sandbox), so per-layer counts repeat exactly for a seed.
TRACE_ROUNDS = {"filter-loop": 15, "certify-nn": 2, "learn-and-reach": 2}
TRACE_GUARD_S = 120.0  # stop starting rounds after this, so a run ends in 180 s
# qp.solve is split by the span that called it; these callers are always listed
QP_CALLERS = ("filters.cbf", "filters.psf", "milp.maximize_output", "reach.hull_distance")
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

# The metrics each workload was specified with: (name, op kinds pooled,
# percentile "p50" or "tail", unit).
NAMED = {
    "filter-loop": [
        ("cbf_step_p50_us", ("cbf",), "p50", "us"),
        ("cbf_step_tail_us", ("cbf",), "tail", "us"),
        ("psf_step_p50_ms", ("psf", "psf_learned"), "p50", "ms"),
        ("psf_step_tail_ms", ("psf", "psf_learned"), "tail", "ms"),
    ],
    "certify-nn": [("verdict_p50_s", ("small_verdict", "medium_verdict", "drawn_verdict"), "p50", "s")],
    "learn-and-reach": [
        ("reach_query_p50_s", ("reach_query",), "p50", "s"),
        ("gp_fit_s", ("gp_fit",), "p50", "s"),
    ],
}
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_tree():
    for path in (os.path.join(SRC, "certikit", "__init__.py"), os.path.join(ROOT, "tests", "helpers_oracles.py")):
        if not os.path.isfile(path):
            fail(f"{os.path.relpath(path, ROOT)} not found: run from a certikit source checkout")
    sys.path.insert(0, SRC)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- statistics ----------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return None, None
    s = sorted(values)
    return s[math.ceil(best / 100.0 * n) - 1], best  # nearest rank


def latency_stats(lat):
    out = {}
    for kind, vals in lat.items():
        if not vals:
            continue
        q1, p50, q3 = quartiles(vals)
        t, tp = tail(vals)
        out[kind] = {"n": len(vals), "mean_s": statistics.fmean(vals), "p50_s": p50, "q1_s": q1, "q3_s": q3, "tail_s": t, "tail_pct": tp}
    return out


# -- machine facts ---------------------------------------------------------------


def machine_facts():
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
    }


# -- running a workload ----------------------------------------------------------


def build(name, seed, tiny=False):
    import workloads

    return workloads.WORKLOADS[name](seed, tiny=tiny)


def calibration_kernel(A, x0, iters=4000):
    """Fixed work in the workloads' style: small dense numpy steps driven
    from a Python loop (about 0.02 s on the reference machine)."""
    x = x0.copy()
    for _ in range(iters):
        x = np.clip(A @ x + x0, -1.0, 1.0)
    return x


def run_rounds(wl, seconds=None, rounds=None, tracer=None, guard=None):
    """Drive rounds until the deadline (or the round count) is reached.
    Returns per-kind latencies of correct ops, calibration kernel times,
    counts and failure messages."""
    import workloads

    clock = time.perf_counter
    rng = np.random.default_rng(0)
    cal_a, cal_x = rng.normal(size=(12, 12)) / 4.0, rng.normal(size=12)
    cal = []
    next_cal = clock()
    lat = {}
    attempted = failed = 0
    failures = []
    start = clock()
    r = 0
    while True:
        elapsed = clock() - start
        if rounds is not None:
            if r >= rounds or (guard is not None and elapsed >= guard):
                break
        elif elapsed >= seconds:
            break
        gen = wl.round(r)
        try:
            op = next(gen)
            while True:
                attempted += 1
                if tracer is not None:
                    tracer.op_id += 1
                    tracer.active = True
                t0 = clock()
                try:
                    result = op.call()
                    err = None
                except Exception as e:  # the op boundary: record and go on
                    err = f"{type(e).__name__}: {e}"
                dt = clock() - t0
                if tracer is not None:
                    tracer.active = False
                if err is None:
                    try:
                        err = op.check(result)
                    except Exception as e:
                        err = f"check raised {type(e).__name__}: {e}"
                if err is not None:
                    failed += 1
                    failures.append(f"round {r} {op.kind}: {err}")
                    result = workloads.FAILED
                else:
                    lat.setdefault(op.kind, []).append(dt)
                if clock() >= next_cal:
                    t0 = clock()
                    calibration_kernel(cal_a, cal_x)
                    cal.append(clock() - t0)
                    next_cal = clock() + CAL_EVERY_S
                op = gen.send(result)
        except StopIteration:
            pass
        r += 1
    return {"lat": lat, "cal": cal, "attempted": attempted, "failed": failed, "failures": failures, "rounds": r, "elapsed_s": clock() - start}


def measure_setup(name, seed):
    """Median import + construction time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if out.returncode != 0:
            fail(f"set-up subprocess failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def measure_cold_start():
    """Median wall time of a one-shot CLI process running a tiny demo."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(COLD_START_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "certikit.cli", "--demo", "reach-rotation"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            cwd=ROOT,
            env=env,
        )
        times.append(time.perf_counter() - t0)
        if out.returncode != 0:
            fail(f"CLI cold start failed: {out.stderr.strip()}")
    return statistics.median(times)


def ops_per_s(res):
    done = sum(len(v) for v in res["lat"].values())
    busy = sum(sum(v) for v in res["lat"].values())
    return done / busy if busy > 0 else 0.0


def end_to_end(wl, res, setup_s):
    """Every end-to-end metric: (value, unit, sample count). The gated times
    are scaled to the calibration kernel's reference speed; `raw.*` are not."""
    stats = latency_stats(res["lat"])
    scale = CAL_REF_S / statistics.fmean(res["cal"])
    n_ops = sum(len(v) for v in res["lat"].values())
    raw = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "ops_per_s": (ops_per_s(res), "1/s", n_ops),
    }
    for label, kind in (("light", wl.light), ("heavy", wl.heavy)):
        st = stats.get(kind)
        raw[f"{label}_mean_ms"] = (st["mean_s"] * 1e3, "ms", st["n"]) if st else (None, "ms", 0)
    m = {}
    for name, (v, unit, n) in raw.items():
        m[name] = (None if v is None else (v / scale if unit == "1/s" else v * scale), unit, n)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    m["failed_frac"] = (res["failed"] / max(res["attempted"], 1), "ratio", res["attempted"])
    m["calibration_s"] = (statistics.fmean(res["cal"]), "s", len(res["cal"]))
    m.update({f"raw.{k}": v for k, v in raw.items()})
    for name, kinds, pct, unit in NAMED[wl.name]:
        st = latency_stats({"pooled": sum((res["lat"].get(k, []) for k in kinds), [])}).get("pooled")
        if st is None:
            m[name] = (None, unit, 0)
        elif pct == "p50":
            m[name] = (st["p50_s"] * UNIT_SCALE[unit], unit, st["n"])
        else:
            val = None if st["tail_s"] is None else st["tail_s"] * UNIT_SCALE[unit]
            m[name] = (val, unit, st["n"], f"p{st['tail_pct']:g}" if st["tail_pct"] else "n/a")
    return m, stats


def layer_metrics(summary, res, cold_start_s):
    """Per-layer metrics of a traced run by name: (value, unit)."""
    from tracer import TARGETS

    calls, self_s, total = summary["calls"], summary["self_s"], summary["total_s"]
    counts, exc = summary["counts"], summary["exceptions"]
    m = {}
    for _, _, span, _ in TARGETS:
        m[f"{span}.calls"] = (calls.get(span, 0), "count")
        m[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    callers = sorted(set(QP_CALLERS) | {k.split("@", 1)[1] for k in calls if k.startswith("qp.solve@")})
    for prefix, key in [("qp.solve", "qp.solve")] + [(f"qp.solve.from.{c}", f"qp.solve@{c}") for c in callers]:
        n = calls.get(key, 0)
        m[f"{prefix}.calls"] = (n, "count")
        m[f"{prefix}.self_s"] = (self_s.get(key, 0.0), "s")
        for c in ("iterations", "maxiter", "infeasible"):
            m[f"{prefix}.{c}"] = (int(counts.get(f"{key}.{c}", 0)), "count")
        m[f"{prefix}.optimal_frac"] = (counts.get(f"{key}.optimal", 0) / n if n else 0.0, "ratio")
    n_cbf = calls.get("filters.cbf", 0)
    n_int = int(counts.get("filters.cbf.interventions", 0))
    m["filters.cbf.interventions"] = (n_int, "count")
    m["filters.cbf.intervention_frac"] = (n_int / n_cbf if n_cbf else 0.0, "ratio")
    for c in ("sqp_iterations", "qp_iterations"):
        m[f"filters.psf.{c}"] = (int(counts.get(f"filters.psf.{c}", 0)), "count")
    nodes = int(counts.get("milp.nodes", 0))
    m["milp.nodes"] = (nodes, "count")
    m["milp.s_per_node"] = (total.get("milp.maximize_output", 0.0) / nodes if nodes else 0.0, "s")
    for v in ("certified", "falsified", "bound_only"):
        m[f"milp.verdict.{v}"] = (int(counts.get(f"milp.verdict.{v}", 0)), "count")
    m["gpphs.nlml.cholesky_fail"] = (exc.get("gpphs.nlml:CholeskyFail", 0), "count")
    m["certify.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("certify.")), "s")
    m["cli.cold_start_s"] = (cold_start_s, "s")
    m["trace.ops_per_s"] = (ops_per_s(res), "1/s")
    return m


def run_one(args):
    import tracer as tracer_mod
    import workloads

    spec = load_spec()
    name = args.workload
    if name not in workloads.WORKLOADS:
        fail(f"unknown workload {name!r}; choose one of {sorted(workloads.WORKLOADS)}")
    facts = machine_facts()
    traced = bool(args.trace)
    if not traced:
        setup_s, setup_samples = measure_setup(name, args.seed)
    wl = build(name, args.seed)
    tr = None
    if traced:
        tr = tracer_mod.Tracer()
        tr.install()
        res = run_rounds(wl, rounds=TRACE_ROUNDS[name], tracer=tr, guard=TRACE_GUARD_S)
        tr.uninstall()
    else:
        res = run_rounds(wl, seconds=args.seconds)

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{name}-seed{args.seed}-trace{int(traced)}")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "machine": facts,
        "rounds": res["rounds"],
        "elapsed_s": res["elapsed_s"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"][:50],
    }
    if traced:
        summary = tr.summary()
        metrics = layer_metrics(summary, res, measure_cold_start())
        record["latency"] = latency_stats(res["lat"])
        record["trace_summary"] = summary
        untraced = f"{stem[:-1]}0.json"
        if os.path.exists(untraced):
            # both sides scaled to the calibration kernel's reference speed
            with open(untraced) as f:
                base = json.load(f)["metrics"]["ops_per_s"]["value"]
            traced_ops = metrics["trace.ops_per_s"][0] * statistics.fmean(res["cal"]) / CAL_REF_S
            record["trace_overhead"] = base / traced_ops - 1.0
        tr.write(stem + "-spans.json")
        wanted = spec["per_layer"]
    else:
        metrics, stats = end_to_end(wl, res, setup_s)
        record["latency"] = stats
        record["latency_samples_s"] = res["lat"]
        record["setup_samples_s"] = setup_samples
        wanted = spec["end_to_end"]
    # metric tuples are (value, unit[, sample count[, tail level]])
    record["metrics"] = {k: dict(zip(("value", "unit", "n", "level"), v)) for k, v in metrics.items()}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print_report(record)
    out = {}
    for w in wanted:
        if w["name"] not in metrics or metrics[w["name"]][0] is None:
            fail(f"metric {w['name']} was not measured")
        out[w["name"]] = {"value": metrics[w["name"]][0], "unit": w["unit"]}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": out}))


def print_report(rec, file=sys.stderr):
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']} seed {rec['seed']} ({mode}): {rec['rounds']} rounds in {rec['elapsed_s']:.1f} s, "
          f"{rec['attempted']} ops attempted, {rec['failed']} failed", file=file)
    for msg in rec["failures"][:10]:
        print(f"   FAILED {msg}", file=file)
    for name, m in rec["metrics"].items():
        v = m["value"]
        val = "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        extra = f"  (n={m['n']}" + (f", {m['level']}" if "level" in m else "") + ")" if "n" in m else ""
        print(f"   {name:<48} {val:>14} {m['unit']}{extra}", file=file)
    if "trace_overhead" in rec:
        print(f"   tracing overhead (untraced/traced scaled ops_per_s - 1): {rec['trace_overhead']:.3f}", file=file)
    f = rec["machine"]
    print(f"   machine: nproc {f['nproc']}, python {f['python']}, numpy {f['numpy']}, scipy {f['scipy']}, "
          f"{f['blas']} x{f['blas_threads']} threads, load {f['loadavg_start'][0]:.2f}", file=file)


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    import workloads

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                fail(f"{name} trace={trace} exited with {out.returncode}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(BENCH, "out"), help="directory for result files")
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), help="compare two result sets")
    p.add_argument("--selftest", action="store_true", help="fast harness self-test at tiny sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    check_tree()
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], load_spec())
    if args.selftest:
        import selftest

        return selftest.main()
    if args.setup_only:
        build(args.workload, args.seed)
        print(time.perf_counter() - _T0)
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        fail("give --workload (or --all, --compare, --selftest)")
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

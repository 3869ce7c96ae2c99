"""degcalc benchmark: run one seeded workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 25 \
        --trace 0

Workloads are ``symbolic``, ``spectral`` and ``flows`` (see README.md in
this directory).  One client runs one job at a time (a closed loop).  With
``--trace 0`` the jobs run in ``harness.ROUNDS`` rounds, one fresh child
process after another, and a job's time is its fastest run (see
harness.py), scaled to the reference speed by the gauge in calibrate.py;
the last line of standard output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` every job runs once in this process
with every public degcalc function and method wrapped by ``tracing.py``, and
the object holds the per-layer metrics instead, plus the tracing overhead.
Every job's output is verified by an independent oracle after the jobs ran.
A full record of the run (run metadata, per-job inputs and results,
failures by reason) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from harness import ROUNDS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("symbolic", "spectral", "flows")
PROGRAM_MODULES = ("degcalc", "degcalc.errors", "degcalc.powerfun",
                   "degcalc.weights", "degcalc.flows", "degcalc.groupoid",
                   "degcalc.diffop", "degcalc.schrodinger", "degcalc.cli")

#: set-up samples per run: one per round process, plus probe processes
SETUP_SAMPLES = 6
#: a run starts no further round once this much wall time has passed, so a
#: much slower program still ends within the time a run is given
RUN_WALL_CAP_S = 120.0
#: a round still running this long after the run started is stopped
RUN_LIMIT_S = 170.0

NPROC = len(os.sched_getaffinity(0))
#: BLAS/OpenMP pool size.  One thread keeps the single client within nproc;
#: with two threads on two shared cores the dense resolvent slowed 3-5x
#: whenever another process ran, which no bound could absorb.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads():
    """Pin every BLAS/OpenMP pool; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program(workload):
    """Import degcalc and the workload's shared objects; return
    (seconds, workload module, shared objects).  Only the degcalc imports
    and ``setup()`` are timed; importing the benchmark module is not."""
    t0 = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    t1 = time.perf_counter()
    wl = importlib.import_module(f"wl_{workload}")
    t2 = time.perf_counter()
    shared = wl.setup()
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2), wl, shared


def timed_setup(workload):
    """Set up this fresh process; return (set-up seconds at the reference
    speed, wall seconds, workload module, shared objects)."""
    wall, wl, shared = import_program(workload)
    from calibrate import SETUP_SLICES, Gauge

    gauge = Gauge()
    gauge.tick(SETUP_SLICES)
    return wall * gauge.scale(), wall, wl, shared


def setup_probe(workload):
    """Set-up time of one fresh process, run as a child of the benchmark:
    (seconds at the reference speed, wall seconds)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           workload]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    scaled, wall = done.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(wall)


def run_metadata(args):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(".git"):    # an exported checkout has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join("src", "degcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "clients": 1, "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def layer_metrics(tracer, results, overhead_pct):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    from tracing import RING_OPS

    t = tracer
    rf = "powerfun.RadialFunction."
    ring_ops = [rf + op for op in RING_OPS]
    problems = [r["record"] for r in results if r["kind"] == "problem"]
    reached = [r["points"] for r in problems if r.get("points")]
    applies = t.count("flows.Flow.apply")
    convert = [f"diffop.DiffOp.{m}" for m in ("to_raw", "to_monomial",
                                              "to_lie")]
    compose = ["groupoid.gphi_compose", "groupoid.s_compose",
               "groupoid.hpsi_compose"]
    symbol_eval = ["diffop.PoweredSymbol.evaluate",
                   "diffop.RationalSymbol.evaluate"]
    cli_names = t.names("cli.")
    m = {
        "powerfun.ops": (t.count(*ring_ops), "count"),
        "powerfun.ops_self_ms": (t.self_ms(*ring_ops), "ms"),
        "powerfun.terms_max": (t.terms_max, "count"),
        "powerfun.limit_calls": (t.count(rf + "limit"), "count"),
        "powerfun.limit_self_ms": (t.self_ms(rf + "limit"), "ms"),
        "powerfun.eval_calls": (t.count(rf + "__call__"), "count"),
        "powerfun.eval_self_ms": (t.self_ms(rf + "__call__"), "ms"),
        "weights.membership_calls":
            (t.count("weights.membership_order"), "count"),
        "weights.membership_self_ms":
            (t.self_ms("weights.membership_order"), "ms"),
        "weights.membership_undecided": (t.membership_undecided, "count"),
        "weights.weight_init_calls":
            (t.count("weights.Weight.__init__"), "count"),
        "weights.weight_init_self_ms":
            (t.self_ms("weights.Weight.__init__"), "ms"),
        "flows.apply_calls": (applies, "count"),
        "flows.apply_self_ms": (t.self_ms("flows.Flow.apply"), "ms"),
        "flows.first_apply_ms":
            (1e3 * statistics.median(t.first_apply_s)
             if t.first_apply_s else 0.0, "ms"),
        "flows.quad_per_apply":
            (t.count("scipy.quad") / applies if applies else 0.0, "1"),
        "scipy.quad_calls": (t.count("scipy.quad"), "count"),
        "scipy.quad_ms": (t.total_ms("scipy.quad"), "ms"),
        "scipy.brentq_calls": (t.count("scipy.brentq"), "count"),
        "scipy.brentq_ms": (t.total_ms("scipy.brentq"), "ms"),
        "groupoid.compose_calls": (t.count(*compose), "count"),
        "groupoid.compose_self_ms": (t.self_ms(*compose), "ms"),
        "groupoid.zeta_calls": (t.count("groupoid.zeta_cocycle"), "count"),
        "groupoid.zeta_self_ms": (t.self_ms("groupoid.zeta_cocycle"), "ms"),
        "groupoid.kernel_conjugate_self_ms":
            (t.self_ms("groupoid.kernel_conjugate"), "ms"),
        "diffop.expand_X_power_calls":
            (t.count("diffop.expand_X_power"), "count"),
        "diffop.expand_X_power_self_ms":
            (t.self_ms("diffop.expand_X_power"), "ms"),
        "diffop.convert_calls": (t.count(*convert), "count"),
        "diffop.convert_self_ms": (t.self_ms(*convert), "ms"),
        "diffop.compose_calls": (t.count("diffop.op_compose"), "count"),
        "diffop.compose_self_ms": (t.self_ms("diffop.op_compose"), "ms"),
        "diffop.lie_rinehart_self_ms":
            (t.self_ms("diffop.lie_rinehart_check"), "ms"),
        "diffop.parametrix_1d_self_ms":
            (t.self_ms("diffop.parametrix_1d"), "ms"),
        "diffop.symbol_eval_calls": (t.count(*symbol_eval), "count"),
        "diffop.symbol_eval_self_ms": (t.self_ms(*symbol_eval), "ms"),
        "schrodinger.parametrix_residual_self_ms":
            (t.self_ms("schrodinger.parametrix_residual"), "ms"),
        "schrodinger.solve_calls":
            (t.count("schrodinger.assemble_and_solve"), "count"),
        "schrodinger.solve_self_ms":
            (t.self_ms("schrodinger.assemble_and_solve"), "ms"),
        "schrodinger.reduced_potential_self_ms":
            (t.self_ms("schrodinger.reduced_potential"), "ms"),
        "schrodinger.points_to_tol":
            (statistics.median(reached) if reached else 0.0, "points"),
        "schrodinger.ladder_rungs":
            (sum(r.get("rungs", 0) for r in problems) / len(problems)
             if problems else 0.0, "rungs"),
        "scipy.eigsh_calls": (t.count("scipy.eigsh"), "count"),
        "scipy.eigsh_ms": (t.total_ms("scipy.eigsh"), "ms"),
        "scipy.eigh_tridiagonal_ms":
            (t.total_ms("scipy.eigh_tridiagonal"), "ms"),
        "schrodinger.resolvent_self_ms":
            (t.self_ms("schrodinger.resolvent_probe"), "ms"),
        "schrodinger.rewrite_membership_self_ms":
            (t.self_ms("schrodinger.rewrite",
                       "schrodinger.membership_in_diff_s"), "ms"),
        "cli.load_config_ms": (t.total_ms("cli.load_config"), "ms"),
        "cli.self_ms": (t.self_ms(*cli_names), "ms"),
        "cli.nonzero_exits":
            (sum(r["record"].get("nonzero_exits", 0) for r in results),
             "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m


def draw_jobs(wl, seed, seconds, shared, scratch):
    """The run's decks, drawn from the seed: as many whole cycles as take
    ``seconds`` at the reference speed (README.md), at least one."""
    rng = random.Random(seed)
    decks = wl.decks(rng, shared, scratch)
    cycle = wl.CYCLE_DECKS
    n_decks = cycle * max(1, round(seconds / (wl.DECK_SECONDS * cycle)))
    return [next(decks) for _ in range(n_decks)]


def fingerprint(jobs):
    """Digest of the jobs' inputs; every round must draw the same jobs."""
    text = json.dumps([(j.kind, j.record) for j in jobs], default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(args):
    """One round in this fresh process: time set-up, run this round's jobs
    with the speed gauge ticking before each, verify them and write the
    results to ``args.result``."""
    setup_s, setup_wall_s, wl, shared = timed_setup(args.workload)
    import degcalc
    import harness
    from calibrate import Gauge

    scratch = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        jobs = [job for deck in draw_jobs(wl, args.seed, args.seconds,
                                          shared, scratch) for job in deck]
        digest = fingerprint(jobs)
        picked = harness.plan_rounds(jobs)[args.round]
        gauge = Gauge()
        outcomes = []
        for i in picked:
            gauge.tick()
            outcomes.append(harness.run_one(jobs[i], degcalc.DegcalcError))
        gauge.tick()
        scale = gauge.scale()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # a repeated job is verified in the first round, a long job in the
        # round that ran it
        harness.verify([o for o in outcomes
                        if args.round == 0 or not o.job.repeat],
                       wl.Oracle(shared) if hasattr(wl, "Oracle") else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                   "speed_scale": scale, "peak_rss_mb": peak_rss_mb,
                   "fingerprint": digest,
                   "results": [harness.result(i, o, scale)
                               for i, o in zip(picked, outcomes)]},
                  fh, default=str)
    return 0


def child(args, *extra, timeout):
    """Run this script in a fresh process and wait for it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), *extra]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, check=True)


def run_rounds(args, out_dir):
    """The untraced run: ROUNDS rounds, one fresh process each.  Set-up is
    timed in each of them,
    and in a probe process after each of the first rounds until there are
    SETUP_SAMPLES samples, spread over the run.  Returns (merged results,
    set-up samples, peak RSS in MB, and the rounds' speed scales and wall
    set-up times)."""
    t_start = time.perf_counter()
    rounds, setup_samples, peak = [], [], 0.0
    speed = {"speed_scales": [], "setup_wall_s": []}
    digests = set()
    for r in range(ROUNDS):
        if time.perf_counter() - t_start > RUN_WALL_CAP_S:
            break
        path = os.path.join(out_dir, f"round-{os.getpid()}-{r}.json")
        try:
            child(args, "--round", str(r), "--result", path,
                  timeout=RUN_LIMIT_S - (time.perf_counter() - t_start))
            with open(path) as fh:
                done = json.load(fh)
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr)
            raise
        finally:
            if os.path.exists(path):
                os.remove(path)
        rounds.append(done["results"])
        setup_samples.append(done["setup_s"])
        speed["setup_wall_s"].append(done["setup_wall_s"])
        speed["speed_scales"].append(done["speed_scale"])
        peak = max(peak, done["peak_rss_mb"])
        digests.add(done["fingerprint"])
        if r < SETUP_SAMPLES - ROUNDS:
            scaled, wall = setup_probe(args.workload)
            setup_samples.append(scaled)
            speed["setup_wall_s"].append(wall)
    if len(digests) != 1:
        raise RuntimeError("the rounds drew different jobs from one seed")
    import harness

    return harness.merge_rounds(rounds), setup_samples, peak, speed


def run_traced(args, out_dir):
    """The traced run: every job once, in this process, each deck traced
    and untraced.  Returns (results, tracer, traced seconds, untraced
    seconds)."""
    _, wl, shared = import_program(args.workload)
    import degcalc
    import harness
    from tracing import Tracer

    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = Tracer()
    error_base = degcalc.DegcalcError
    outcomes, timed, replay = [], 0.0, 0.0
    try:
        for d, deck in enumerate(draw_jobs(wl, args.seed, args.seconds,
                                           shared, scratch)):
            # each deck also runs untraced, alternately before and after
            # the traced pass; pairing them in time keeps the machine's
            # drift out of the overhead, and alternating cancels the
            # order's effect
            if d % 2 == 0:
                replay += sum(harness.run_one(job, error_base).seconds
                              for job in deck)
            tracer.install(extra_modules=[wl])
            try:
                for job in deck:
                    tracer.job = len(outcomes)
                    outcomes.append(harness.run_one(
                        job, error_base,
                        lambda j: tracer.call(f"job.{j.kind}", j.run)))
                    timed += outcomes[-1].seconds
            finally:
                tracer.uninstall()
            if d % 2 == 1:
                replay += sum(harness.run_one(job, error_base).seconds
                              for job in deck)
        harness.verify(outcomes, wl.Oracle(shared)
                       if hasattr(wl, "Oracle") else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = [harness.result(i, o) for i, o in enumerate(outcomes)]
    return results, tracer, timed, replay


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS,
                    help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degcalc",
                                       "__init__.py")):
        print("perfbench: src/degcalc not found; run from the root of a "
              "degcalc checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [os.path.join(root, "src"), HERE]

    if args.setup_probe:
        scaled, wall, _, _ = timed_setup(args.setup_probe)
        print(f"{scaled!r} {wall!r}")
        return 0
    if args.round is not None:
        return run_round(args)

    import harness

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    meta = run_metadata(args)
    t_start = time.perf_counter()
    if args.trace:
        results, tracer, timed, replay = run_traced(args, out_dir)
        e2e, info = harness.end_to_end(results, [math.nan], math.nan)
        metrics = layer_metrics(tracer, results,
                                100.0 * (timed / replay - 1.0))
    else:
        results, setup_samples, peak_rss_mb, speed = run_rounds(
            args, out_dir)
        e2e, info = harness.end_to_end(results, setup_samples, peak_rss_mb)
        info["rounds"] = len(speed["speed_scales"])
        info.update(speed)
        metrics = e2e
    info["wall_s"] = time.perf_counter() - t_start
    by_category, by_defect, unexplained = harness.failure_summary(results)
    failed = sum(by_category.values())
    correct = not unexplained

    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    record = {"meta": meta, "info": info,
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "attempted": len(results), "failed": failed,
              "failures_by_category": by_category,
              "failures_by_known_defect": by_defect,
              "unexplained_failures": unexplained,
              "jobs": harness.job_records(results)}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        tracer.write(stem + "-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  commit {meta['commit']}")
    print(f"python {meta['python']}  numpy {meta['numpy']}  "
          f"scipy {meta['scipy']}  nproc {meta['nproc']}  "
          f"blas threads {meta['blas_threads']}")
    print(f"jobs {len(results)}  failed {failed}  "
          f"job time {info['timed_s']:.3f} s  wall {info['wall_s']:.1f} s  "
          f"failures by category {by_category}  "
          f"by known defect {by_defect}")
    if unexplained:
        print(f"UNEXPLAINED FAILURES ({len(unexplained)}):")
        for u in unexplained[:20]:
            print(f"  job {u['job']} {u['kind']}: {u['reason']}")
    print(f"job_tail_ms is p{info['job_tail_percentile']:.1f} "
          f"of {info['job_samples']} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

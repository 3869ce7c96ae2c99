"""Workload ``spectral``: Schrodinger jobs through the command-line front door.

Why this workload: scalar ring evaluation and the numeric solvers do their
work here, on the path users take: every job writes INI configs and calls
``degcalc.cli.main`` in-process, then reads the files it wrote.  job_p50_ms
is time to accuracy; job_tail_ms is the dense resolvent.

A deck of 23 jobs holds 18 problem jobs, one per model (hydrogen with
charge 1 or 2, an oscillator with strength 1 or 4) and (dimension n, sector
l) pair with n in {2, 3, 4} and l in {0, 1, 2}, each asking for 1-3
eigenvalues; one parametrix job (hydrogen with l = 1 and an oscillator
with l = 2 in turn); and two plain and two weighted resolvent jobs on
drawn problems.  A run holds three decks, one rotation of the problem
design.  Problem jobs run in every round; the parametrix and resolvent
jobs, 1-2 s each, run in one round only (see harness.py).  Its twelve resolvents are its slowest jobs, so the tail (the
11th-largest job) is the second-fastest of them: a low order statistic of
a dozen alike jobs, which noise from other processes moves least.  With 15
costly jobs among 69 the median falls inside the problem jobs that need
three rungs of the ladder, not on the jump from three rungs to four,
where any reordering of two jobs would move it by a third.
A problem job runs ``classify``
and ``membership``, then ``spectrum`` on a grid ladder that doubles
``points`` from 500 until every eigenvalue is within 1e-4 * max(1, |lambda|)
of the analytic value; past 16,000 points the job fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
from fractions import Fraction

import degcalc.cli
from harness import EXIT, WRONG, JobFailed, Job

DIMENSIONS = (2, 3, 4)
SECTORS = (0, 1, 2)
MODELS = {"hydrogen": (1, 2), "oscillator": (1, 4)}
LADDER_START, LADDER_MAX = 500, 16_000
EIGEN_TOL = 1e-4
#: resolvent points z sit this far below min(ground state, 0)
RESOLVENT_OFFSETS = (0.5, 1.0, 2.0)
#: resolvent.txt prints norms and distances with 6 significant digits
PRINT_TOL = 2e-5


#: wall time a deck adds to an untraced run, all its rounds together, at the
#: reference speed (2-core x86-64 container, Python 3.11.7, numpy 2.4.6,
#: scipy 1.17.1, one BLAS thread); a run is whole cycles of CYCLE_DECKS
#: decks, about seconds long
DECK_SECONDS = 13.5
#: decks per rotation of the problem design; a run holds whole rotations,
#: so every seed gets the same problem jobs
CYCLE_DECKS = 3


def setup():
    """Nothing is shared between jobs: each builds its problem from its
    config, as a command-line run would."""
    return {}


def decks(rng, shared, scratch):
    """Problem and parametrix inputs follow a fixed design that rotates
    over three decks (every problem asks for 1, 2 and 3 eigenvalues once
    in a rotation); the seed orders each deck and draws the resolvent
    inputs.  A run's problem jobs are therefore the same from seed to
    seed, which keeps the median on the same job: a job's cost jumps with
    each rung of its ladder, and drawn problems moved the median across
    such a jump."""
    cells = [(n, l) for n in DIMENSIONS for l in SECTORS]
    for r in itertools.count():
        deck = [_problem(scratch, model, MODELS[model][(i + r) % 2], n, l,
                         1 + (i + r) % 3)
                for model in sorted(MODELS)
                for i, (n, l) in enumerate(cells)]
        model = sorted(MODELS)[r % 2]
        deck.append(_parametrix(scratch, model, MODELS[model][0],
                                DIMENSIONS[r % 3], 1 + r % 2))
        deck += [_resolvent(rng, scratch, mode)
                 for mode in ("plain", "weighted") * 2]
        rng.shuffle(deck)
        yield deck


def _draw_model(rng):
    model = rng.choice(sorted(MODELS))
    return model, rng.choice(MODELS[model])


def _problem_section(model, c, n, l):
    if model == "hydrogen":
        gamma, gamma_prime, potential = "1/2", "-1/2", f"{-c},-1,0"
    else:
        gamma, gamma_prime, potential = "-1", "1", f"{c},2,0"
    return (f"[problem]\nn = {n}\ngamma = {gamma}\n"
            f"gamma_prime = {gamma_prime}\npotential = {potential}\n"
            f"l = {l}\n")


def analytic(model, c, n, l, k):
    """Lowest k eigenvalues of -Delta + V on the sector l of R^n."""
    out = []
    for nr in range(k):
        if model == "hydrogen":
            out.append(-c * c / (4.0 * (nr + l + (n - 1) / 2.0) ** 2))
        else:
            out.append(math.sqrt(c) * (4 * nr + 2 * l + n))
    return out


def _cli(scratch, command, problem, extra=""):
    """Run one command through degcalc.cli.main; return its exit code."""
    path = os.path.join(scratch, "run.ini")
    with open(path, "w") as fh:
        fh.write(f"[run]\ncommand = {command}\n{problem}{extra}")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return degcalc.cli.main(["--config", path, "--out", scratch])


def _read(scratch, name):
    with open(os.path.join(scratch, name)) as fh:
        return fh.read()


def _exit_failure(record, stage, code, output=None):
    record["nonzero_exits"] = record.get("nonzero_exits", 0) + 1
    return JobFailed(f"{EXIT}: {stage} exited {code}", output)


# -- problem jobs: classify, membership, spectrum to accuracy ---------------

def _problem(scratch, model, c, n, l, k):
    exact = analytic(model, c, n, l, k)
    section = _problem_section(model, c, n, l)
    record = {"problem": f"{model} c={c} n={n} l={l}", "eigs": k}

    def converged(eigs):
        return len(eigs) == k and all(
            abs(a - b) <= EIGEN_TOL * max(1.0, abs(b))
            for a, b in zip(eigs, exact))

    def run():
        record.update(nonzero_exits=0, points=None, rungs=0)
        out = {}
        for stage, name in (("classify", "classify.txt"),
                            ("membership", "membership.txt")):
            code = _cli(scratch, stage, section)
            if code:
                raise _exit_failure(record, stage, code)
            out[stage] = _read(scratch, name).splitlines()
        points = LADDER_START
        while True:
            code = _cli(scratch, "spectrum", section,
                        f"[grid]\npoints = {points}\n"
                        f"[solve]\nnum_eigs = {k}\n")
            record["rungs"] += 1
            if code:
                raise _exit_failure(record, "spectrum", code, out)
            rows = list(csv.DictReader(io.StringIO(
                _read(scratch, "spectrum.csv"))))
            out["eigs"] = [float(row["eigenvalue"]) for row in rows]
            if converged(out["eigs"]) or points >= LADDER_MAX:
                break
            points *= 2
        if converged(out["eigs"]):
            record["points"] = points
        return out

    def check(out, oracle):
        g = Fraction(1, 2) if model == "hydrogen" else Fraction(-1)
        gp = -g
        gt, gpt = max(g, 1), max(gp, 0)
        want = [f"near 0: {'schr3' if g <= 1 else 'schr4'} rewrite, "
                f"c_{{{gt},{gt - 1}}} calculus",
                f"near infinity: {'schr5' if gp <= 0 else 'schr6'} rewrite, "
                f"c_{{{2 + gpt},{1 + gpt}}} calculus"]
        if out["classify"] != want:
            return f"{WRONG}: classify printed {out['classify']}"
        if out["membership"][-1:] != ["overall: PASS"]:
            return f"{WRONG}: membership printed {out['membership'][-1:]}"
        if not converged(out["eigs"]):
            return f"{WRONG}: eigenvalues {out['eigs']} not within " \
                   f"{EIGEN_TOL} of {exact} at {LADDER_MAX} points"
        return None

    def known_defect(reason):
        spectrum = "spectrum exited" in reason or "eigenvalues" in reason
        return "spectrum_n2_l0" if (n, l) == (2, 0) and spectrum else None

    return Job("problem", record, run, check, known_defect)


# -- parametrix residual table ------------------------------------------------

def _parametrix(scratch, model, c, n, l):
    section = _problem_section(model, c, n, l)
    record = {"problem": f"{model} c={c} n={n} l={l}"}

    def run():
        record["nonzero_exits"] = 0
        code = _cli(scratch, "parametrix", section)
        if code:
            raise _exit_failure(record, "parametrix", code)
        rows = csv.DictReader(io.StringIO(_read(scratch, "parametrix.csv")))
        return {(int(r["N"]), float(r["K"])): float(r["residual_ratio"])
                for r in rows}

    def check(ratio, oracle):
        # default orders 0;1;2 and cutoffs 4;8
        if ratio[(0, 4.0)] != 1.0 or ratio[(0, 8.0)] != 1.0:
            return f"{WRONG}: order-0 ratios are not 1: {ratio}"
        if not ratio[(0, 4.0)] > ratio[(1, 4.0)] > ratio[(2, 4.0)]:
            return f"{WRONG}: ratio does not decrease in N at K=4: {ratio}"
        if not all(ratio[(N, 4.0)] > ratio[(N, 8.0)] for N in (1, 2)):
            return f"{WRONG}: ratio does not decrease in K: {ratio}"
        return None

    return Job("parametrix", record, run, check, repeat=False)


# -- resolvent probe ----------------------------------------------------------

def _resolvent(rng, scratch, mode):
    model, c = _draw_model(rng)
    n, l = rng.choice(DIMENSIONS), rng.choice(SECTORS)
    section = _problem_section(model, c, n, l)
    z = min(analytic(model, c, n, l, 1)[0], 0.0) - rng.choice(
        RESOLVENT_OFFSETS)
    record = {"problem": f"{model} c={c} n={n} l={l}", "mode": mode, "z": z}

    def run():
        record["nonzero_exits"] = 0
        code = _cli(scratch, "resolvent", section,
                    f"[resolvent]\nz_real = {z!r}\nmode = {mode}\n")
        if code:
            raise _exit_failure(record, "resolvent", code)
        out = {}
        for line in _read(scratch, "resolvent.txt").splitlines():
            if line.startswith("spectrum distance = "):
                out["distance"] = float(line.split("=")[1])
            elif line.startswith("i=0 j=0:"):
                out["norm00"] = float(line.split()[3])
        return out

    def check(out, oracle):
        # ||(A - z)^-1|| = 1/dist(z, spec A) for symmetric A; for the
        # weighted (non-normal) operator 1/dist is a lower bound
        inv = 1.0 / out["distance"]
        if mode == "plain" and abs(out["norm00"] - inv) > PRINT_TOL * inv:
            return f"{WRONG}: (0,0) norm {out['norm00']} != 1/distance {inv}"
        if mode == "weighted" and out["norm00"] < inv * (1 - PRINT_TOL):
            return f"{WRONG}: (0,0) norm {out['norm00']} < 1/distance {inv}"
        return None

    return Job(f"resolvent_{mode}", record, run, check, repeat=False)

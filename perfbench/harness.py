"""Jobs, rounds, verification and metric computation.

A workload module provides ``setup()``, which builds the objects shared by
its jobs; ``decks(rng, shared, scratch)``, an endless iterator of job lists
(``scratch`` is a directory the jobs may write to); ``DECK_SECONDS``;
``CYCLE_DECKS``, the length of the cycles its draws are balanced over; and,
if its checks share caches, an ``Oracle`` class holding them.  A job is a
closure over plain input data; its ``run`` builds whatever degcalc objects it
needs, so that work is timed as the program's, and writes what it reached
(grid points, term counts) into its ``record``.

One client issues each job only after the previous one returned.  A run is
a fixed number of whole decks, drawn from the seed before any job runs, so a
seed always means the same jobs.  The machine's speed changes from second to
second, so a run is split into ``ROUNDS`` rounds, each in a fresh process
that rebuilds the same jobs from the seed:
a job marked ``repeat`` runs in every round and its fastest run is its time;
a long job (``repeat`` false), which averages over the machine's speed
changes by itself, runs in one round only.  Outputs are verified after a
round's jobs have all run (a repeated job's in the first round), so the
oracles neither add to job times nor warm anything the jobs use.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

#: a job fails for one of these reasons, recorded as "<category>: <detail>"
WRONG, TYPED, UNTYPED, EXIT = ("wrong_answer", "typed_error",
                               "untyped_error", "nonzero_exit")


class JobFailed(Exception):
    """Raised by a job's run for a failure the job itself detects, such as a
    nonzero CLI exit code; ``reason`` is already categorised."""

    def __init__(self, reason, output=None):
        super().__init__(reason)
        self.reason = reason
        self.output = output


@dataclass
class Job:
    kind: str
    record: dict
    run: Callable[[], object]
    check: Callable[[object, object], str | None]
    known_defect: Callable[[str], str | None] = lambda reason: None
    #: run in every round (False: in one round only)
    repeat: bool = True


@dataclass
class Outcome:
    job: Job
    seconds: float
    output: object = None
    reason: str | None = None       # failure reason, None while correct
    defect: str | None = None       # known-defect id that explains it


#: rounds per run; a job repeated in five rounds spread over half a minute
#: usually meets the machine in its fast state at least once
ROUNDS = 5


def plan_rounds(jobs):
    """Indices of the jobs each round runs, in deck order: every repeated
    job in every round, the others dealt out to the rounds in turn."""
    plan = [[] for _ in range(ROUNDS)]
    dealt = 0
    for i, job in enumerate(jobs):
        if job.repeat:
            for part in plan:
                part.append(i)
        else:
            plan[dealt % ROUNDS].append(i)
            dealt += 1
    return plan


def run_one(job, error_base, call=None):
    """Run one job, timed; ``call(job)`` runs it instead of ``job.run()``
    (the traced run opens a root span around it)."""
    start = time.perf_counter()
    try:
        output = job.run() if call is None else call(job)
        reason = None
    except JobFailed as exc:
        output, reason = exc.output, exc.reason
    except error_base as exc:
        output, reason = None, f"{TYPED}: {type(exc).__name__}: {exc}"
    except Exception as exc:     # the benchmark must survive any job
        output, reason = None, f"{UNTYPED}: {type(exc).__name__}: {exc}"
    return Outcome(job, time.perf_counter() - start, output, reason)


def verify(outcomes, oracle=None):
    """Check every job that returned; attach known-defect ids to failures.
    ``oracle`` holds the caches a workload's checks share, if it has any."""
    for out in outcomes:
        if out.reason is None:
            try:
                out.reason = out.job.check(out.output, oracle)
            except Exception as exc:     # a crashing check is a wrong answer
                out.reason = (f"{WRONG}: check raised "
                              f"{type(exc).__name__}: {exc}")
        if out.reason is not None:
            out.defect = out.job.known_defect(out.reason)


def tail(values):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  With n samples that is the
    11th largest value, the 100*(n-10)/n th percentile; with fewer than 11
    samples the maximum is returned as the 100th percentile.
    """
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def result(index, outcome, scale=1.0):
    """A verified outcome as plain data: what a round process hands back.
    ``seconds`` is its wall time times ``scale`` (calibrate.py)."""
    return {"job": index, "kind": outcome.job.kind,
            "seconds": outcome.seconds * scale,
            "wall_seconds": outcome.seconds, "reason": outcome.reason,
            "defect": outcome.defect, "record": outcome.job.record}


def merge_rounds(rounds):
    """One result per job from the rounds' results (lists of ``result``
    dicts): its time is its fastest run; it fails if any run failed, for
    the first failing run's reason; its record is from its first run."""
    merged = {}
    for results in rounds:
        for r in results:
            m = merged.get(r["job"])
            if m is None:
                merged[r["job"]] = m = dict(r, times=[], wall_times=[])
            m["times"].append(r["seconds"])
            m["wall_times"].append(r["wall_seconds"])
            m["seconds"] = min(m["times"])
            if m["reason"] is None and r["reason"] is not None:
                m["reason"], m["defect"] = r["reason"], r["defect"]
    return [merged[k] for k in sorted(merged)]


def end_to_end(results, setup_samples, peak_rss_mb):
    times = [r["seconds"] for r in results]
    timed = sum(times)
    failed = sum(1 for r in results if r["reason"] is not None)
    tail_value, tail_pct, n = tail(times)
    metrics = {
        "jobs_per_s": ((len(results) - failed) / timed, "1/s"),
        "job_p50_ms": (1e3 * statistics.median(times), "ms"),
        "job_tail_ms": (1e3 * tail_value, "ms"),
        "failed_frac": (failed / len(results), "1"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"job_tail_percentile": tail_pct, "job_samples": n,
            "setup_samples_s": setup_samples, "timed_s": timed}
    return metrics, info


def failure_summary(results):
    """Failures by category, by known defect, and the unexplained ones."""
    by_category, by_defect, unexplained = {}, {}, []
    for r in results:
        if r["reason"] is None:
            continue
        cat = r["reason"].split(":", 1)[0]
        by_category[cat] = by_category.get(cat, 0) + 1
        if r["defect"] is None:
            unexplained.append({"job": r["job"], "kind": r["kind"],
                                "reason": r["reason"]})
        else:
            by_defect[r["defect"]] = by_defect.get(r["defect"], 0) + 1
    return by_category, by_defect, unexplained


def job_records(results):
    return [{"job": r["job"], "kind": r["kind"],
             "time_ms": 1e3 * r["seconds"],
             "times_ms": [1e3 * t for t in r.get("times", [r["seconds"]])],
             "wall_times_ms": [1e3 * t for t in
                               r.get("wall_times", [r["wall_seconds"]])],
             "ok": r["reason"] is None, "reason": r["reason"],
             "known_defect": r["defect"], **r["record"]}
            for r in results]

#!/usr/bin/env python3
"""The pershom benchmark: one command, seeded inputs, every output checked.

    python3 bench/run.py --workload compute-rips2-f2 --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one process, one thread; see gen.py for sizes):

* ``compute-rips2-f2``: CLI ``compute --field 2`` then ``morse`` on Rips
  2-skeleta up to Rips(400, 0.16), two of them invalid.  Parsing and column
  reduction over F2 dominate.
* ``compute-rips3-f3``: CLI ``compute --field 3`` on Rips 3-skeleta up to
  Rips(250, 0.15).  The same reduction over a generic prime, in degree 3.
* ``bottleneck-pairs``: CLI ``bottleneck`` on a diagram and a perturbed
  copy, 5 to 300 finite points, then ``matching_at`` for the witness.
* ``rank-queries``: CLI ``dowker`` on overlap, sphere and ball covers, and
  ``betti_at`` / ``euler_profile`` on Rips(300, 0.12): the dense rank path.

With ``--trace 0`` the run sets up three times in fresh processes (the
median is ``setup_s``), then repeats the workload's fixed job list for
about ``--seconds`` seconds with tracing off and reports ``setup_s``,
the cost of the job list, the median job and the tail job in probe units
(see SpeedProbe) and ``peak_rss_mb``.  The same job figures in seconds
(``wall_s``, ``job_p50_s``, ``job_tail_s``) and ``fail_ratio`` are printed
with them; the result line carries ``fail_ratio`` as ``failed / attempted``.

With ``--trace 1`` the run goes through every workload once, running each
job through the command line and then as untraced and as traced direct
calls into the library (see tracing.py), and reports the per-layer
metrics of all four workloads, so every layer is measured in every traced
run.

The last line of standard output is the JSON result; the full result, with
the environment, goes to ``.bench_work/results/`` and the spans of a traced
run next to it.  The program under test is imported from ``src/`` of the
checkout this file sits in, and the run fails if it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
PROBE_PERIOD = 0.02
BETWEEN_PROBES = 25
REPEAT_SECONDS = 0.1
MAX_REPEATS = 5

# The metrics of the result line.  Job times are reported in probe units
# (see SpeedProbe); the same figures in seconds are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_probes": "probe",
    "job_p50_probes": "probe",
    "job_tail_probes": "probe",
    "peak_rss_mb": "MB",
}


def _prepare():
    """Pin the numeric libraries to one thread and put the checkout's
    ``src`` first on the import path; refuse to run without it."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "pershom" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pershom'} not found; run from a pershom checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pershom

    if Path(pershom.__file__).resolve().parent != SRC / "pershom":
        sys.exit(f"error: imported pershom from {pershom.__file__}, not from {SRC}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _environment(seed: int):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup(workload: str, seed: int, work: Path, scale: str):
    """Generate and write the inputs, then warm up on the first job."""
    import gen
    import jobs

    if work.exists():
        shutil.rmtree(work)
    manifest = gen.generate(workload, seed, work, scale)
    jobs.run_job(manifest["jobs"][0], work)
    return manifest


def timed_setups(args, work: Path):
    """Wall times of SETUP_REPEATS fresh processes that each do ``setup``."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
                "--seed", str(args.seed), "--work", str(work), "--scale", args.scale]
        start = time.perf_counter()
        done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"error: set-up failed:\n{done.stderr}")
    return times


def _probe_work():
    table = {}
    for i in range(400):
        key = (i * 7919 % 409, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda e: (e[1], e[0]))


class SpeedProbe:
    """Samples how fast the CPU runs Python while a job runs.

    The host's other tenants make this machine's speed drift by up to half
    over seconds to minutes, so raw job times do not repeat from run to
    run.  Every PROBE_PERIOD seconds a timer signal times ``_probe_work``, a
    fixed piece of pure-Python work of about 0.2 ms; the same work is also
    timed between jobs.  A job's time divided by the mean probe time of
    its span is its cost in probe units, which stays put when the machine
    slows down.  Probe time inside a job is subtracted from the job time.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def between(self, count=BETWEEN_PROBES):
        for _ in range(count):
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_passes(manifest, work: Path, seconds: float):
    """Repeat the job list while another pass fits in ``seconds``; always at
    least one pass.  Within a pass a job runs again until it has taken
    REPEAT_SECONDS or run MAX_REPEATS times, so that short jobs get enough
    samples.  Returns, per pass and job, the list of run times, of costs in
    probe units and of output snapshots."""
    import jobs

    times, costs, snapshots = [], [], []
    start = time.perf_counter()
    probe = SpeedProbe()
    while not times or time.perf_counter() - start + statistics.median(map(_total, times)) <= seconds:
        gc.collect()
        pass_times, pass_costs, pass_snaps = [], [], []
        probe.samples = []
        probe.between()
        for job in manifest["jobs"]:
            job_times, job_costs, job_snaps = [], [], []
            while len(job_times) < MAX_REPEATS and sum(job_times) < REPEAT_SECONDS:
                first = len(probe.samples) - BETWEEN_PROBES
                with probe:
                    t0 = time.perf_counter()
                    outcome = jobs.run_job(job, work)
                    elapsed = time.perf_counter() - t0
                inside = probe.samples[first + BETWEEN_PROBES:]
                job_snaps.append(jobs.snapshot(job, outcome, work))
                probe.between()
                job_times.append(elapsed - sum(inside))
                job_costs.append(job_times[-1] / statistics.fmean(probe.samples[first:]))
            pass_times.append(job_times)
            pass_costs.append(job_costs)
            pass_snaps.append(job_snaps)
        times.append(pass_times)
        costs.append(pass_costs)
        snapshots.append(pass_snaps)
    return times, costs, snapshots


def _total(per_job):
    """A pass's figure for the whole job list: the sum of each job's median."""
    return sum(statistics.median(reps) for reps in per_job)


def check_passes(manifest, work: Path, snapshots):
    """Check the outputs of the first run of each job; any other run fails
    where its output differs from that one.  Returns (failed, problems)."""
    import jobs

    failed, problems = 0, []
    for k, job in enumerate(manifest["jobs"]):
        first = snapshots[0][k][0]
        found = jobs.check_job(job, first, work)
        problems.extend(f"{job['name']}: {p}" for p in found)
        for n, pass_snaps in enumerate(snapshots):
            for snap in pass_snaps[k]:
                if found or snap != first:
                    failed += 1
                    if not found:
                        problems.append(f"{job['name']}: a run in pass {n + 1} differs from the first")
    return failed, problems


def tail(times):
    """The highest job time with at least TAIL_BEYOND jobs beyond it (the
    largest, when there are too few jobs), its percentile and the number
    of jobs beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def summarise(per_pass):
    """The median pass total, and the median and tail of the job figures.

    A job's figure is the median of all its runs, so that the statistics do
    not depend on how many passes fitted in the run."""
    per_job = [statistics.median([x for reps in runs for x in reps]) for runs in zip(*per_pass)]
    tail_value, percentile, beyond = tail(per_job)
    totals = {"wall": statistics.median(map(_total, per_pass)), "job_p50": statistics.median(per_job),
              "job_tail": tail_value}
    return totals, per_job, percentile, beyond


def end_to_end(args):
    work = WORK / f"{args.workload}-seed{args.seed}"
    setup_times = timed_setups(args, work)
    import jobs

    manifest = json.loads((work / "manifest.json").read_text())
    jobs.run_job(manifest["jobs"][0], work)
    times, costs, snapshots = run_passes(manifest, work, args.seconds)
    failed, problems = check_passes(manifest, work, snapshots)
    attempted = sum(len(reps) for pass_times in times for reps in pass_times)
    seconds, job_seconds, percentile, beyond = summarise(times)
    probes, job_probes, _, _ = summarise(costs)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"{name}_probes": v for name, v in probes.items()},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    names = [job["name"] for job in manifest["jobs"]]
    detail = {
        **{f"{name}_s": v for name, v in seconds.items()},
        "fail_ratio": failed / attempted,
        "job_tail": {"percentile": percentile, "jobs": len(names), "jobs_beyond": beyond},
        "passes": len(times),
        "job_s": dict(zip(names, job_seconds)),
        "job_probes": dict(zip(names, job_probes)),
        "pass_job_s": times,
        "pass_job_probes": costs,
        "setup_runs_s": setup_times,
        "problems": problems,
    }
    lines = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    lines += [(f"{name}_s", v, "s") for name, v in seconds.items()]
    lines.append(("fail_ratio", detail["fail_ratio"], f"ratio ({failed} of {attempted} job runs)"))
    for name, value, unit in lines:
        print(f"{name:<16} {value:.6g} {unit}")
    print(f"job_tail is p{percentile:.1f} of {len(names)} jobs ({beyond} beyond), "
          f"each the median of its runs over {len(times)} passes")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    shutil.rmtree(work)
    return metrics, attempted, failed, detail


def traced(args):
    import gen
    import jobs
    import tracing

    import_times = []
    for _ in range(IMPORT_REPEATS):
        code = "import time; t = time.perf_counter(); import pershom.cli; print(time.perf_counter() - t)"
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        import_times.append(float(done.stdout))
    metrics = {"cli.import_s": {"value": statistics.median(import_times), "unit": "s"}}
    attempted = failed = 0
    detail = {"cli.import_runs_s": import_times, "workloads": {}, "problems": []}
    spans = {}
    for workload in gen.WORKLOADS:
        work = WORK / f"trace-seed{args.seed}" / workload
        manifest = setup(workload, args.seed, work, args.scale)
        # Each job runs through the command line, then as untraced and as
        # traced direct calls, back to back, so that all three see the
        # machine at the same speed.
        tracer = tracing.Tracer()
        counts, answers, snapshots, replay_failed = Counter(), {}, [], []
        walls = [0.0, 0.0, 0.0]
        for job in manifest["jobs"]:
            t0 = time.perf_counter()
            outcome = jobs.run_job(job, work)
            t1 = time.perf_counter()
            direct_ok, _ = tracing.replay_job(job, work, Counter())
            t2 = time.perf_counter()
            traced_ok, answers[job["name"]] = tracing.replay_job(job, work, counts, tracer)
            t3 = time.perf_counter()
            for k, dt in enumerate((t1 - t0, t2 - t1, t3 - t2)):
                walls[k] += dt
            snapshots.append([jobs.snapshot(job, outcome, work)])
            if not (direct_ok and traced_ok):
                replay_failed.append(job["name"])
        bad, problems = check_passes(manifest, work, [snapshots])
        layer, table = tracing.layer_metrics(workload, manifest, work, tracer, counts, answers, walls)
        metrics.update(layer)
        attempted += 3 * len(manifest["jobs"])
        failed += bad + len(replay_failed)
        detail["problems"] += problems + [f"{name}: direct replay failed" for name in replay_failed]
        detail["workloads"][workload] = table
        spans[workload] = tracer.records()
        layers = " ".join(f"{k} {v:.3f}" for k, v in table["layer_self_s"].items() if v)
        print(f"{workload}: command line {walls[0]:.3f} s, direct {walls[1]:.3f} s, traced {walls[2]:.3f} s; "
              f"self time: {layers}, uncovered {table['uncovered_s']:.4f} s")
    shutil.rmtree(WORK / f"trace-seed{args.seed}")
    for name, m in metrics.items():
        print(f"{name:<50} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"][:20]:
        print(f"FAIL {problem}")
    detail["spans"] = spans
    return metrics, attempted, failed, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the small schedules of the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare()
    import gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(gen.WORKLOADS)}")
    if args.setup_only:
        setup(args.workload, args.seed, args.work, args.scale)
        return 0

    if args.trace:
        metrics, attempted, failed, detail = traced(args)
    else:
        metrics, attempted, failed, detail = end_to_end(args)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  scale=args.scale, environment=_environment(args.seed), detail=detail)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

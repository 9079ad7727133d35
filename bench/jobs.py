"""Running the jobs of a workload through the command line, and checking
their outputs.

A job is what one user request does to one generated input: ``compute``
(then ``morse`` on the F2 workload) on a filtration, ``bottleneck`` on a
diagram pair followed by ``matching_at`` for the witness, ``dowker`` on a
cover, or ``betti_at`` / ``euler_profile`` on a filtration.  Command-line
jobs go through ``pershom.cli.main(argv)`` in this process.

The checks run after the timed passes and use facts from the generator's
manifest or answers the benchmark derives itself; where a library oracle
is named by the benchmark's contract (``bottleneck_bruteforce``,
``compute_persistence``) it is called here, outside any timed region.
"""

from __future__ import annotations

import bisect
import contextlib
import io as _io
import math
from pathlib import Path

from pershom import betti_at, bottleneck_bruteforce, compute_persistence, euler_profile, matching_at
from pershom import io as pio
from pershom.bottleneck import BRUTE_FORCE_LIMIT
from pershom.cli import main

MORSE_EPSILON = "0.02"
MORSE_MAX_DEGREE = "2"


def _cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_job(job, work: Path):
    """Execute one job and return its outcome; exceptions become outcomes."""
    try:
        return _RUNNERS[job["kind"]](job, work)
    except Exception as exc:  # a traceback is a failed job, not a crashed run
        return {"exception": f"{type(exc).__name__}: {exc}"}


def _run_compute(job, work):
    out = {"compute": _cli(["compute", "--input", str(work / job["input"]), "--field",
                            str(job["field"]), "--output", str(work / job["output"])])}
    if job["morse"] and out["compute"][0] == 0:
        out["morse"] = _cli(["morse", "--dgm", str(work / job["output"]), "--epsilon",
                             MORSE_EPSILON, "--max-degree", MORSE_MAX_DEGREE])
    return out


def _run_bottleneck(job, work):
    a, b = str(work / job["a"]), str(work / job["b"])
    out = {"bottleneck": _cli(["bottleneck", a, b, "--degree", str(job["degree"])])}
    value = float(out["bottleneck"][1])
    out["witness"] = matching_at(pio.read_diagram(a), pio.read_diagram(b), job["degree"], value)
    return out


def _run_dowker(job, work):
    return {"dowker": _cli(["dowker", "--cover", str(work / job["input"]), "--field", str(job["field"])])}


def _run_profile(job, work):
    complex_ = pio.read_filtration(work / job["input"])
    return {
        "betti": [betti_at(complex_, t, job["degree"]) for t in job["values"]],
        "euler": euler_profile(complex_),
    }


_RUNNERS = {
    "compute": _run_compute,
    "bottleneck": _run_bottleneck,
    "dowker": _run_dowker,
    "profile": _run_profile,
}


def snapshot(job, outcome, work: Path):
    """The outcome plus the output file it wrote, for comparing passes."""
    if job["kind"] == "compute" and (work / job["output"]).exists() and "invalid" not in job:
        return dict(outcome, dgm=(work / job["output"]).read_text())
    return outcome


# --------------------------------------------------------------- checks


def read_points(path: Path):
    """``{degree: [(p, q), ...]}`` from a .dgm file, multiplicity expanded."""
    points = {}
    for line in path.read_text().splitlines():
        d, p, q, m = line.split()
        points.setdefault(int(d), []).extend([(float(p), float(q))] * int(m))
    return points


def alive(points, t: float) -> int:
    return sum(1 for p, q in points if p <= t < q)


def check_job(job, outcome, work: Path):
    """Return a list of problems with the first pass's outcome of ``job``."""
    if "exception" in outcome:
        return [f"uncaught {outcome['exception']}"]
    return _CHECKS[job["kind"]](job, outcome, work)


def _check_compute(job, outcome, work):
    code, stdout, stderr = outcome["compute"]
    if "invalid" in job:
        problems = []
        if code != 1:
            problems.append(f"invalid input ({job['invalid']}) exited {code}, expected 1")
        if not stderr.startswith("error: ") or "Traceback" in stderr:
            problems.append(f"invalid input gave no 'error:' line: {stderr[:120]!r}")
        return problems
    if code != 0:
        return [f"compute exited {code}: {stderr[:200]!r}"]
    points = read_points(work / job["output"])
    problems = []
    for t, chi in job["euler"]:
        got = sum((-1) ** d * alive(pts, t) for d, pts in points.items())
        if got != chi:
            problems.append(f"Euler characteristic at {t!r}: bars give {got}, simplices give {chi}")
    beta0 = alive(points.get(0, []), job["top"])
    if beta0 != job["components"]:
        problems.append(f"beta_0 at the top value is {beta0}, union-find gives {job['components']}")
    if job["morse"]:
        code, stdout, stderr = outcome["morse"]
        if code != 0 or "partial_sum" not in stdout:
            problems.append(f"morse exited {code}: {stderr[:200]!r}")
    return problems


def finite_class(points):
    return [(p, q) for p, q in points if math.isfinite(p) and math.isfinite(q)]


def candidate_grid(points_a, points_b):
    """The sorted candidate costs of the finite class, with the library's
    own float expressions: half lifetimes and L-infinity distances."""
    fa, fb = finite_class(points_a), finite_class(points_b)
    grid = {0.0}
    grid.update((q - p) / 2.0 for p, q in fa + fb)
    grid.update(max(abs(p - r), abs(q - s)) for p, q in fa for r, s in fb)
    return sorted(grid)


def essential_births(points):
    return sorted(p for p, q in points if math.isfinite(p) and q == math.inf)


def _check_bottleneck(job, outcome, work):
    code, stdout, stderr = outcome["bottleneck"]
    if code != 0:
        return [f"bottleneck exited {code}: {stderr[:200]!r}"]
    d = job["degree"]
    value = float(stdout)
    points_a = read_points(work / job["a"]).get(d, [])
    points_b = read_points(work / job["b"]).get(d, [])
    witness = outcome["witness"]
    if job["infinite"]:
        problems = [] if value == math.inf else [f"unequal essential counts gave {value!r}, expected inf"]
        if witness.feasible:
            problems.append("matching_at found a matching across unequal essential counts")
        return problems
    if len(points_a) <= BRUTE_FORCE_LIMIT and len(points_b) <= BRUTE_FORCE_LIMIT:
        a, b = pio.read_diagram(work / job["a"]), pio.read_diagram(work / job["b"])
        oracle = bottleneck_bruteforce(a, b, d).float_value
        return [] if value == oracle else [f"bottleneck {value!r} but brute force {oracle!r}"]
    ess_a, ess_b = essential_births(points_a), essential_births(points_b)
    grid = candidate_grid(points_a, points_b)
    grid = sorted(set(grid) | {abs(x - y) for x in ess_a for y in ess_b})
    problems = []
    if value not in grid:
        problems.append(f"bottleneck {value!r} is not a candidate cost")
    if not witness.feasible:
        problems.append(f"matching_at is infeasible at the answer {value!r}")
    for x, y in witness.matched:
        if x.p.is_finite and x.q.is_finite and max(abs(x.p.value - y.p.value), abs(x.q.value - y.q.value)) > value:
            problems.append(f"witness pairs {x} with {y}, farther than {value!r}")
            break
    below = grid[: bisect.bisect_left(grid, value)]
    if below:
        a, b = pio.read_diagram(work / job["a"]), pio.read_diagram(work / job["b"])
        if matching_at(a, b, d, below[-1]).feasible:
            problems.append(f"matching_at is feasible at {below[-1]!r}, below the answer {value!r}")
    return problems


def _check_dowker(job, outcome, work):
    code, stdout, stderr = outcome["dowker"]
    if code != 0:
        return [f"dowker exited {code}: {stderr[:200]!r}"]
    lines = dict(line.split(": ", 1) for line in stdout.splitlines())
    nerve = [int(v) for v in lines["nerve"].split()]
    vietoris = [int(v) for v in lines["vietoris"].split()]

    def trimmed(ranks):
        while ranks and ranks[-1] == 0:
            ranks = ranks[:-1]
        return ranks

    problems = []
    if lines["agree"] != "yes" or trimmed(nerve) != trimmed(vietoris):
        problems.append(f"nerve {nerve} and Vietoris {vietoris} disagree")
    if job["betti"] is not None and trimmed(vietoris) != job["betti"]:
        problems.append(f"Betti numbers {vietoris}, expected {job['betti']}")
    return problems


def _check_profile(job, outcome, work):
    barcode = compute_persistence(pio.read_filtration(work / job["input"]))
    births, deaths = {}, {}
    for d, iv in barcode:
        births.setdefault(d, []).append(iv.lo.float_value)
        deaths.setdefault(d, []).append(iv.hi.float_value)
    for table in (births, deaths):
        for values in table.values():
            values.sort()

    def alive_at(d, t):
        return bisect.bisect_right(births.get(d, []), t) - bisect.bisect_right(deaths.get(d, []), t)

    problems = []
    for t, got in zip(job["values"], outcome["betti"]):
        want = alive_at(job["degree"], t)
        if got != want:
            problems.append(f"betti_at({t!r}, {job['degree']}) = {got}, alive bars {want}")
    for t, chi in outcome["euler"]:
        want = sum((-1) ** d * alive_at(d, t) for d in births)
        if chi != want:
            problems.append(f"euler_profile at {t!r} is {chi}, alive bars give {want}")
            break
    return problems


_CHECKS = {
    "compute": _check_compute,
    "bottleneck": _check_bottleneck,
    "dowker": _check_dowker,
    "profile": _check_profile,
}

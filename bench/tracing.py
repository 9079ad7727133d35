"""The traced run: the jobs of a workload re-played as direct calls into
the public functions of each module, with a span around every call.

Spans live in memory and are written out when the run ends.  Each records
a name, start, end, parent span and job id; a layer's self time is the
time of its spans minus the part covered by their children.  Nothing here
reaches inside the library: every span sits at a call the benchmark makes.

Three calls in a ``compute`` job repeat work that ``compute_persistence``
also does internally (``validate``, ``sorted_simplices`` and rebuilding
``Barcode(bars)``).  They are timed so that those phases can be seen; their
spans are marked ``repeat``, and ``filtration.reduce_s`` is derived as
``compute_persistence`` minus the three of them.
"""

from __future__ import annotations

import bisect
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

from pershom import (
    Barcode,
    ComplexValidationError,
    PrimeField,
    bottleneck,
    betti_at,
    compute_persistence,
    diagram_of,
    euler_profile,
    homology_ranks,
    matching_at,
    morse_check,
    nerve,
    validate,
    vietoris,
)
from pershom import io as pio

import jobs as _jobs

LAYERS = ("io", "filtration", "barcode", "diagram", "morse", "bottleneck", "covers")

# The per-layer metrics of each workload, with their units.
_COMMON = {
    "io.parse_s": "s",
    "io.bytes_in": "bytes",
    "cli.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead": "ratio",
}
_COMPUTE = {
    "io.write_s": "s",
    "filtration.validate_s": "s",
    "filtration.order_s": "s",
    "filtration.reduce_s": "s",
    "filtration.simplices": "count",
    "barcode.build_s": "s",
    "barcode.bars": "count",
    "diagram.build_s": "s",
    "diagram.points": "count",
}
PER_LAYER = {
    "compute-rips2-f2": {**_COMMON, **_COMPUTE, "morse.check_s": "s"},
    "compute-rips3-f3": {**_COMMON, **_COMPUTE},
    "bottleneck-pairs": {
        **_COMMON,
        "bottleneck.distance_s": "s",
        "bottleneck.matching_s": "s",
        "bottleneck.points": "count",
        "bottleneck.candidates": "count",
        "bottleneck.search_steps": "count",
    },
    "rank-queries": {
        **_COMMON,
        "covers.nerve_s": "s",
        "covers.vietoris_s": "s",
        "covers.vietoris_simplices": "count",
        "covers.ranks_s": "s",
        "filtration.betti_s": "s",
        "filtration.euler_s": "s",
    },
}
# Time metrics read straight off the spans of the same name.
_SPAN_METRICS = {
    "io.parse_s": "io.parse",
    "io.write_s": "io.write",
    "filtration.validate_s": "filtration.validate",
    "filtration.order_s": "filtration.order",
    "barcode.build_s": "barcode.build",
    "diagram.build_s": "diagram.build",
    "morse.check_s": "morse.check",
    "bottleneck.distance_s": "bottleneck.distance",
    "bottleneck.matching_s": "bottleneck.matching",
    "covers.nerve_s": "covers.nerve",
    "covers.vietoris_s": "covers.vietoris",
    "covers.ranks_s": "covers.ranks",
    "filtration.betti_s": "filtration.betti",
    "filtration.euler_s": "filtration.euler",
}


class Tracer:
    """Collects spans as ``[name, start, end, parent, job, repeat]`` lists."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.job = None

    @contextmanager
    def span(self, name: str, repeat: bool = False):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.job, repeat]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def records(self):
        keys = ("name", "start", "end", "parent", "job", "repeat")
        return [dict(zip(keys, s)) for s in self.spans]


def _replay_compute(job, work: Path, span, counts):
    path = work / job["input"]
    counts["io.bytes_in"] += path.stat().st_size
    with span("io.parse"):
        complex_ = pio.read_filtration(path)
    with span("filtration.validate", repeat=True):
        validate(complex_)
    with span("filtration.order", repeat=True):
        complex_.sorted_simplices()
    field = PrimeField(job["field"])
    with span("filtration.persistence"):
        barcode = compute_persistence(complex_, field)
    with span("barcode.build", repeat=True):
        Barcode(barcode.bars)
    with span("diagram.build"):
        diagram = diagram_of(barcode)
    with span("io.write"):
        pio.write_diagram(work / job["output"], diagram)
    counts["filtration.simplices"] += len(complex_)
    counts["barcode.bars"] += len(barcode)
    counts["diagram.points"] += diagram.total()
    if job["morse"]:
        with span("io.parse"):
            diagram = pio.read_diagram(work / job["output"])
        with span("morse.check"):
            morse_check(diagram, float(_jobs.MORSE_EPSILON), int(_jobs.MORSE_MAX_DEGREE)).render()


def _replay_bottleneck(job, work: Path, span, counts):
    a, b, d = work / job["a"], work / job["b"], job["degree"]
    counts["io.bytes_in"] += 2 * (a.stat().st_size + b.stat().st_size)
    with span("io.parse"):
        diagram_a = pio.read_diagram(a)
    with span("io.parse"):
        diagram_b = pio.read_diagram(b)
    with span("bottleneck.distance"):
        value = bottleneck(diagram_a, diagram_b, d)
    with span("io.parse"):
        diagram_a = pio.read_diagram(a)
    with span("io.parse"):
        diagram_b = pio.read_diagram(b)
    with span("bottleneck.matching"):
        matching_at(diagram_a, diagram_b, d, value.float_value)
    counts["bottleneck.points"] += diagram_a.count(d) + diagram_b.count(d)
    return value.float_value


def _replay_dowker(job, work: Path, span, counts):
    path = work / job["input"]
    counts["io.bytes_in"] += path.stat().st_size
    with span("io.parse"):
        cover = pio.read_cover(path)
    with span("covers.nerve"):
        nerve_complex = nerve(cover)
    with span("covers.vietoris"):
        vietoris_complex = vietoris(cover)
    field = PrimeField(job["field"])
    with span("covers.ranks"):
        homology_ranks(nerve_complex, field)
    with span("covers.ranks"):
        homology_ranks(vietoris_complex, field)
    counts["covers.vietoris_simplices"] += len(vietoris_complex)


def _replay_profile(job, work: Path, span, counts):
    path = work / job["input"]
    counts["io.bytes_in"] += path.stat().st_size
    with span("io.parse"):
        complex_ = pio.read_filtration(path)
    for t in job["values"]:
        with span("filtration.betti"):
            betti_at(complex_, t, job["degree"])
    with span("filtration.euler"):
        euler_profile(complex_)


_REPLAYS = {
    "compute": _replay_compute,
    "bottleneck": _replay_bottleneck,
    "dowker": _replay_dowker,
    "profile": _replay_profile,
}


def _no_span(name: str, repeat: bool = False):
    return nullcontext()


def replay_job(job, work: Path, counts: Counter, tracer: Tracer = None):
    """Re-play one job as direct calls, traced when a tracer is given.
    Returns (ok, answer): ``ok`` is false when the replay raised, other
    than by rejecting an invalid input, or accepted an invalid one."""
    span = tracer.span if tracer else _no_span
    if tracer:
        tracer.job = job["name"]
    with span("job"):
        try:
            answer = _REPLAYS[job["kind"]](job, work, span, counts)
        except (pio.FormatError, ComplexValidationError):
            return "invalid" in job, None
        except Exception:
            return False, None
    return "invalid" not in job, answer


def search_counts(job, work: Path, answer: float):
    """Candidate-grid size and binary-search steps of one bottleneck pair,
    computed from the grid the library's search walks.  A pair with unequal
    essential counts is answered before the grid is built."""
    if job["infinite"]:
        return 0, 0
    points_a = _jobs.read_points(work / job["a"]).get(job["degree"], [])
    points_b = _jobs.read_points(work / job["b"]).get(job["degree"], [])
    grid = _jobs.candidate_grid(points_a, points_b)
    # The copies share their essential points, so the answer is the
    # finite-class optimum: the first feasible grid index.
    target = bisect.bisect_left(grid, answer)
    lo, hi, steps = 0, len(grid) - 1, 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if mid >= target:
            hi = mid
        else:
            lo = mid + 1
    return len(grid), steps


def self_times(spans):
    """Per span name: total self time, the span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(workload, manifest, work, tracer, counts, answers, walls):
    """The per-layer metrics of one workload from its spans and counts, plus
    the layer self-time table the result file records.  ``walls`` holds the
    total wall times of the command-line runs, the untraced direct runs and
    the traced runs."""
    cli_wall, direct_wall, traced_wall = walls
    selfs = self_times(tracer.spans)
    repeated = sum(e - s for _, s, e, _, _, rep in tracer.spans if rep)
    covered = sum(t for name, t in selfs.items() if name != "job")
    layers = {layer: 0.0 for layer in LAYERS}
    for name, t in selfs.items():
        if name != "job":
            layers[name.split(".")[0]] += t
    values = dict(counts)
    for metric, name in _SPAN_METRICS.items():
        values[metric] = selfs.get(name, 0.0)
    values["filtration.reduce_s"] = selfs.get("filtration.persistence", 0.0) - (
        selfs.get("filtration.validate", 0.0) + selfs.get("filtration.order", 0.0)
        + selfs.get("barcode.build", 0.0))
    values["trace.uncovered_s"] = traced_wall - covered
    values["trace.overhead"] = traced_wall / direct_wall
    values["cli.overhead_s"] = cli_wall - (direct_wall - repeated)
    if workload == "bottleneck-pairs":
        for job in manifest["jobs"]:
            candidates, steps = search_counts(job, work, answers[job["name"]])
            values["bottleneck.candidates"] = values.get("bottleneck.candidates", 0) + candidates
            values["bottleneck.search_steps"] = values.get("bottleneck.search_steps", 0) + steps
    metrics = {f"{workload}.{m}": {"value": values.get(m, 0), "unit": unit}
               for m, unit in PER_LAYER[workload].items()}
    table = {
        "cli_wall_s": cli_wall,
        "direct_wall_s": direct_wall,
        "traced_wall_s": traced_wall,
        "layer_self_s": layers,
        "repeated_s": repeated,
        "uncovered_s": traced_wall - covered,
        "derived": ["filtration.reduce_s", "cli.overhead_s", "trace.uncovered_s", "trace.overhead"],
        "computed": ["bottleneck.candidates", "bottleneck.search_steps"],
    }
    return metrics, table

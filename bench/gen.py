"""Seeded input generators for the pershom benchmark.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed always writes byte-identical files.  Besides the
input files, ``generate`` returns a manifest: the job list of the workload
plus the facts the output checks need (Euler characteristics, component
counts, known Betti numbers), all computed here from the generated data
and never by the library under test.

The size schedules are fixed; the seed only moves points, labels and
jitter.  That keeps the amount of work per run nearly independent of the
seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

WORKLOADS = ("compute-rips2-f2", "compute-rips3-f3", "bottleneck-pairs", "rank-queries")

BALL_MAX_SIZE = 7
# Covers up to this Vietoris size are checked over both F2 and F3.
BOTH_FIELDS_MAX = 2100
# Each Rips complex and ball cover is built on the median-sized of this
# many seeded samples, which keeps the work of a schedule nearly the same
# across seeds.
DRAWS = 31

FULL = {
    # (points, radius) of each Rips complex: many log-spaced small and middle
    # sizes, so that the median and tail job do not hinge on one input, then
    # the baseline cases Rips(400, 0.16) and Rips(250, 0.15).
    "rips2": tuple((round(100 * 2.2 ** (i / 35)), 0.16) for i in range(36)) + ((400, 0.16),),
    # About one filtration in twenty is broken: these positions of the F2 schedule.
    "rips2_invalid": (3, 21),
    "rips3": tuple((round(90 * 2.33 ** (i / 35)), 0.15) for i in range(36)) + ((250, 0.15),),
    # Finite points of each bottleneck base diagram: log-spaced from 5 to
    # 100, then the 300-vs-300 baseline case.
    "pairs": tuple(round(5 * 20 ** (i / 39)) for i in range(40)) + (300,),
    # Pairs whose copy gets one essential point less, so the answer is inf.
    "inf_pairs": (7, 26),
    "overlap": tuple(range(4, 13)),
    "sphere": tuple(range(2, 11)),
    "balls": (12, 16, 20, 24),
    "profile": (300, 0.12),
}
# Small schedules for the benchmark's own tests.
TINY = {
    "rips2": ((12, 0.5), (30, 0.3), (40, 0.3)),
    "rips2_invalid": (1,),
    "rips3": ((10, 0.5), (20, 0.35)),
    "pairs": (5, 7, 12),
    "inf_pairs": (1,),
    "overlap": (4, 5),
    "sphere": (2, 3),
    "balls": (8,),
    "profile": (25, 0.3),
}
SCALES = {"full": FULL, "tiny": TINY}
DEFECTS = ("malformed-line", "missing-face", "face-born-late")


def _distances(pts):
    return np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])


def clique_count(adj, max_dim: int) -> int:
    """Number of simplices of dimension <= max_dim (max_dim <= 3) in the
    clique complex of a boolean adjacency matrix.  Float32 is exact here:
    every partial sum stays far below 2**24."""
    a = adj.astype(np.float32)
    total = len(a) + a.sum() / 2
    if max_dim >= 2:
        total += (a @ a * a).sum(dtype=np.float64) / 6
    if max_dim >= 3:
        i, j = np.nonzero(np.triu(adj, k=1))
        common = a[i] * a[j]
        total += ((common @ a) * common).sum(dtype=np.float64) / 12
    return int(total)


def rips(rng: np.random.Generator, n: int, r: float, max_dim: int):
    """Vietoris-Rips complex of n uniform points in the unit square.

    Of DRAWS point samples, the one whose complex has the median number of
    simplices is used.  Vertices are born at 0, an edge at its length, a
    higher simplex at its longest edge.  Returns ``[(vertices, value), ...]``
    ordered by dimension and then lexicographically.
    """
    samples = []
    for _ in range(DRAWS):
        pts = rng.random((n, 2))
        adj = _distances(pts) < r
        np.fill_diagonal(adj, False)
        samples.append((clique_count(adj, max_dim), len(samples), pts))
    pts = sorted(samples)[DRAWS // 2][2]
    dist = _distances(pts)
    out = [((v,), 0.0) for v in range(n)]
    nbrs = [set() for _ in range(n)]
    length = {}
    for i, j in zip(*np.nonzero(np.triu(dist < r, k=1))):
        i, j = int(i), int(j)
        nbrs[i].add(j)
        nbrs[j].add(i)
        length[(i, j)] = float(dist[i, j])
    layer = sorted(length)
    out.extend((e, length[e]) for e in layer)
    value = dict(length)
    for _ in range(2, max_dim + 1):
        nxt = []
        for s in layer:
            common = set.intersection(*(nbrs[v] for v in s))
            for w in sorted(u for u in common if u > s[-1]):
                t = s + (w,)
                value[t] = max(value[s], *(length[(v, w)] for v in s))
                nxt.append(t)
        layer = nxt
        out.extend((t, value[t]) for t in layer)
    return out


def format_flt(simplices) -> str:
    return "".join(f"simplex {t!r} {' '.join(map(str, s))}\n" for s, t in simplices)


def euler_at(simplices, t: float) -> int:
    return sum((-1) ** (len(s) - 1) for s, v in simplices if v <= t)


def components(simplices) -> int:
    """Connected components of the whole complex, by union-find on edges."""
    parent = {s[0]: s[0] for s, _ in simplices if len(s) == 1}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(parent)
    for s, _ in simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
                count -= 1
    return count


def check_values(simplices):
    """A few probe values: the quartiles of the distinct filtration values."""
    values = sorted({v for _, v in simplices})
    return [values[(len(values) - 1) * k // 4] for k in (1, 2, 3)]


def break_filtration(rng, simplices, defect: str) -> str:
    """The file text of ``simplices`` with one defect the parser must reject."""
    lines = [f"simplex {t!r} {' '.join(map(str, s))}" for s, t in simplices]
    edges = [i for i, (s, _) in enumerate(simplices) if len(s) == 2]
    tris = [i for i, (s, _) in enumerate(simplices) if len(s) == 3]
    if defect == "malformed-line":
        k = int(rng.integers(len(lines)))
        lines[k] = lines[k].replace("simplex", "simplex x", 1)
    elif defect == "missing-face":
        s, _ = simplices[tris[int(rng.integers(len(tris)))]]
        del lines[next(i for i in edges if simplices[i][0] == s[:2])]
    else:
        s, t = simplices[tris[int(rng.integers(len(tris)))]]
        k = next(i for i in edges if simplices[i][0] == s[1:])
        lines[k] = f"simplex {t + 1.0!r} {s[1]} {s[2]}"
    return "\n".join(lines) + "\n"


def _compute_jobs(rng, out: Path, sizes, max_dim: int, field: int, morse: bool, invalid=()):
    jobs = []
    for k, (n, r) in enumerate(sizes):
        simplices = rips(rng, n, r, max_dim)
        name = f"rips{max_dim}_{k:02d}_n{n}"
        job = {"kind": "compute", "name": name, "input": f"{name}.flt", "output": f"{name}.dgm",
               "field": field, "morse": morse}
        if k in invalid:
            defect = DEFECTS[int(rng.integers(len(DEFECTS)))]
            (out / job["input"]).write_text(break_filtration(rng, simplices, defect))
            job["invalid"] = defect
        else:
            (out / job["input"]).write_text(format_flt(simplices))
            dims = [0] * (max_dim + 1)
            for s, _ in simplices:
                dims[len(s) - 1] += 1
            job["simplices_per_dim"] = dims
            job["euler"] = [[t, euler_at(simplices, t)] for t in check_values(simplices)]
            job["top"] = max(v for _, v in simplices)
            job["components"] = components(simplices)
        jobs.append(job)
    return jobs


def diagram_pair(rng, n: int, unequal: bool):
    """A base diagram of n finite points and a perturbed copy of it.

    The copy drops about a tenth of the finite points, adds short-lived ones
    until it has n again, and moves the rest by up to 0.02 in each
    coordinate.  Both carry the same two or three essential points [b, inf);
    with ``unequal`` the copy has one essential point less.
    """
    births = rng.random(n)
    base = [(float(b), float(b + l)) for b, l in zip(births, rng.uniform(0.02, 0.5, n))]
    ess = [(float(b), math.inf) for b in rng.random(2 + int(rng.integers(2)))]
    copy = []
    for p, q in base:
        if rng.random() < 0.1:
            continue
        p2, q2 = p + float(rng.uniform(-0.02, 0.02)), q + float(rng.uniform(-0.02, 0.02))
        if p2 < q2:
            copy.append((p2, q2))
    while len(copy) < n:
        b = float(rng.random())
        copy.append((b, b + float(rng.uniform(0.001, 0.03))))
    return base + ess, copy + (ess[:-1] if unequal else ess)


def format_dgm(points, degree: int) -> str:
    counts = {}
    for pt in points:
        counts[pt] = counts.get(pt, 0) + 1
    return "".join(f"{degree} {p!r} {q!r} {m}\n" for (p, q), m in sorted(counts.items()))


def _pair_jobs(rng, out: Path, sizes, inf_pairs):
    jobs = []
    for k, n in enumerate(sizes):
        degree = k % 2
        a, b = diagram_pair(rng, n, unequal=k in inf_pairs)
        name = f"pair_{k:02d}_n{n}"
        (out / f"{name}_a.dgm").write_text(format_dgm(a, degree))
        (out / f"{name}_b.dgm").write_text(format_dgm(b, degree))
        jobs.append({"kind": "bottleneck", "name": name, "a": f"{name}_a.dgm", "b": f"{name}_b.dgm",
                     "degree": degree, "infinite": k in inf_pairs})
    return jobs


def _labels(rng, count: int):
    return sorted(int(v) for v in rng.choice(1000, size=count, replace=False))


def format_cov(sets) -> str:
    return "".join(f"set {name} {' '.join(map(str, sorted(elems)))}\n" for name, elems in sets)


def vietoris_size(sets) -> int:
    simplices = set()
    for _, elems in sets:
        elems = sorted(elems)
        for k in range(1, len(elems) + 1):
            simplices.update(combinations(elems, k))
    return len(simplices)


def ball_cover(rng, m: int):
    """Cover of m uniform points by open balls, the radius capped so that
    no ball holds more than BALL_MAX_SIZE points.  Of DRAWS point samples,
    the one whose Vietoris complex has the median size is used."""
    samples = []
    for k in range(DRAWS):
        dist = _distances(rng.random((m, 2)))
        delta = float(np.sort(dist, axis=1)[:, BALL_MAX_SIZE].min())
        sets = [(f"b{i}", [j for j in range(m) if dist[i, j] < delta]) for i in range(m)]
        samples.append((vietoris_size(sets), k, sets))
    return sorted(samples)[DRAWS // 2][2]


def _cover_jobs(out: Path, name: str, sets, fields, betti):
    """Write one cover; one ``dowker`` job per coefficient field."""
    (out / f"{name}.cov").write_text(format_cov(sets))
    size = vietoris_size(sets)
    return [{"kind": "dowker", "name": f"{name}_f{p}", "input": f"{name}.cov", "field": p,
             "betti": betti, "vietoris_simplices": size} for p in fields]


def _fields(i: int, sets):
    """Both F2 and F3 for covers whose Vietoris complex is small, else one
    of them, alternating."""
    return (2, 3) if vietoris_size(sets) <= BOTH_FIELDS_MAX else (2 + i % 2,)


def _rank_jobs(rng, out: Path, scale):
    jobs = []
    for i, k in enumerate(scale["overlap"]):
        labels = _labels(rng, 2 * k - 3)
        sets = [("U", labels[:k]), ("V", labels[k - 3:])]
        jobs += _cover_jobs(out, f"overlap_k{k}", sets, _fields(i, sets), [1])
    for i, k in enumerate(scale["sphere"]):
        labels = _labels(rng, k + 1)
        sets = [(f"c{x}", [y for y in labels if y != x]) for x in labels]
        jobs += _cover_jobs(out, f"sphere_k{k}", sets, _fields(i, sets), [1] + [0] * (k - 2) + [1])
    for i, m in enumerate(scale["balls"]):
        jobs += _cover_jobs(out, f"balls_m{m}", ball_cover(rng, m), (2 + i % 2,), None)
    n, r = scale["profile"]
    simplices = rips(rng, n, r, 2)
    name = f"profile_n{n}"
    (out / f"{name}.flt").write_text(format_flt(simplices))
    jobs.append({"kind": "profile", "name": name, "input": f"{name}.flt",
                 "values": check_values(simplices), "degree": 1})
    return jobs


def generate(workload: str, seed: int, out: Path, scale: str = "full"):
    """Write the inputs of one workload into ``out`` and return its manifest."""
    sizes = SCALES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    if workload == "compute-rips2-f2":
        jobs = _compute_jobs(rng, out, sizes["rips2"], 2, 2, morse=True, invalid=sizes["rips2_invalid"])
    elif workload == "compute-rips3-f3":
        jobs = _compute_jobs(rng, out, sizes["rips3"], 3, 3, morse=False)
    elif workload == "bottleneck-pairs":
        jobs = _pair_jobs(rng, out, sizes["pairs"], sizes["inf_pairs"])
    elif workload == "rank-queries":
        jobs = _rank_jobs(rng, out, sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "scale": scale, "jobs": jobs}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest

"""Shared random generators and independent oracles for the test suite.

The oracles are dense linear algebra over F_p (row elimination, kernels,
rank-nullity) and never call the library's sparse column reduction.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import List, Tuple

import numpy as np

from pershom import FilteredComplex, PersistenceDiagram
from pershom.filtration import facets


def random_diagram(
    rng: random.Random,
    max_points: int = 50,
    max_degree: int = 4,
    essential_rate: float = 0.15,
    neg_inf_rate: float = 0.0,
    low: float = -10.0,
    high: float = 10.0,
) -> PersistenceDiagram:
    """A random diagram with continuous coordinates (ties have measure zero)."""
    table = {}
    for _ in range(rng.randint(0, max_points)):
        d = rng.randint(0, max_degree)
        p = rng.uniform(low, high)
        if rng.random() < neg_inf_rate:
            p = -math.inf
        if rng.random() < essential_rate:
            q = math.inf
        else:
            q = p + rng.uniform(1e-3, high - low) if p != -math.inf else rng.uniform(low, high)
        mult = rng.choice([1, 1, 1, 2, 3])
        bucket = table.setdefault(d, {})
        key = (p, q)
        bucket[key] = bucket.get(key, 0) + mult
    return PersistenceDiagram(table)


def random_filtered_complex(rng: random.Random, max_simplices: int = 40) -> FilteredComplex:
    """A random face-closed monotone complex with vertices, edges, triangles."""
    n = rng.randint(3, 8)
    entries: List[Tuple[Tuple[int, ...], float]] = []
    values = {}
    for v in range(n):
        values[(v,)] = rng.uniform(0.0, 1.0)
        entries.append(((v,), values[(v,)]))
    edges = list(combinations(range(n), 2))
    rng.shuffle(edges)
    for e in edges[: rng.randint(0, len(edges))]:
        if len(entries) >= max_simplices:
            break
        value = max(values[(e[0],)], values[(e[1],)]) + rng.uniform(0.0, 0.5)
        values[e] = value
        entries.append((e, value))
    triangles = [
        t
        for t in combinations(range(n), 3)
        if all(f in values for f in combinations(t, 2))
    ]
    rng.shuffle(triangles)
    for t in triangles[: rng.randint(0, len(triangles))]:
        if len(entries) >= max_simplices:
            break
        value = max(values[f] for f in combinations(t, 2)) + rng.uniform(0.0, 0.5)
        values[t] = value
        entries.append((t, value))
    return FilteredComplex(entries)


def perturb_filtration(
    complex_: FilteredComplex, rng: random.Random, delta: float
) -> Tuple[FilteredComplex, float]:
    """Jitter each value by at most delta, then restore monotonicity by
    pushing every simplex up to the max of its faces.

    The fix keeps the perturbed filtration within delta of the original in
    sup norm; the achieved sup difference is returned alongside.
    """
    jittered = {
        simplex: value + rng.uniform(-delta, delta)
        for simplex, value in complex_.simplices
    }
    fixed = {}
    for simplex in sorted(jittered, key=len):
        value = jittered[simplex]
        for k in range(1, len(simplex)):
            for face in combinations(simplex, k):
                value = max(value, fixed[face])
        fixed[simplex] = value
    original = dict(complex_.simplices)
    achieved = max(abs(fixed[s] - original[s]) for s in fixed)
    return FilteredComplex([(s, fixed[s]) for s, _ in complex_.simplices]), achieved


def random_cover_sets(
    rng: random.Random, max_sets: int = 8, max_elements: int = 12, max_set_size: int = 6
):
    """Random cover data as (name, elements) pairs over a small ground set."""
    ground = list(range(rng.randint(1, max_elements)))
    n_sets = rng.randint(1, max_sets)
    sets = []
    for i in range(n_sets):
        size = rng.randint(0, min(max_set_size, len(ground)))
        sets.append((f"U{i}", rng.sample(ground, size)))
    return sets, ground


def alive_bars(barcode, d: int, t: float) -> int:
    """Bars of degree d alive at t under the closed-left/open-right reading."""
    count = 0
    for degree, iv in barcode:
        if degree != d:
            continue
        lo = iv.lo.float_value
        hi = iv.hi.float_value
        if lo <= t < hi:
            count += 1
    return count


def grid_module_rank(bars, s: float, t: float) -> int:
    """Independent oracle: numpy rank of the structure map of the module
    spanned by ``bars`` presented on the two-point grid {s, t}."""
    alive_s = [i for i, iv in enumerate(bars) if iv.contains(s)]
    alive_t = [i for i, iv in enumerate(bars) if iv.contains(t)]
    if not alive_s or not alive_t:
        return 0
    mat = np.zeros((len(alive_t), len(alive_s)))
    for col, i in enumerate(alive_s):
        if i in alive_t:
            mat[alive_t.index(i), col] = 1.0
    return int(np.linalg.matrix_rank(mat))


def gf_rank(matrix: np.ndarray, field) -> int:
    """Rank of an integer matrix over F_p by row elimination."""
    if matrix.size == 0:
        return 0
    p = field.p
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * field.inv(int(a[rank, col])) % p
        below = a[rank + 1 :, col] != 0
        if below.any():
            a[rank + 1 :][below] = (
                a[rank + 1 :][below] - np.outer(a[rank + 1 :, col][below], a[rank])
            ) % p
        rank += 1
        if rank == rows:
            break
    return rank


def boundary_matrix(simplices, dim: int) -> np.ndarray:
    """Signed incidence matrix from dim-simplices into their facets."""
    rows = sorted(s for s in simplices if len(s) == dim)
    cols = sorted(s for s in simplices if len(s) == dim + 1)
    row_index = {s: i for i, s in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, simplex in enumerate(cols):
        for i, face in enumerate(facets(simplex)):
            mat[row_index[face], j] = 1 if i % 2 == 0 else -1
    return mat


def betti_numbers_oracle(simplices, field) -> Tuple[int, ...]:
    """Dense rank-nullity Betti numbers of a face-closed simplex set, in the
    shape of ``betti_numbers``: one entry per degree up to the top one, or
    ``(0,)`` when empty."""
    if not simplices:
        return (0,)
    top = max(len(s) for s in simplices) - 1
    counts = [sum(1 for s in simplices if len(s) == d + 1) for d in range(top + 1)]
    ranks = [gf_rank(boundary_matrix(simplices, d + 1), field) for d in range(top + 1)]
    return tuple(
        counts[d] - (ranks[d - 1] if d > 0 else 0) - (ranks[d] if d < top else 0)
        for d in range(top + 1)
    )


def betti_oracle_at(complex_, t: float, d: int, field) -> int:
    """Dense dim H_d of the sublevel complex at t, the oracle for ``betti_at``."""
    betti = betti_numbers_oracle(complex_.sublevel(t), field)
    return betti[d] if 0 <= d < len(betti) else 0


def gf_nullspace(mat: np.ndarray, field) -> np.ndarray:
    """Kernel basis (as columns) of an integer matrix over F_p, via RREF."""
    p = field.p
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * field.inv(int(a[r, c])) % p
        others = [i for i in range(rows) if i != r and a[i, c] != 0]
        if others:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-a[i, f]) % p
    return basis


def persistent_rank_oracle(complex_, d: int, s: float, t: float, field) -> int:
    """Independent oracle for rank(H_d(K_s) -> H_d(K_t)) over F_p.

    Computes dim Z_d(K_s) - dim(Z_d(K_s) & B_d(K_t)) directly from kernel
    and image linear algebra, with no reference to the reduction pairing.
    """
    sub_s = complex_.sublevel(s)
    sub_t = complex_.sublevel(t)
    cols_s = sorted(x for x in sub_s if len(x) == d + 1)
    cols_t = sorted(x for x in sub_t if len(x) == d + 1)
    if not cols_s:
        return 0
    kernel = gf_nullspace(boundary_matrix(sub_s, d), field)
    index_t = {x: i for i, x in enumerate(cols_t)}
    embedded = np.zeros((len(cols_t), kernel.shape[1]), dtype=np.int64)
    for row_s, simplex in enumerate(cols_s):
        embedded[index_t[simplex]] = kernel[row_s]
    boundaries = boundary_matrix(sub_t, d + 1)
    dim_z = int(gf_rank(embedded, field))
    rank_b = int(gf_rank(boundaries, field))
    dim_sum = int(gf_rank(np.hstack([embedded, boundaries % field.p]), field))
    dim_meet = dim_z + rank_b - dim_sum
    return dim_z - dim_meet

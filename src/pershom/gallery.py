"""Worked constructions: wedge-of-spheres truncations, the shrinking-interval
product family, and numerical evaluation of the Douglas energy of a
reparametrized closed curve.

The truncation family gives a two-value filtration whose degree-d rank
between any two values past the jump grows without bound in the truncation
index -- finite evidence that the limiting space is not tame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

import numpy as np

from .barcode import Barcode, TooLargeError, integer_value, real_array
from .filtration import GF2, FilteredComplex, betti_at

# Most points per axis of the Douglas quadrature grid: evaluation holds
# several n x n float64 arrays, 128 MiB each at 4096.
QUADRATURE_LIMIT = 4096
# The bound on the gallery's constructions.  Most simplices a `HawaiianSpec`
# may have, 1 + (k - 1)(2^(d+2) - 3) + 2^(d+2) - 2: k = 199,999 circles
# (5k + 2), or one 17-sphere.  Also the most that `hawaiian_rank_sweep` may
# build over all its truncations, and the most bars of `product_family`.
HAWAIIAN_LIMIT = 1_000_000


@dataclass(frozen=True)
class HawaiianSpec:
    """A wedge of k sphere summands of dimension d, the k-th one filled.
    Both are integers by `operator.index`; a spec with more than
    HAWAIIAN_LIMIT simplices raises TooLargeError."""

    d: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "d", integer_value(self.d, "sphere dimension d"))
        object.__setattr__(self, "k", integer_value(self.k, "truncation index k"))
        if self.d < 1:
            raise ValueError(f"requires sphere dimension d >= 1, got {self.d}")
        if self.k < 1:
            raise ValueError(f"requires truncation index k >= 1, got {self.k}")
        size = 1 + (self.k - 1) * (2 ** (self.d + 2) - 3) + 2 ** (self.d + 2) - 2
        if size > HAWAIIAN_LIMIT:
            raise TooLargeError(f"the earring truncation has {size} simplices, over {HAWAIIAN_LIMIT}")


def hawaiian_complex(spec: HawaiianSpec) -> FilteredComplex:
    """Filtered model of the earring truncation: k-1 hollow d-spheres and one
    filled one, wedged at a base vertex.

    Each sphere is the boundary of a (d+1)-simplex through the base vertex;
    the k-th keeps its top cell and is therefore contractible.  The base
    vertex sits at filtration value 0 and every other simplex at 1, so the
    sublevel filtration jumps from a point to the whole wedge.  Any d >= 1
    is accepted; d = 1 (triangle circles) is the well-trodden path.
    """
    d, k = spec.d, spec.k
    rows: List[Tuple[int, ...]] = [(0,)]
    next_vertex = 1
    for sphere in range(1, k + 1):
        verts = (0,) + tuple(range(next_vertex, next_vertex + d + 1))
        next_vertex += d + 1
        filled = sphere == k
        for size in range(1, len(verts) + 1):
            if size == len(verts) and not filled:
                continue
            for simplex in combinations(verts, size):
                if simplex == (0,):
                    continue
                rows.append(simplex)
    return FilteredComplex._from_rows(rows, np.append(0.0, np.ones(len(rows) - 1)))


def _sweep_size(d: int, k_max: int) -> int:
    """Simplices in the truncations k = 1..k_max together: the sum of
    HawaiianSpec's count, K(c - 1) + (c - 3)K(K - 1)/2 with c = 2^(d+2)."""
    c = 2 ** (d + 2)
    return k_max * (c - 1) + (c - 3) * k_max * (k_max - 1) // 2


def hawaiian_rank_sweep(d: int, k_max: int) -> Tuple[Tuple[int, int], ...]:
    """Degree-d rank of the filtration's structure map past the jump, for
    each truncation index k <= k_max.

    The map between any two sublevels at values >= 1 is the identity of the
    whole wedge, so the rank is its d-th Betti number: k - 1.  The sweep
    growing without bound is the finite shadow of the untamed limit.
    A sweep whose truncations have more than HAWAIIAN_LIMIT simplices in
    all raises TooLargeError before any is built.
    """
    k_max = integer_value(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"requires k_max >= 1, got {k_max}")
    d = HawaiianSpec(d, k_max).d  # the largest, checked before any is built
    total = _sweep_size(d, k_max)
    if total > HAWAIIAN_LIMIT:
        raise TooLargeError(f"the earring sweep to k = {k_max} builds {total} simplices, over {HAWAIIAN_LIMIT}")
    out = []
    for k in range(1, k_max + 1):
        complex_ = hawaiian_complex(HawaiianSpec(d, k))
        out.append((k, betti_at(complex_, 1.0, d, GF2)))
    return tuple(out)


def product_family(n: int) -> Barcode:
    """The barcode {[0, 1), [0, 1/2), ..., [0, 1/n)} in degree 0.

    Truncation of the product of ever-shorter half-open intervals; its
    radical opens every left endpoint.  An n over HAWAIIAN_LIMIT raises
    TooLargeError.
    """
    n = integer_value(n, "n")
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if n > HAWAIIAN_LIMIT:
        raise TooLargeError(f"the product family has {n} bars, over {HAWAIIAN_LIMIT}")
    return Barcode._from_arrays(np.zeros(n, np.int64), np.zeros(n), 1.0 / np.arange(1, n + 1),
                                np.ones(n, bool), np.zeros(n, bool))


@dataclass(frozen=True)
class DouglasInput:
    """Uniform samples of a closed curve and of a monotone degree-1 circle map.

    ``curve_samples`` holds g(2*pi*i/K) for i = 0..K-1 as rows; ``phi``
    holds the reparametrization at the same grid points and must be
    monotone with phi(t + 2*pi) = phi(t) + 2*pi.  Every sample must be a
    finite number, not text.  ``quadrature_n`` sets the integration grid,
    an integer from 8 to QUADRATURE_LIMIT points per axis.
    """

    curve_samples: np.ndarray
    phi: np.ndarray
    quadrature_n: int

    def __post_init__(self):
        curve = real_array(self.curve_samples, "curve_samples", finite=True)
        if curve.ndim == 1:
            curve = curve[:, None]
        if curve.ndim != 2:
            raise ValueError(f"curve samples must be a (K, n) array, got shape {curve.shape}")
        phi = real_array(self.phi, "phi", finite=True).ravel()
        object.__setattr__(self, "curve_samples", curve)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "quadrature_n", integer_value(self.quadrature_n, "quadrature_n"))
        if curve.shape[0] != phi.shape[0]:
            raise ValueError(
                f"curve and phi must be sampled on grids of equal size, "
                f"got {curve.shape[0]} and {phi.shape[0]}"
            )
        if curve.shape[0] == 0:
            raise ValueError("need at least one curve sample")
        if np.any(np.diff(phi) < 0) or phi[0] + 2 * math.pi < phi[-1]:
            raise ValueError("phi samples must be monotone over one period")
        if self.quadrature_n < 8:
            raise ValueError(f"requires quadrature_n >= 8, got {self.quadrature_n}")
        if self.quadrature_n > QUADRATURE_LIMIT:
            raise TooLargeError(f"quadrature_n {self.quadrature_n} is over {QUADRATURE_LIMIT}")

    @staticmethod
    def identity(curve_samples: np.ndarray, quadrature_n: int) -> "DouglasInput":
        """Input with the identity reparametrization on the curve's grid."""
        curve = real_array(curve_samples, "curve_samples")
        grid = np.linspace(0.0, 2 * math.pi, len(np.atleast_1d(curve)), endpoint=False)  # empty for no samples
        return DouglasInput(curve, grid, quadrature_n)


def douglas_eval(inp: DouglasInput) -> float:
    """Numerical Douglas energy (1/16) double-integral of
    ||g(phi(a)) - g(phi(b))||^2 / sin((a-b)/2)^2 over [0, 2*pi)^2.

    Uses two interleaved midpoint grids of size n, offset by half a cell so
    the diagonal a = b (a removable singularity for Lipschitz curves) is
    never sampled.  The curve and phi are interpolated linearly and
    periodically between their samples.
    """
    n = inp.quadrature_n
    h = 2 * math.pi / n
    alpha = (np.arange(n) + 0.5) * h
    beta = np.arange(n) * h

    grid = np.arange(inp.phi.shape[0]) * (2 * math.pi / inp.phi.shape[0])
    # phi minus identity is 2*pi-periodic; interpolate that and add back.
    drift = inp.phi - grid

    def curve_at(angles: np.ndarray) -> np.ndarray:
        mapped = np.interp(angles, grid, drift, period=2 * math.pi) + angles
        return np.column_stack(
            [
                np.interp(mapped, grid, coord, period=2 * math.pi)
                for coord in inp.curve_samples.T
            ]
        )

    ga = curve_at(alpha)
    gb = curve_at(beta)
    sq_dist = (
        (ga * ga).sum(axis=1)[:, None]
        + (gb * gb).sum(axis=1)[None, :]
        - 2.0 * ga @ gb.T
    )
    np.maximum(sq_dist, 0.0, out=sq_dist)
    kernel = np.sin((alpha[:, None] - beta[None, :]) / 2.0) ** (-2)
    return float(h * h / 16.0 * (kernel * sq_dist).sum())


__all__ = [
    "HawaiianSpec",
    "DouglasInput",
    "hawaiian_complex",
    "hawaiian_rank_sweep",
    "product_family",
    "douglas_eval",
    "QUADRATURE_LIMIT",
    "HAWAIIAN_LIMIT",
]

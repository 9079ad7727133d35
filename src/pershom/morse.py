"""Cap numbers, essential dimensions, and generalized Morse inequalities.

All quantities are integer sums over a persistence diagram.  Two cap-number
flavors exist side by side: the per-value count sums only over finite
endpoints at a fixed value t, while the aggregated count also admits
essential deaths (in the lower degree) and infinite births (in the upper
degree).  They agree when the diagram has no points with an infinite
coordinate and genuinely differ otherwise; both are provided as defined.

Degrees below zero are treated as identically empty throughout this
module; this is the base case that makes the alternating-sum telescoping
close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .diagram import DiagramPoint, PersistenceDiagram, quadrant_count
from .extreal import NEG_INF, ExtendedReal


class PreconditionViolated(Exception):
    """The diagram has a point born at -inf, outside the theorem's hypotheses."""

    def __init__(self, degree: int, point: DiagramPoint):
        self.degree = degree
        self.point = point
        super().__init__(f"degree {degree} has a -inf birth at {point}")


class MorseCheckFailed(Exception):
    """An identity or inequality the theorem guarantees fails at a degree."""

    def __init__(self, degree: int, message: str):
        self.degree = degree
        super().__init__(f"degree {degree}: {message}")


def _items(diagram: PersistenceDiagram, d: int):
    if d < 0:
        return ()
    return diagram.items(d)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0 or math.isnan(eps):
        raise ValueError(f"requires eps > 0, got {eps}")
    return eps


def cap_number_at(diagram: PersistenceDiagram, d: int, t: float, eps: float) -> int:
    """Count of degree-d homological events at value t persisting beyond eps.

    Deaths at t of degree-(d-1) classes born more than eps earlier, plus
    births at t of degree-d classes dying more than eps later; only finite
    companion endpoints participate.
    """
    eps = _check_eps(eps)
    t_ext = ExtendedReal(t)
    total = 0
    for pt, mult in _items(diagram, d - 1):
        if pt.q == t_ext and pt.p.is_finite and t - pt.p.value > eps:
            total += mult
    for pt, mult in _items(diagram, d):
        if pt.p == t_ext and pt.q.is_finite and pt.q.value - t > eps:
            total += mult
    return total


def cap_number(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    """Aggregated count of degree-d events persisting beyond eps.

    Points of degree d-1 with finite death and lifetime > eps, plus points
    of degree d with finite birth and lifetime > eps (essential deaths
    included in the second sum, -inf births in the first).
    """
    eps = _check_eps(eps)
    total = 0
    for pt, mult in _items(diagram, d - 1):
        if pt.q.is_finite and pt.gap > eps:
            total += mult
    for pt, mult in _items(diagram, d):
        if pt.p != NEG_INF and pt.gap > eps:
            total += mult
    return total


def essential_dimension(diagram: PersistenceDiagram, d: int) -> int:
    """Number of degree-d points with death at +inf (births at -inf included)."""
    return sum(m for pt, m in _items(diagram, d) if not pt.q.is_finite)


def nu(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    """Number of degree-d points with both endpoints finite and lifetime > eps."""
    eps = _check_eps(eps)
    return sum(
        m
        for pt, m in _items(diagram, d)
        if pt.p.is_finite and pt.q.is_finite and pt.gap > eps
    )


@dataclass(frozen=True)
class MorseReport:
    """Per-degree cap data and the alternating partial sums that must be >= 0."""

    epsilon: float
    rows: Tuple[Tuple[int, int, int, int], ...]  # (d, m_eps, p, nu)
    partial_sums: Tuple[int, ...]

    def render(self) -> str:
        lines = [f"{'d':>4} {'m_eps':>8} {'p':>6} {'nu':>6}"]
        for d, m_eps, p_d, nu_d in self.rows:
            lines.append(f"{d:>4} {m_eps:>8} {p_d:>6} {nu_d:>6}")
        lines.append("")
        lines.append(f"{'n':>4} {'partial_sum':>12}")
        for n, s in enumerate(self.partial_sums):
            lines.append(f"{n:>4} {s:>12}")
        return "\n".join(lines)


def morse_check(diagram: PersistenceDiagram, eps: float, n_max: int) -> MorseReport:
    """Evaluate the Morse inequalities on a diagram with no -inf births.

    For each degree 0 <= d <= n_max the report carries the aggregated cap
    number, the essential dimension, and the finite-lifetime count nu; the
    exact identity ``m_eps(d) - p(d) = nu(d-1) + nu(d)`` and the
    nonnegativity of every alternating partial sum are checked.

    Raises PreconditionViolated if any degree contains a point born at -inf,
    and MorseCheckFailed, naming the degree, if a check fails.
    """
    eps = _check_eps(eps)
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"requires n_max >= 0, got {n_max}")
    for d in diagram.degrees():
        for pt, _ in diagram.items(d):
            if pt.p == NEG_INF:
                raise PreconditionViolated(d, pt)

    rows = []
    nus = {-1: 0}
    for d in range(n_max + 1):
        nus[d] = nu(diagram, d, eps)
        rows.append((d, cap_number(diagram, d, eps), essential_dimension(diagram, d), nus[d]))

    partial_sums = []
    for n in range(n_max + 1):
        partial_sums.append(
            sum((-1) ** (n - d) * (m_eps - p_d) for d, m_eps, p_d, _ in rows[: n + 1])
        )

    for d, m_eps, p_d, nu_d in rows:
        if m_eps - p_d != nus[d - 1] + nu_d:
            raise MorseCheckFailed(
                d,
                f"m_eps - p = {m_eps} - {p_d} differs from "
                f"nu({d - 1}) + nu({d}) = {nus[d - 1]} + {nu_d}",
            )
    for n, s in enumerate(partial_sums):
        if s < 0:
            raise MorseCheckFailed(n, f"partial sum {s} < 0 in {tuple(partial_sums)}")
    return MorseReport(eps, tuple(rows), tuple(partial_sums))


def cap_finiteness_bound(
    diagram: PersistenceDiagram, d: int, eps: float, t0: float, t1: float
) -> Tuple[int, int]:
    """Compare the band count in [t0, t1] against a finite quadrant cover.

    lhs counts degree-d points with t0 <= p < q <= t1 and lifetime >= eps;
    rhs sums the open-quadrant counts at corners (x_i, x_i + eps/2) for the
    grid x_i = t0 + i*eps/2.  The quadrants cover the band, so lhs <= rhs.
    """
    eps = _check_eps(eps)
    if t0 > t1:
        raise ValueError(f"requires t0 <= t1, got {t0} > {t1}")
    lo, hi = ExtendedReal(t0), ExtendedReal(t1)
    lhs = sum(
        m
        for pt, m in _items(diagram, d)
        if lo <= pt.p and pt.q <= hi and pt.gap >= eps
    )
    steps = math.ceil(2 * (t1 - t0) / eps)
    rhs = sum(
        quadrant_count(diagram, d, t0 + i * eps / 2, t0 + i * eps / 2 + eps / 2)
        for i in range(steps + 1)
    )
    return lhs, rhs


__all__ = [
    "PreconditionViolated",
    "MorseCheckFailed",
    "MorseReport",
    "cap_number_at",
    "cap_number",
    "essential_dimension",
    "nu",
    "morse_check",
    "cap_finiteness_bound",
]

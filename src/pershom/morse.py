"""Cap numbers, essential dimensions, and generalized Morse inequalities.

All quantities are integer sums over a persistence diagram: masked sums
over its arrays, exact Python ints, with no point made, and each lifetime
q - p compared with eps exactly, so (-1e-20, 0.2) outlives 0.2.  Two
cap-number flavors exist side by side: the per-value count sums only over
finite endpoints at a fixed value t, while the aggregated count also
admits essential deaths (in the lower degree) and infinite births (in the
upper degree).  They agree when the diagram has no points with an infinite
coordinate and genuinely differ otherwise; both are provided as defined.

Degrees below zero are treated as identically empty throughout this
module; this is the base case that makes the alternating-sum telescoping
close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .barcode import integer_value, query_value
from .diagram import DiagramPoint, PersistenceDiagram, Rows

CAP_GRID_LIMIT = 10**6  # quadrant corners of one cap_finiteness_bound call
MORSE_DEGREE_LIMIT = 10_000  # the largest n_max of a morse_check call, about 0.2 s and 3.3 MB of report
_EMPTY: Rows = (np.empty(0), np.empty(0), np.empty(0, np.int64))  # the points of a degree below zero


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


def _arrays(diagram: PersistenceDiagram, d: int) -> Rows:
    d = integer_value(d, "degree")
    return diagram.arrays(d) if d >= 0 else _EMPTY


def _check_eps(eps: float) -> float:
    eps = query_value(eps, "eps")
    if not eps > 0:
        raise ValueError(f"requires eps > 0, got {eps}")
    return eps


def _longer(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Where the exact lifetime q - p is over eps.  Rounding is monotone, so
    the rounded s = q - p decides all but a tie s == eps, where the sign of
    its rounding error e, found by TwoSum (Knuth, TAOCP vol. 2), decides."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = q - p  # inf where it overflows: over any finite eps, as q - p is
        longer, tie = s > eps, s == eps
        if np.count_nonzero(tie):
            s, q, p = s[tie], q[tie], p[tie]
            back = s - q  # NaN follows at an infinite eps, and where this overflows (p = -max, e < 0): False
            longer[tie] = (q - (s - back)) + (-p - back) > 0
    return longer


def cap_number_at(diagram: PersistenceDiagram, d: int, t: float, eps: float) -> int:
    """Count of degree-d homological events at value t persisting beyond eps.

    Deaths at t of degree-(d-1) classes born more than eps earlier, plus
    births at t of degree-d classes dying more than eps later, exactly; only
    finite companion endpoints participate.  No finite endpoint sits at an
    infinite t, where the count is 0; a NaN t raises ValueError.
    """
    d, eps = integer_value(d, "degree"), _check_eps(eps)
    t = query_value(t, "t")
    if not math.isfinite(t):
        return 0
    p, q, mult = _arrays(diagram, d - 1)
    deaths = int(mult[(q == t) & np.isfinite(p) & _longer(p, q, eps)].sum())
    p, q, mult = _arrays(diagram, d)
    return deaths + int(mult[(p == t) & np.isfinite(q) & _longer(p, q, eps)].sum())


def cap_number(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    """Aggregated count of degree-d events persisting beyond eps.

    Points of degree d-1 with finite death and exact lifetime > eps, plus
    points of degree d with finite birth and exact lifetime > eps (essential
    deaths included in the second sum, -inf births in the first).
    """
    d, eps = integer_value(d, "degree"), _check_eps(eps)
    p, q, mult = _arrays(diagram, d - 1)
    deaths = int(mult[np.isfinite(q) & _longer(p, q, eps)].sum())
    p, q, mult = _arrays(diagram, d)
    return deaths + int(mult[(p != -np.inf) & _longer(p, q, eps)].sum())


def essential_dimension(diagram: PersistenceDiagram, d: int) -> int:
    """Number of degree-d points with death at +inf (births at -inf included)."""
    _, q, mult = _arrays(diagram, d)
    return int(mult[np.isinf(q)].sum())


def nu(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    """Number of degree-d points with both endpoints finite and exact lifetime > eps."""
    eps = _check_eps(eps)
    p, q, mult = _arrays(diagram, d)
    return int(mult[np.isfinite(p) & np.isfinite(q) & _longer(p, q, eps)].sum())


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
    and MorseCheckFailed, naming the degree, if a check fails.  An n_max
    over MORSE_DEGREE_LIMIT raises TooLargeError before any degree is counted.
    """
    eps = _check_eps(eps)
    n_max = integer_value(n_max, "n_max", least=0, most=MORSE_DEGREE_LIMIT)
    for d in diagram.degrees():
        p, q, _ = diagram.arrays(d)
        if len(p) and p[0] == -np.inf:  # sorted by p, so a -inf birth comes first
            raise PreconditionViolated(d, DiagramPoint(p[0], q[0]))

    rows = []
    nus = {-1: 0}
    for d in range(n_max + 1):
        nus[d] = nu(diagram, d, eps)
        rows.append((d, cap_number(diagram, d, eps), essential_dimension(diagram, d), nus[d]))

    partial_sums, s = [], 0  # s_n = sum over d <= n of (-1)^(n-d) (m_eps(d) - p(d)) = (m_eps(n) - p(n)) - s_(n-1)
    for _, m_eps, p_d, _ in rows:
        s = m_eps - p_d - s
        partial_sums.append(s)

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

    lhs counts degree-d points with t0 <= p < q <= t1 and exact lifetime >
    eps, as the cap numbers do; rhs sums the open-quadrant counts at corners
    (x_i, x_i + eps/2) for the grid x_i = t0 + i*eps/2.  A band point's
    (p, q - eps/2) is longer than eps/2 and holds a corner, so lhs <= rhs
    where the corners are exact floats; at t0 = 2**52 + 1 they round, and
    (t0, t0 + 1) at eps = 0.5 gives (1, 0).  Both t0 and t1 must be finite;
    otherwise ValueError names the argument.  A grid of more than
    CAP_GRID_LIMIT corners raises TooLargeError before any count.  Both
    corner coordinates rise with i, so the corners whose quadrant holds a
    point (p, q) run from the first x_i > p to the last x_i + eps/2 < q.
    """
    eps = _check_eps(eps)
    t0, t1 = query_value(t0, "t0", finite=True), query_value(t1, "t1", finite=True)
    if t0 > t1:
        raise ValueError(f"requires t0 <= t1, got {t0} > {t1}")
    if (span := 2 * (t1 - t0) / eps) == math.inf:  # the corners less one, before rounding up, overflowed
        from fractions import Fraction  # counted exactly; imported only here, as it slows each start by ms
        span = 2 * (Fraction(t1) - Fraction(t0)) / Fraction(eps)
    steps = math.ceil(span)
    integer_value(steps + 1, "the quadrant grid's corner count", most=CAP_GRID_LIMIT)
    p, q, mult = _arrays(diagram, d)
    lhs = int(mult[(t0 <= p) & (q <= t1) & _longer(p, q, eps)].sum())
    x = t0 + np.arange(steps + 1) * eps / 2
    corners = np.searchsorted(x + eps / 2, q, "left") - np.searchsorted(x, p, "right")
    return lhs, int(np.maximum(corners, 0).astype(object) @ mult)  # in Python ints, so exact


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
    "CAP_GRID_LIMIT",
    "MORSE_DEGREE_LIMIT",
]

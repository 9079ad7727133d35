"""Properties of the library's source as a whole."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import pershom
from pershom import (
    Barcode,
    FilteredComplex,
    HawaiianSpec,
    Interval,
    PersistenceDiagram,
    barcode_rank,
    betti_at,
    bottleneck,
    bottleneck_bruteforce,
    cap_finiteness_bound,
    cap_number,
    cap_number_at,
    constancy_witness,
    diagram_of,
    essential_dimension,
    hawaiian_rank_sweep,
    interleaving_distance,
    matching_at,
    nu,
    quadrant_count,
)


def test_library_holds_no_assert_statement():
    # checks must be real exceptions, which `python -O` cannot skip
    modules = sorted(Path(pershom.__file__).parent.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert found == []


_COMPLEX = FilteredComplex([((0,), 0.0), ((1,), 0.0), ((2,), 1.0), ((0, 1), 1.0), ((1, 2), 2.0)])
_DIAGRAM = PersistenceDiagram({0: [(0, 1), (0, 2), (0.5, math.inf)], 1: [(1, 3)]})
_BARCODE = Barcode([(0, Interval.closed_open(0, 1)), (0, Interval.closed_open(0.5, math.inf)),
                    (1, Interval.closed_open(1, 3))])

# Every public callable with a parameter `d`, and the degree queries of
# `Barcode` and `PersistenceDiagram`, as a call of its d, with the d whose
# answer a numpy integer must reproduce and the name its error gives.
DEGREE_CALLS = {
    "barcode_rank": (lambda d: barcode_rank(_BARCODE, d, 0.5, 0.7), 0, "degree"),
    "constancy_witness": (lambda d: constancy_witness(_BARCODE, d), 0, "degree"),
    "quadrant_count": (lambda d: quadrant_count(_DIAGRAM, d, 0.7, 0.8), 0, "degree"),
    "cap_number_at": (lambda d: cap_number_at(_DIAGRAM, d, 0.0, 0.1), 0, "degree"),
    "cap_number": (lambda d: cap_number(_DIAGRAM, d, 0.1), 0, "degree"),
    "essential_dimension": (lambda d: essential_dimension(_DIAGRAM, d), 0, "degree"),
    "nu": (lambda d: nu(_DIAGRAM, d, 0.1), 0, "degree"),
    "cap_finiteness_bound": (lambda d: cap_finiteness_bound(_DIAGRAM, d, 0.5, 0.0, 3.0), 0, "degree"),
    "bottleneck": (lambda d: bottleneck(_DIAGRAM, diagram_of(_BARCODE), d), 0, "degree"),
    "matching_at": (lambda d: matching_at(_DIAGRAM, diagram_of(_BARCODE), d, 0.5), 0, "degree"),
    "bottleneck_bruteforce": (lambda d: bottleneck_bruteforce(_DIAGRAM, diagram_of(_BARCODE), d), 0, "degree"),
    "interleaving_distance": (lambda d: interleaving_distance(_BARCODE, _BARCODE, d), 0, "degree"),
    "betti_at": (lambda d: betti_at(_COMPLEX, 1.0, d), 0, "degree"),
    "HawaiianSpec": (lambda d: HawaiianSpec(d, 2), 1, "d"),
    "hawaiian_rank_sweep": (lambda d: hawaiian_rank_sweep(d, 2), 1, "d"),
    "Barcode.in_degree": (lambda d: _BARCODE.in_degree(d), 0, "degree"),
    "PersistenceDiagram.items": (lambda d: list(_DIAGRAM.items(d)), 0, "degree"),
    "PersistenceDiagram.count": (lambda d: _DIAGRAM.count(d), 0, "degree"),
    "PersistenceDiagram.multiplicity": (lambda d: _DIAGRAM.multiplicity(d, (0, 1)), 0, "degree"),
}


def _has_a_d_parameter(obj) -> bool:
    try:
        return "d" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def test_every_public_callable_with_a_d_parameter_is_in_the_degree_table():
    public = {name for name in pershom.__all__ if callable(getattr(pershom, name))}
    assert {name for name in public if _has_a_d_parameter(getattr(pershom, name))} <= set(DEGREE_CALLS)
    assert set(DEGREE_CALLS) <= public | {name for name in DEGREE_CALLS if "." in name}


@pytest.mark.parametrize("name", sorted(DEGREE_CALLS))
def test_degrees_are_integers_api_wide(name):
    call, d, word = DEGREE_CALLS[name]
    for bad in (d + 0.5, d - 0.5, float(d), str(d)):  # neither an empty degree nor degree 0
        with pytest.raises(ValueError, match=rf"\b{word} must be an integer, got {bad!r}"):
            call(bad)
    assert call(np.int64(d)) == call(d)

"""Properties of the library's source as a whole."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pershom
from pershom import (
    Barcode,
    ConstancyWitness,
    FilteredComplex,
    HawaiianSpec,
    Interval,
    PersistenceDiagram,
    balls_cover,
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
    interval_module_rank,
    matching_at,
    morse_check,
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


def test_importing_the_library_and_its_cli_leaves_scipy_unloaded():
    # numpy is the one dependency in pyproject.toml; any scipy submodule would load `scipy` itself
    run = subprocess.run(
        [sys.executable, "-c", "import sys, pershom, pershom.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(pershom.__file__).parents[1])},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


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
    "PersistenceDiagram.arrays": (lambda d: [part.tolist() for part in _DIAGRAM.arrays(d)], 0, "degree"),
    "PersistenceDiagram.count": (lambda d: _DIAGRAM.count(d), 0, "degree"),
    "PersistenceDiagram.multiplicity": (lambda d: _DIAGRAM.multiplicity(d, (0, 1)), 0, "degree"),
}


def _public_parameters():
    """Parameter names of every public callable, and of every public method
    of a public class as ``Class.method``."""
    found = {}
    for name in pershom.__all__:
        obj = getattr(pershom, name)
        members = vars(obj).items() if inspect.isclass(obj) else ()
        for label, member in [(name, obj)] + [(f"{name}.{m}", f) for m, f in members if not m.startswith("_")]:
            if callable(member):
                try:
                    found[label] = set(inspect.signature(member).parameters)
                except (TypeError, ValueError):  # no signature to read
                    found[label] = set()
    return found


def test_every_public_callable_with_a_d_parameter_is_in_the_degree_table():
    public = _public_parameters()
    assert {name for name, params in public.items() if "d" in params} <= set(DEGREE_CALLS)
    assert set(DEGREE_CALLS) <= set(public)


@pytest.mark.parametrize("name", sorted(DEGREE_CALLS))
def test_degrees_are_integers_api_wide(name):
    call, d, word = DEGREE_CALLS[name]
    for bad in (d + 0.5, d - 0.5, float(d), str(d)):  # neither an empty degree nor degree 0
        with pytest.raises(ValueError, match=rf"\b{word} must be an integer, got {bad!r}"):
            call(bad)
    assert call(np.int64(d)) == call(d)


# Every public callable with a real-valued query parameter, as a call by
# keyword, with the value each parameter takes when another is varied.
VALUE_PARAMETERS = {"s", "t", "x", "y", "t0", "t1", "eps", "delta"}
VALUE_CALLS = {
    "barcode_rank": (lambda s, t: barcode_rank(_BARCODE, 0, s, t), {"s": 0.5, "t": 0.7}),
    "interval_module_rank": (lambda s, t: interval_module_rank(Interval.closed_open(0, 1), s, t),
                             {"s": 0.5, "t": 0.7}),
    "ConstancyWitness": (lambda t0, t1: ConstancyWitness(t0, t1), {"t0": 0.0, "t1": 1.0}),
    "quadrant_count": (lambda x, y: quadrant_count(_DIAGRAM, 0, x, y), {"x": 0.7, "y": 0.8}),
    "betti_at": (lambda t: betti_at(_COMPLEX, t, 0), {"t": 1.0}),
    "cap_number_at": (lambda t, eps: cap_number_at(_DIAGRAM, 0, t, eps), {"t": 0.0, "eps": 0.1}),
    "cap_number": (lambda eps: cap_number(_DIAGRAM, 0, eps), {"eps": 0.1}),
    "nu": (lambda eps: nu(_DIAGRAM, 0, eps), {"eps": 0.1}),
    "morse_check": (lambda eps: morse_check(_DIAGRAM, eps, 1), {"eps": 0.1}),
    "cap_finiteness_bound": (lambda eps, t0, t1: cap_finiteness_bound(_DIAGRAM, 0, eps, t0, t1),
                             {"eps": 0.5, "t0": 0.0, "t1": 3.0}),
    "matching_at": (lambda delta: matching_at(_DIAGRAM, diagram_of(_BARCODE), 0, delta), {"delta": 0.5}),
    "balls_cover": (lambda delta: balls_cover([[0, 1], [1, 0]], delta), {"delta": 1.5}),
    "Interval.contains": (lambda t: Interval.closed_open(0, 1).contains(t), {"t": 0.5}),
}


def test_every_public_callable_with_a_value_parameter_is_in_the_value_table():
    public = _public_parameters()
    assert {name for name, params in public.items() if params & VALUE_PARAMETERS} == set(VALUE_CALLS)
    for name, (_, values) in VALUE_CALLS.items():
        assert set(values) == public[name] & VALUE_PARAMETERS, name


@pytest.mark.parametrize("name", sorted(VALUE_CALLS))
def test_values_are_real_numbers_api_wide(name):
    call, values = VALUE_CALLS[name]
    for word, value in values.items():
        for text in ("0.5", b"0.5", bytearray(b"0.5")):  # `float` would parse each
            with pytest.raises(ValueError, match=rf"^{word} must be a real number, got " + re.escape(repr(text))):
                call(**{**values, word: text})
        with pytest.raises(ValueError, match=rf"^{word} must (not be NaN|be finite), got nan"):
            call(**{**values, word: math.nan})
        assert call(**{**values, word: np.float64(value)}) == call(**values)

"""Properties of the library's source as a whole."""

import ast
import importlib.util
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
    DiagramPoint,
    DouglasInput,
    FilteredComplex,
    HawaiianSpec,
    Interval,
    PersistenceDiagram,
    TextValueError,
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
    lower_star,
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


_MODULES = ("barcode", "bottleneck", "covers", "diagram", "filtration", "gallery", "morse")


def test_the_package_exports_each_module_all_once():
    modules = [sys.modules[f"pershom.{name}"] for name in _MODULES]  # `pershom.bottleneck` is the function
    assert pershom.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(pershom.__all__)) == len(pershom.__all__)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(pershom, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name  # defined there, not imported


def test_each_name_has_one_home():
    assert importlib.util.find_spec("pershom.linalg") is None
    assert pershom.PrimeField is pershom.filtration.PrimeField and pershom.GF3 is pershom.filtration.GF3
    assert pershom.TooLargeError.__module__ == "pershom.barcode"
    for name in ("covers", "gallery", "morse"):  # the size refusal is a shared check, not a bottleneck one
        tree = ast.parse(Path(pershom.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
        imports = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "bottleneck" not in imports, name


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
    # neither an empty degree nor degree 0 or 1; `operator.index` reads a bool as 0 or 1
    for bad in (d + 0.5, d - 0.5, float(d), str(d), True, False, np.True_):
        with pytest.raises(ValueError, match=rf"\b{word} must be an integer, got {re.escape(repr(bad))}"):
            call(bad)
    assert call(np.int64(d)) == call(d)


def test_a_bool_is_refused_where_a_number_is_asked_for():
    # bottleneck(a, b, True) answered for degree 1, which is empty here, and matching_at ran at delta 1.0
    other = diagram_of(_BARCODE)
    calls = {
        "degree must be an integer, got True": [
            lambda: bottleneck(_DIAGRAM, other, True), lambda: matching_at(_DIAGRAM, other, True, 0.5),
            lambda: _DIAGRAM.count(True), lambda: betti_at(_COMPLEX, 1.0, True)],
        "delta must be a real number, got True": [lambda: matching_at(_DIAGRAM, other, 0, True)],
        "delta must be a real number, got np.True_": [lambda: matching_at(_DIAGRAM, other, 0, np.True_)],
        "t must be a real number, got True": [lambda: betti_at(_COMPLEX, True, 0)],
        "eps must be a real number, got True": [lambda: morse_check(_DIAGRAM, True, 1)],
        "n_max must be an integer, got True": [lambda: morse_check(_DIAGRAM, 0.1, True)],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call()


# Every public callable with a real-valued query parameter or endpoint, as a
# call by keyword, with the value each parameter takes when another is varied.
VALUE_PARAMETERS = {"s", "t", "x", "y", "t0", "t1", "eps", "delta", "lo", "hi", "at", "p", "q"}
INTEGER_PARAMETERS = {"PrimeField": {"p"}}  # named like an endpoint, but a characteristic: see test_field.py
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
    "Interval": (lambda lo, hi: Interval(lo, hi, True, False), {"lo": 0.0, "hi": 1.0}),
    "Interval.closed_open": (lambda lo, hi: Interval.closed_open(lo, hi), {"lo": 0.0, "hi": 1.0}),
    "Interval.open_open": (lambda lo, hi: Interval.open_open(lo, hi), {"lo": 0.0, "hi": 1.0}),
    "Interval.closed_closed": (lambda lo, hi: Interval.closed_closed(lo, hi), {"lo": 0.0, "hi": 1.0}),
    "Interval.singleton": (lambda at: Interval.singleton(at), {"at": 0.5}),
    "DiagramPoint": (lambda p, q: DiagramPoint(p, q), {"p": 0.0, "q": 1.0}),
}


def test_every_public_callable_with_a_value_parameter_is_in_the_value_table():
    public = _public_parameters()
    assert {name for name, params in public.items() if params & VALUE_PARAMETERS} == {*VALUE_CALLS, *INTEGER_PARAMETERS}
    for name, (_, values) in VALUE_CALLS.items():
        assert set(values) == public[name] & VALUE_PARAMETERS, name
    for name, params in INTEGER_PARAMETERS.items():
        assert public[name] & VALUE_PARAMETERS == params, name


@pytest.mark.parametrize("name", sorted(VALUE_CALLS))
def test_values_are_real_numbers_api_wide(name):
    call, values = VALUE_CALLS[name]
    for word, value in values.items():
        for text in ("0.5", b"0.5", bytearray(b"0.5")):  # `float` would parse each
            with pytest.raises(ValueError, match=rf"^{word} must be a real number, got " + re.escape(repr(text))):
                call(**{**values, word: text})
        for flag in (True, False, np.True_, None):  # `float` would read 1.0 or 0.0; numpy reads None as NaN
            with pytest.raises(ValueError, match=rf"^{word} must be a real number, got " + re.escape(repr(flag))):
                call(**{**values, word: flag})
        with pytest.raises(ValueError, match=rf"^{word} must (not be NaN|be finite), got nan"):
            call(**{**values, word: math.nan})
        assert call(**{**values, word: np.float64(value)}) == call(**values)


# Values inside a container: diagram points, vertex values, filtration
# values and array entries.  `float` and numpy would parse text, and read a
# bool as 0 or 1 and None as NaN; each is named with where it sits.
NOT_NUMBERS = ("0.5", b"0.5", bytearray(b"0.5"), True, False, np.True_, None)


def test_diagram_points_and_vertex_values_are_real_numbers():
    calls = {
        "p": lambda v: PersistenceDiagram({0: [(v, 2.0)]}),
        "q": lambda v: PersistenceDiagram({0: [(0.0, v), (0.0, v)]}),
        "the value of vertex 1": lambda v: lower_star({0: 0.0, 1: v}, [(0,), (1,), (0, 1)]),
    }
    for name, call in calls.items():
        for bad in NOT_NUMBERS + ([1.0],):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(bad))}$"):
                call(bad)
        with pytest.raises(ValueError, match=f"^{name} must (not be NaN|be finite), got nan$"):
            call(math.nan)
        assert call(np.float64(1.0)) == call(1.0)
    with pytest.raises(ValueError, match="^the value of vertex 1 must be finite, got -inf$"):
        lower_star({0: 0.0, 1: -math.inf}, [(0,)])  # every vertex value is checked, where it is given


def test_filtration_values_are_real_numbers_named_with_their_simplex():
    for bad in NOT_NUMBERS + ([1.0], {}):
        message = rf"^simplex \(1,\) has {re.escape(repr(bad))} as its filtration value, not a number$"
        with pytest.raises(TextValueError, match=message) as caught:
            FilteredComplex([((0,), 0.0), ((1,), bad), ((0, 1), 2.0)])
        assert caught.value.simplex == (1,)
    with pytest.raises(TextValueError, match=r"^simplex \(2,\) has True as"):  # the first in input order
        FilteredComplex([((0,), 0.0), ((1,), math.nan), ((2,), True), ((3,), [1.0])])


def test_array_entries_are_real_numbers_named_with_their_position():
    for bad in NOT_NUMBERS:
        with pytest.raises(ValueError, match=rf"^distance matrix has {re.escape(repr(bad))} at \(0, 1\), not a number$"):
            balls_cover([[0, bad], [bad, 0]], 1.5)
        with pytest.raises(ValueError, match=rf"^curve_samples has {re.escape(repr(bad))} at \(1,\), not a number$"):
            DouglasInput.identity([0.0, bad, 1.0], 8)
        with pytest.raises(ValueError, match=rf"^phi has {re.escape(repr(bad))} at \(2,\), not a number$"):
            DouglasInput([0.0, 1.0, 2.0], [0.0, 1.0, bad], 8)
    with pytest.raises(ValueError, match=r"^distance matrix has nan at \(0, 1\), not a number$"):
        balls_cover([[0, math.nan], [math.nan, 0]], 1.5)
    with pytest.raises(ValueError, match=r"^curve_samples has nan at \(1,\), not a number$"):
        DouglasInput.identity([0.0, math.nan, 1.0], 8)

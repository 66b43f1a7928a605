"""The checks of settings and file fields that need no array: JSON kinds,
scalar conversions, schedule kinds and run limits.  It imports no numpy, so
the command line refuses a bad flag or small file before it loads numpy."""

import contextlib
import json
import numbers
import operator
import sys
from typing import Callable, NamedTuple

SCHEDULE_KINDS = ("none", "cyclic", "uniform_random", "adversarial_max")
MAX_TAU = sys.maxsize  # the longest step window that a deque holds


class Kind(NamedTuple):
    """A JSON kind: its name in error messages and the test a value of it passes."""

    text: str
    test: Callable[[object], bool]


def _is_number(value) -> bool:
    """An int or float, not a bool, that a float can hold: JSON reads ``1e400``
    as inf, but a 400-digit integer as an int that no float holds."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    """A list of numbers; a list of floats, as a problem file holds, is
    checked without a Python-level loop."""
    if not isinstance(value, list):
        return False
    types = set(map(type, value))
    return types <= {float} or types <= {int, float} and all(map(_is_number, value))


NUMBER = Kind("a number", _is_number)
INTEGER = Kind("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
REAL = Kind("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool))
SWITCH = Kind("true or false", lambda v: isinstance(v, bool))
TEXT = Kind("a string", lambda v: isinstance(v, str))
NUMBERS = Kind("a list of numbers", _is_numbers)
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))
LIST = Kind("a list", lambda v: isinstance(v, list))

SCHEDULE_FIELDS = {"kind": TEXT, "tau": INTEGER, "block": INTEGER, "seed": INTEGER}


def check_fields(obj, kinds: dict[str, Kind], required, where: str = "") -> None:
    """Check that ``obj`` is a JSON object with every field of ``required``,
    no field that ``kinds`` does not list, and each of the kind ``kinds``
    gives it.  Nothing is converted: ``true`` and ``"0.5"`` are not numbers,
    ``1.0`` is not an integer.  Ranges are the constructors' to check.
    ``where`` is the object's path, "" at the top of a file."""
    at = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{at}must be a JSON object, got {_shown(obj)}")
    missing = sorted(set(required) - obj.keys())
    if missing:
        raise ValueError(f"{at}missing field(s) {missing}")
    for name, value in obj.items():
        kind = kinds.get(name)
        if kind is not None and not kind.test(value):
            path = f"{where}.{name}" if where else name
            raise ValueError(f"{path}: must be {kind.text}, got {_shown(value)}")
    unknown = sorted(obj.keys() - kinds.keys())
    if unknown:
        raise ValueError(f"{at}unknown field(s) {unknown}")


def _shown(value) -> str:
    """``value`` as JSON text, cut short: a problem file's lists are long."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def as_real(name: str, value) -> float:
    """``value`` as a float: a real number, numpy's included, but not a bool."""
    if not REAL.test(value):
        raise ValueError(f"{name} must be {REAL.text}, got {value!r}")
    return float(value)


def as_count(name: str, value) -> int:
    """``value`` as an int: an integer, numpy's included, but not a bool."""
    if type(value) is int:  # most counts, such as the two next_refresh_set reads per call
        return value
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)  # INTEGER.test would take ~5x as long
    raise ValueError(f"{name} must be {INTEGER.text}, got {value!r}")


def run_limits(max_iters, prox_residual_tol, trace_every,
               check_every) -> tuple[int, float, int, int]:
    """The run limits of a ``SolverConfig``: a nonnegative ``max_iters`` and
    ``prox_residual_tol``, and a positive ``trace_every`` and ``check_every``."""
    max_iters = as_count("max_iters", max_iters)
    trace_every = as_count("trace_every", trace_every)
    check_every = as_count("check_every", check_every)
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    prox_residual_tol = as_real("prox_residual_tol", prox_residual_tol)
    if not prox_residual_tol >= 0:
        raise ValueError("prox_residual_tol must be a nonnegative number")
    if trace_every < 1 or check_every < 1:
        raise ValueError("trace_every and check_every must be positive")
    return max_iters, prox_residual_tol, trace_every, check_every

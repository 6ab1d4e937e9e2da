"""Shared exception types, and the one rule for each input from outside the program: a JSON file and the keys
of each object in it (json_object), a CSV file and the cells of its rows (read_csv), a number, with its sign or
range (finite_number), an integer (integer) and a pair of declared volume bounds (volume_bounds). No other
module tests a scalar's sign, range or finiteness, or a JSON value's type or keys, or reads a CSV file."""

import csv
import json
import math
from collections.abc import Mapping
from numbers import Integral, Real
from pathlib import Path

__all__ = ["InfeasibleError"]


class InfeasibleError(Exception):
    """No decision can satisfy the per-slot compute budget."""


def finite_number(value, name: str, lo=None, hi=None, text: bool = False, above=None) -> float:
    """value as a float when it is a finite number in range, else a ValueError that names the field.

    A number is a real (an int, a float, a numpy scalar), never a bool, NaN or an infinity. A str is
    one only in a text format, a CSV cell or a flag (text=True), as float() reads it; in JSON it is not.
    The range is lo <= value <= hi, each closed bound skipped when None, and value > above, the open
    lower bound of a positive quantity, when above is given.
    """
    try:
        number = float(value) if text and isinstance(value, str) else value
        ok = isinstance(number, Real) and not isinstance(number, bool) and math.isfinite(number)
    except (ValueError, OverflowError):  # text that float() cannot read; an int past the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    number = float(number)
    outside = (above is not None and not number > above) or (lo is not None and number < lo)
    if outside or (hi is not None and number > hi):
        bound = " and ".join(f"{op} {b:g}" for op, b in ((">", above), (">=", lo), ("<=", hi)) if b is not None)
        raise ValueError(f"{name} must be {bound}, got {number!r}")
    return number


def integer(value, name: str, lo: int, hi: int | None = None, text: bool = False) -> int:
    """value as an int when it is an integer (an int or a numpy integer, never a bool or a float; a str only in a flag,
    text=True, as int() reads it) in lo..hi, with no upper bound when hi is None; else a ValueError naming the field."""
    bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    try:
        number = int(value) if text and isinstance(value, str) else value
    except ValueError:  # text that int() cannot read
        number = None
    if not isinstance(number, Integral) or isinstance(number, bool):
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    if number < lo or (hi is not None and number > hi):
        raise ValueError(f"{name} must be {bound}, got {number}")
    return int(number)


def volume_bounds(d_min, d_max) -> tuple[float, float]:
    """The declared volume bounds as floats when each is a finite number and 0 < d_min <= d_max, else a ValueError."""
    d_min, d_max = finite_number(d_min, "d_min"), finite_number(d_max, "d_max")
    if not 0.0 < d_min <= d_max:
        raise ValueError(f"need 0 < d_min <= d_max, got {d_min!r} and {d_max!r}")
    return d_min, d_max


def read_json(path, kind: str):
    """The JSON value in the file at path; text that is not JSON is a ValueError naming the file's kind."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad {kind}: {exc}") from exc


def json_object(value, where: str, required, optional=()):
    """value when it is an object (a Mapping) with every required key and no key outside required and optional;
    else a ValueError that names where it sits, the missing or unknown key and the keys it takes."""
    keys = " and ".join(f"{label}{', '.join(map(repr, names))}"
                        for label, names in (("keys ", required), ("optional keys ", optional)) if names)
    expected = f"{where} must be an object with {keys}"
    if not isinstance(value, Mapping):
        raise ValueError(f"{expected}, got {value!r}")
    missing = [key for key in required if key not in value]
    unknown = [key for key in value if key not in required and key not in optional]
    if missing or unknown:
        found = f"missing {missing[0]!r}" if missing else f"got unknown key {unknown[0]!r}"
        raise ValueError(f"{expected}, {found}")
    return value


def json_list(value, where: str) -> list:
    """value when it is a list, else a ValueError that names where it sits."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list")
    return value


def read_csv(path, kind: str, columns: dict):
    """Each data row of the CSV file at path as a (line label, row dict) pair, each cell read by its column's rule.

    columns maps each field, in header order, to its cell rule, called with text=True: finite_number, integer
    with its bounds (a functools.partial), or None to keep the text. The header must be exactly the fields, and a
    row (blank lines skipped) every field and no more; a row's refusal reads "<kind> CSV line N: <field> ...".
    """
    fields = list(columns)
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != fields:
            raise ValueError(f"{kind} CSV must have header {','.join(fields)}")
        for cells in filter(None, reader):
            line = f"{kind} CSV line {reader.line_num}"
            if len(cells) != len(fields):  # a short row names its first missing field, a long one its extra cells
                raise ValueError(f"{line}: {fields[len(cells)]} is missing" if len(cells) < len(fields) else
                                 f"{line}: {fields[-1]} must be the last field, got {cells[len(fields):]!r} after it")
            yield line, {field: cell if rule is None else rule(cell, f"{line}: {field}", text=True)
                         for (field, rule), cell in zip(columns.items(), cells)}

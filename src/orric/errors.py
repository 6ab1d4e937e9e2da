"""Shared exception types, and the one rule for each input from outside the program: a JSON file, a CSV
file, a number, with its sign or range when it has one (finite_number), an integer (integer) and a pair
of declared volume bounds (volume_bounds). No other module tests a scalar input's sign, range or finiteness."""

import csv
import json
import math
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


def read_csv(path, kind: str, header: str, needs: str):
    """Each data row of the CSV file at path as a (line label, row dict) pair.

    The header must be exactly header, and each row must have every field
    and no more; either error names the file's kind, and a row error its line.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header.split(","):
            raise ValueError(f"{kind} CSV must have header {header}")
        for row in reader:
            line = f"{kind} CSV line {reader.line_num}"
            # csv fills a short row with None and files extra fields under the key None
            if None in row or None in row.values():
                raise ValueError(f"{line} needs {needs}")
            yield line, row

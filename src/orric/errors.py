"""Shared exception types, and the rules for a JSON file, a CSV file and a number read from outside the program."""

import csv
import json
import math
from numbers import Real
from pathlib import Path

__all__ = ["InfeasibleError"]


class InfeasibleError(Exception):
    """No decision can satisfy the per-slot compute budget."""


def finite_number(value, name: str, text: bool = False) -> float:
    """value as a float when it is a finite number, else a ValueError that names the field.

    A number is a real (an int, a float, a numpy scalar), never a bool, NaN or an infinity. A str is
    one only in a text format, a CSV cell or a flag (text=True), as float() reads it; in JSON it is not.
    """
    try:
        number = float(value) if text and isinstance(value, str) else value
        if isinstance(number, Real) and not isinstance(number, bool) and math.isfinite(number):
            return float(number)
    except (ValueError, OverflowError):  # text that float() cannot read; an int past the float range
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


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

"""The on-disk JSON formats: instance files, bare matrices, matrix pairs.

Schemas are strict: unknown keys are rejected everywhere so a typo cannot
silently drop a matrix.  Float files carry plain numbers, exact files carry
rational strings like "3/4"; mixing the two is rejected.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .numerics import EXACT, FLOAT, GaussianRational, Matrix
from .gadgets import ProblemInstance

_SET_KEYS = ("S1", "S2", "S3", "S4")


class InstanceFormatError(ValueError):
    """A malformed document; the message names the offending key."""


def _require_keys(doc: dict, required, optional, where: str):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    for key in doc:
        if key not in required and key not in optional:
            raise InstanceFormatError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise InstanceFormatError(f"{where}: missing key {key!r}")


def _parse_mode(doc: dict, where: str) -> str:
    mode = doc.get("mode")
    if mode not in (FLOAT, EXACT):
        raise InstanceFormatError(
            f"{where}: key 'mode' must be 'float' or 'exact', got {mode!r}"
        )
    return mode


def _parse_component(value, mode: str, where: str):
    if mode == FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InstanceFormatError(
                f"{where}: float mode requires numbers, got {value!r}"
            )
        if not abs(value) <= sys.float_info.max:  # NaN, Infinity, huge ints
            raise InstanceFormatError(f"{where}: not a finite number: {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise InstanceFormatError(
            f"{where}: exact mode requires rational strings, got {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"{where}: bad rational {value!r}") from exc


def _parse_entry(obj, mode: str, where: str):
    _require_keys(obj, ("re", "im"), (), where)
    re = _parse_component(obj["re"], mode, f"{where}.re")
    im = _parse_component(obj["im"], mode, f"{where}.im")
    if mode == FLOAT:
        return complex(re, im)
    return GaussianRational(re, im)


def parse_matrix(rows, mode: str, where: str) -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise InstanceFormatError(f"{where}: expected a nonempty array of rows")
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise InstanceFormatError(f"{where}[{i}]: expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InstanceFormatError(f"{where}[{i}]: ragged row")
        parsed.append(
            [_parse_entry(e, mode, f"{where}[{i}][{j}]") for j, e in enumerate(row)]
        )
    if mode == FLOAT:
        return Matrix.from_complex(parsed)
    return Matrix.from_rational(parsed)


def _entry_json(value, mode: str):
    if mode == FLOAT:
        z = complex(value)
        return {"re": z.real, "im": z.imag}
    return {"re": str(value.re), "im": str(value.im)}


def matrix_json(m: Matrix):
    return [
        [_entry_json(m.entry(i, j), m.mode) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc


# --------------------------------------------------------------------------
# instance files
# --------------------------------------------------------------------------

def parse_instance_doc(doc: dict) -> ProblemInstance:
    _require_keys(doc, ("mode", "n"), _SET_KEYS, "instance")
    mode = _parse_mode(doc, "instance")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InstanceFormatError(f"instance: key 'n' must be a positive integer")
    families = []
    for key in _SET_KEYS:
        pairs = []
        for idx, pair in enumerate(doc.get(key, [])):
            where = f"{key}[{idx}]"
            _require_keys(pair, ("A", "B"), (), where)
            a = parse_matrix(pair["A"], mode, f"{where}.A")
            b = parse_matrix(pair["B"], mode, f"{where}.B")
            for name, m in (("A", a), ("B", b)):
                if m.shape != (n, n):
                    raise InstanceFormatError(
                        f"{where}.{name}: expected {n}x{n}, got "
                        f"{m.rows}x{m.cols}"
                    )
            pairs.append((a, b))
        families.append(pairs)
    return ProblemInstance(n, *families)


def instance_doc(inst: ProblemInstance) -> dict:
    mode = inst.mode
    doc = {"mode": mode, "n": inst.n}
    for key, family in zip(_SET_KEYS, (inst.S1, inst.S2, inst.S3, inst.S4)):
        doc[key] = [
            {"A": matrix_json(a), "B": matrix_json(b)} for a, b in family
        ]
    return doc


def load_instance(path) -> ProblemInstance:
    return parse_instance_doc(_load_json(path))


def save_instance(inst: ProblemInstance, path):
    with open(path, "w") as fh:
        json.dump(instance_doc(inst), fh, sort_keys=True, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------------
# bare matrices and pairs
# --------------------------------------------------------------------------

def parse_matrix_doc(doc: dict) -> Matrix:
    _require_keys(doc, ("mode", "matrix"), (), "matrix file")
    mode = _parse_mode(doc, "matrix file")
    return parse_matrix(doc["matrix"], mode, "matrix")


def matrix_doc(m: Matrix) -> dict:
    return {"mode": m.mode, "matrix": matrix_json(m)}


def load_matrix(path) -> Matrix:
    return parse_matrix_doc(_load_json(path))


def save_matrix(m: Matrix, path):
    with open(path, "w") as fh:
        json.dump(matrix_doc(m), fh, sort_keys=True, indent=2)
        fh.write("\n")


def parse_pair_doc(doc: dict):
    _require_keys(doc, ("mode", "A", "B"), (), "pair file")
    mode = _parse_mode(doc, "pair file")
    a = parse_matrix(doc["A"], mode, "A")
    b = parse_matrix(doc["B"], mode, "B")
    return a, b


def load_pair(path):
    return parse_pair_doc(_load_json(path))

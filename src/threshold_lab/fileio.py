"""Versioned JSON/CSV formats for functions, measures, profiles, and reports.

Every document carries a ``schema`` field.  Tables use the package's fixed
index order (coordinate 0 most significant); subset keys are decimal bitmask
strings with bit j standing for element j, read and written by ``core``'s
:func:`subset_members`.  Every reader goes through :func:`_reading`, which
checks the schema and turns a missing or malformed field into a
:class:`FileFormatError`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from json.encoder import encode_basestring_ascii as _encode_string

import numpy as np

from .core import ProductMeasure, QaryFunction, ThresholdLabError, subset_members
from .decomposition import EfronSteinDecomposition
from .families import _builder_parameters, resolve_oracle
from .social_choice import ChoiceFunction, Tournament, VoterProfile
from .threshold import ThresholdCurve

FUNCTION_SCHEMA = "threshold-lab/function/v1"
MEASURE_SCHEMA = "threshold-lab/measure/v1"
PROFILE_SCHEMA = "threshold-lab/profile/v1"
CHOICE_SCHEMA = "threshold-lab/choice-function/v1"
TOURNAMENT_SCHEMA = "threshold-lab/tournament/v1"
DECOMPOSITION_SCHEMA = "threshold-lab/decomposition/v1"
CURVE_SCHEMA = "threshold-lab/curve/v1"


class FileFormatError(ThresholdLabError):
    pass


@contextlib.contextmanager
def _reading(doc: dict, schema: str, kind: str):
    """Check that ``doc`` is a ``schema`` document, then turn a missing field
    (``KeyError``) or a malformed one (``TypeError``, ``ValueError``, or
    ``AttributeError`` from a container of the wrong JSON type) into a FileFormatError."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise FileFormatError(f"expected a {schema} document, got schema {found!r}")
    try:
        yield
    except KeyError as exc:
        raise FileFormatError(f"{kind} document missing field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise FileFormatError(f"{kind} document has a malformed field: {exc}") from None


def _integer(value, field: str) -> int:
    """``value`` as an int: an integral number, never a fraction, a bool or a
    string; :func:`_reading` reports the ``ValueError`` as a malformed field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def function_to_dict(f: QaryFunction) -> dict:
    doc = {"schema": FUNCTION_SCHEMA, "q": f.q, "n": f.n}
    if f.table is not None:
        doc.update(codomain=f.codomain, out_q=f.out_q, table=f.table.tolist())
    else:
        doc.update(oracle=f.oracle.name, params=f.oracle.params)
    return doc


def function_from_dict(doc: dict) -> QaryFunction:
    with _reading(doc, FUNCTION_SCHEMA, "function"):
        if "oracle" in doc:
            # a parameter the builder annotates ``int`` is read as an integer
            taken = _builder_parameters(doc["oracle"])
            params = {
                key: _integer(value, f"params.{key}")
                if key in taken and taken[key].annotation is int else value
                for key, value in dict(doc.get("params", {})).items()
            }
            f = resolve_oracle(doc["oracle"], params)
            for field, built in (("q", f.q), ("n", f.n)):
                if field in doc and _integer(doc[field], field) != built:
                    raise FileFormatError(
                        f"oracle document has {field}={doc[field]}, "
                        f"but {doc['oracle']} with these params has {field}={built}"
                    )
            return f
        out_q = doc.get("out_q")
        return QaryFunction.from_table(
            q=_integer(doc["q"], "q"),
            n=_integer(doc["n"], "n"),
            values=doc["table"],
            codomain=doc.get("codomain", "alphabet"),
            out_q=None if out_q is None else _integer(out_q, "out_q"),
        )


def measure_to_dict(measure: ProductMeasure) -> dict:
    return {"schema": MEASURE_SCHEMA, "q": measure.q, "atoms": measure.atoms.tolist()}


def measure_from_dict(doc: dict) -> ProductMeasure:
    with _reading(doc, MEASURE_SCHEMA, "measure"):
        return ProductMeasure(_integer(doc["q"], "q"), np.asarray(doc["atoms"], dtype=float))


def profile_to_dict(profile: VoterProfile) -> dict:
    return {
        "schema": PROFILE_SCHEMA,
        "m": profile.m,
        "orders": [
            {"ranking": list(order.ranking), "weight": weight}
            for order, weight in profile.orders
        ],
    }


def profile_from_dict(doc: dict) -> VoterProfile:
    with _reading(doc, PROFILE_SCHEMA, "profile"):
        return VoterProfile.from_rankings(
            _integer(doc["m"], "m"),
            [[_integer(a, "ranking entry") for a in entry["ranking"]] for entry in doc["orders"]],
            [_integer(entry.get("weight", 1), "weight") for entry in doc["orders"]],
        )


def choice_function_to_dict(c: ChoiceFunction) -> dict:
    return {
        "schema": CHOICE_SCHEMA,
        "m": c.m,
        "choices": {str(mask): alt for mask, alt in sorted(c.choices.items())},
    }


def choice_function_from_dict(doc: dict) -> ChoiceFunction:
    with _reading(doc, CHOICE_SCHEMA, "choice"):
        # JSON object keys are strings: a mask key is read as a decimal integer
        return ChoiceFunction(
            _integer(doc["m"], "m"),
            {
                _integer(int(mask) if isinstance(mask, str) else mask, "choice mask"):
                    _integer(alt, "alternative")
                for mask, alt in doc["choices"].items()
            },
        )


def tournament_to_dict(t: Tournament) -> dict:
    pairs = [
        [a, b]
        for a in range(t.m)
        for b in range(t.m)
        if t.beats[a, b]
    ]
    return {"schema": TOURNAMENT_SCHEMA, "m": t.m, "pairs": pairs}


def tournament_from_dict(doc: dict) -> Tournament:
    with _reading(doc, TOURNAMENT_SCHEMA, "tournament"):
        m = _integer(doc["m"], "m")
        pairs = [[_integer(a, "pair entry") for a in pair] for pair in doc["pairs"]]
        return Tournament.from_pairs(m, pairs)


def decomposition_to_dict(d: EfronSteinDecomposition) -> dict:
    """Every component's dense table as a list, under the decomposition's
    ``2**n * q**n`` cap, each broadcast from its factor."""
    d.require_dense()
    shape = (d.q,) * d.n
    return {
        "schema": DECOMPOSITION_SCHEMA,
        "q": d.q,
        "n": d.n,
        "atoms": d.measure.atoms.tolist(),
        "components": [
            {"S": subset_members(mask), "table": np.broadcast_to(factor, shape).ravel().tolist()}
            for mask, factor in enumerate(d.factors())
        ],
    }


def curve_to_dict(curve: ThresholdCurve) -> dict:
    doc = {
        "schema": CURVE_SCHEMA,
        "anchor": curve.path.anchor,
        "base_atoms": curve.path.base.atoms.tolist(),
        "method": curve.method,
        "t": curve.grid.tolist(),
        "G": curve.values.tolist(),
    }
    if curve.method == "mc":
        doc["samples"] = curve.evaluator.samples
        doc["seed"] = curve.evaluator.seed
        doc["half_width"] = curve.half_widths.tolist()
    return doc


#: Fixed CSV column order for curves.
CURVE_CSV_COLUMNS = ("t", "G", "method", "half_width")


def curve_to_csv(curve: ThresholdCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_COLUMNS)
    half_widths = curve.half_widths
    for idx, (t, g) in enumerate(zip(curve.grid, curve.values)):
        half_width = "" if half_widths is None else repr(float(half_widths[idx]))
        writer.writerow([repr(float(t)), repr(float(g)), curve.method, half_width])
    return buf.getvalue()


_INFINITY = float("inf")


def _float_text(v: float) -> str:
    """``json``'s text for a float: its repr, or ``NaN``, ``Infinity``, ``-Infinity``."""
    if v != v:
        return "NaN"
    if v == _INFINITY:
        return "Infinity"
    if v == -_INFINITY:
        return "-Infinity"
    return float.__repr__(v)


def _scalar_text(v) -> str | None:
    """``json``'s text for a string, ``None``, bool, int or float; ``None`` for
    anything else.  (No object is both an int and a float, so the order of
    the checks is json's for values and for keys alike.)"""
    if isinstance(v, str):
        return _encode_string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float_text(v)
    return None


class _FloatTexts(dict):
    """Float -> text, filled on first lookup.  ``0.0`` and ``-0.0`` are one
    key, so a zero is never stored and each lookup renders its own sign; a
    NaN is found only as the same object, which is how a list repeats it."""

    def __missing__(self, v: float) -> str:
        text = _float_text(v)
        if v != 0.0:
            self[v] = text
        return text


def dumps(doc) -> str:
    """Canonical JSON: byte for byte ``json.dumps(doc, sort_keys=True, indent=2)``
    plus a newline, raising ``TypeError`` (or ``ValueError`` on a circular
    reference) wherever ``json.dumps`` raises it.

    A list of plain floats or of plain ints is written with one ``str.join``;
    each distinct float's text is computed once per call.
    """
    parts: list[str] = []
    floats = _FloatTexts()
    open_ids: set[int] = set()

    def write(v, level: int) -> None:
        text = _scalar_text(v)
        if text is not None:
            parts.append(text)
        elif isinstance(v, (list, tuple)):
            write_list(v, level)
        elif isinstance(v, dict):
            write_dict(v, level)
        else:
            raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")

    def opening(container, bracket: str, level: int) -> str:
        """Write ``bracket`` and return the separator between items at ``level + 1``."""
        if id(container) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(container))
        indent = "\n" + "  " * (level + 1)
        parts.append(bracket + indent)
        return "," + indent

    def closing(container, bracket: str, level: int) -> None:
        parts.append("\n" + "  " * level + bracket)
        open_ids.remove(id(container))

    def write_list(items, level: int) -> None:
        if not items:
            parts.append("[]")
            return
        separator = opening(items, "[", level)
        types = set(map(type, items))
        if types == {float}:
            parts.append(separator.join(map(floats.__getitem__, items)))
        elif types == {int}:
            parts.append(separator.join(map(int.__repr__, items)))
        else:
            for k, v in enumerate(items):
                if k:
                    parts.append(separator)
                write(v, level + 1)
        closing(items, "]", level)

    def write_dict(mapping, level: int) -> None:
        if not mapping:
            parts.append("{}")
            return
        separator = opening(mapping, "{", level)
        # keys sort as they are, then turn into strings: a string as it is,
        # any other key as its json text
        for k, (key, v) in enumerate(sorted(mapping.items())):
            text = key if isinstance(key, str) else _scalar_text(key)
            if text is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
                )
            if k:
                parts.append(separator)
            parts.append(_encode_string(text) + ": ")
            write(v, level + 1)
        closing(mapping, "}", level)

    write(doc, 0)
    parts.append("\n")
    return "".join(parts)


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary file and rename, so outputs are never partial."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o644)  # mkstemp defaults to 600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def save_function(f: QaryFunction, path: str) -> None:
    atomic_write(path, dumps(function_to_dict(f)))


def load_function(path: str) -> QaryFunction:
    return function_from_dict(load_json(path))


def save_measure(measure: ProductMeasure, path: str) -> None:
    atomic_write(path, dumps(measure_to_dict(measure)))


def load_measure(path: str) -> ProductMeasure:
    return measure_from_dict(load_json(path))


def save_profile(profile: VoterProfile, path: str) -> None:
    atomic_write(path, dumps(profile_to_dict(profile)))


def load_profile(path: str) -> VoterProfile:
    return profile_from_dict(load_json(path))


def save_choice_function(c: ChoiceFunction, path: str) -> None:
    atomic_write(path, dumps(choice_function_to_dict(c)))


def load_choice_function(path: str) -> ChoiceFunction:
    return choice_function_from_dict(load_json(path))


def load_tournament(path: str) -> Tournament:
    return tournament_from_dict(load_json(path))


def save_tournament(t: Tournament, path: str) -> None:
    atomic_write(path, dumps(tournament_to_dict(t)))

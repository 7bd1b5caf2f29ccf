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
    (``KeyError``) or a malformed one (``TypeError``, ``ValueError``) into a FileFormatError."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise FileFormatError(f"expected a {schema} document, got schema {found!r}")
    try:
        yield
    except KeyError as exc:
        raise FileFormatError(f"{kind} document missing field {exc}") from None
    except (TypeError, ValueError) as exc:
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
    if f.table is not None:
        table = f.table.tolist()
        return {
            "schema": FUNCTION_SCHEMA,
            "q": f.q,
            "n": f.n,
            "codomain": f.codomain,
            "out_q": f.out_q,
            "table": table,
        }
    return {
        "schema": FUNCTION_SCHEMA,
        "q": f.q,
        "n": f.n,
        "oracle": f.oracle.name,
        "params": f.oracle.params,
    }


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
        return QaryFunction.from_table(
            q=_integer(doc["q"], "q"),
            n=_integer(doc["n"], "n"),
            values=doc["table"],
            codomain=doc.get("codomain", "alphabet"),
            out_q=doc.get("out_q"),
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
    return {
        "schema": DECOMPOSITION_SCHEMA,
        "q": d.q,
        "n": d.n,
        "atoms": d.measure.atoms.tolist(),
        "components": [
            {"S": subset_members(mask), "table": d.components[mask].tolist()}
            for mask in range(d.components.shape[0])
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


def dumps(doc: dict) -> str:
    """Canonical JSON rendering: sorted keys, stable float reprs."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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

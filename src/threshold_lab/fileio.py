"""Versioned JSON/CSV formats for functions, measures, profiles, and reports.

Every document carries a ``schema`` field.  Tables use the package's fixed
index order (coordinate 0 most significant); subset keys are decimal bitmask
strings with bit j standing for element j.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .core import ProductMeasure, QaryFunction, ThresholdLabError
from .decomposition import EfronSteinDecomposition, subset_bits
from .families import resolve_oracle
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


def _require_schema(doc: dict, schema: str) -> None:
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise FileFormatError(f"expected a {schema} document, got schema {found!r}")


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
    _require_schema(doc, FUNCTION_SCHEMA)
    try:
        if "oracle" in doc:
            return resolve_oracle(doc["oracle"], doc.get("params", {}))
        return QaryFunction.from_table(
            q=int(doc["q"]),
            n=int(doc["n"]),
            values=doc["table"],
            codomain=doc.get("codomain", "alphabet"),
            out_q=doc.get("out_q"),
        )
    except KeyError as exc:
        raise FileFormatError(f"function document missing field {exc}") from None


def measure_to_dict(measure: ProductMeasure) -> dict:
    return {"schema": MEASURE_SCHEMA, "q": measure.q, "atoms": measure.atoms.tolist()}


def measure_from_dict(doc: dict) -> ProductMeasure:
    _require_schema(doc, MEASURE_SCHEMA)
    try:
        return ProductMeasure(int(doc["q"]), np.asarray(doc["atoms"], dtype=float))
    except KeyError as exc:
        raise FileFormatError(f"measure document missing field {exc}") from None


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
    _require_schema(doc, PROFILE_SCHEMA)
    try:
        return VoterProfile.from_rankings(
            int(doc["m"]),
            [entry["ranking"] for entry in doc["orders"]],
            [entry.get("weight", 1) for entry in doc["orders"]],
        )
    except KeyError as exc:
        raise FileFormatError(f"profile document missing field {exc}") from None


def choice_function_to_dict(c: ChoiceFunction) -> dict:
    return {
        "schema": CHOICE_SCHEMA,
        "m": c.m,
        "choices": {str(mask): alt for mask, alt in sorted(c.choices.items())},
    }


def choice_function_from_dict(doc: dict) -> ChoiceFunction:
    _require_schema(doc, CHOICE_SCHEMA)
    try:
        return ChoiceFunction(
            int(doc["m"]),
            {int(mask): int(alt) for mask, alt in doc["choices"].items()},
        )
    except KeyError as exc:
        raise FileFormatError(f"choice document missing field {exc}") from None


def tournament_to_dict(t: Tournament) -> dict:
    pairs = [
        [a, b]
        for a in range(t.m)
        for b in range(t.m)
        if t.beats[a, b]
    ]
    return {"schema": TOURNAMENT_SCHEMA, "m": t.m, "pairs": pairs}


def tournament_from_dict(doc: dict) -> Tournament:
    _require_schema(doc, TOURNAMENT_SCHEMA)
    try:
        return Tournament.from_pairs(int(doc["m"]), doc["pairs"])
    except KeyError as exc:
        raise FileFormatError(f"tournament document missing field {exc}") from None


def decomposition_to_dict(d: EfronSteinDecomposition) -> dict:
    return {
        "schema": DECOMPOSITION_SCHEMA,
        "q": d.q,
        "n": d.n,
        "atoms": d.measure.atoms.tolist(),
        "components": [
            {"S": subset_bits(mask, d.n), "table": d.components[mask].tolist()}
            for mask in range(d.components.shape[0])
        ],
    }


def curve_to_dict(curve: ThresholdCurve) -> dict:
    doc = {
        "schema": CURVE_SCHEMA,
        "anchor": curve.anchor,
        "base_atoms": curve.path.base.atoms.tolist(),
        "method": curve.method,
        "t": curve.grid.tolist(),
        "G": curve.values.tolist(),
    }
    if curve.method == "mc":
        doc["samples"] = curve.samples
        doc["seed"] = curve.seed
        doc["half_width"] = curve.half_widths.tolist()
    return doc


#: Fixed CSV column order for curves.
CURVE_CSV_COLUMNS = ("t", "G", "method", "half_width")


def curve_to_csv(curve: ThresholdCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_COLUMNS)
    for idx, (t, g) in enumerate(zip(curve.grid, curve.values)):
        half_width = "" if curve.half_widths is None else repr(float(curve.half_widths[idx]))
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

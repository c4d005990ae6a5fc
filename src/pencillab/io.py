"""JSON wire formats: matrices, pencils, structures, certificates, reports.

Matrix format: ``{"rows": r, "cols": c, "entries": [[re, im], ...]}`` in
row-major order; parsers reject NaN/Inf and shape mismatches with
position-precise messages, and a pencil whose coefficient has a Frobenius
norm beyond double precision.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import PencilLabError
from .kronecker import KroneckerStructure
from .pencil import Pencil


class ParseError(PencilLabError):
    """Malformed input document; the message pinpoints the offending spot."""


def _complex_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {value!r}")
    re, im = float(value[0]), float(value[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"{where}: non-finite component in [{value[0]!r}, {value[1]!r}]")
    return complex(re, im)


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ParseError(f"{where}: missing required field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    for key, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{where}.{key}: expected a nonnegative integer, got {value!r}")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ParseError(f"{where}.entries: expected a list")
    if len(entries) != rows * cols:
        raise ParseError(
            f"{where}.entries: expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
        )
    data = np.zeros((rows, cols), dtype=complex)
    for k, raw in enumerate(entries):
        data[divmod(k, cols)] = _complex_pair(raw, f"{where}.entries[{k}]")
    return data


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def pencil_from_json(obj, where: str = "pencil") -> Pencil:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("a", "b"):
        if key not in obj:
            raise ParseError(f"{where}: missing required field {key!r}")
    a = matrix_from_json(obj["a"], f"{where}.a")
    b = matrix_from_json(obj["b"], f"{where}.b")
    if a.shape != b.shape:
        raise ParseError(f"{where}: coefficient shapes differ: {a.shape} vs {b.shape}")
    pencil = Pencil(a, b)
    with np.errstate(over="ignore"):
        for name, norm in zip("ab", pencil.norms):
            if not math.isfinite(norm):
                raise ParseError(f"{where}.{name}: the Frobenius norm overflows double precision")
    return pencil


def pencil_to_json(p: Pencil) -> dict:
    return {"a": matrix_to_json(p.a), "b": matrix_to_json(p.b)}


def load_json(path):
    """The JSON document in a file; malformed JSON raises ParseError at its position."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc


def load_pencil(path) -> Pencil:
    return pencil_from_json(load_json(path), where=str(path))


def save_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps(payload) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_default)


# ---------------------------------------------------------------------------
# structure formats


def structure_to_json(s: KroneckerStructure) -> dict:
    return {
        "col_minimal": [[int(e), int(m)] for e, m in s.col_minimal],
        "row_minimal": [[int(d), int(m)] for d, m in s.row_minimal],
        "jordan": [[int(size), [lam.real, lam.imag]] for size, lam in s.jordan],
        "nilpotent": [int(size) for size in s.nilpotent],
    }


def structure_from_json(obj, where: str = "structure") -> KroneckerStructure:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        jordan = [
            (int(size), _complex_pair(lam, f"{where}.jordan"))
            for size, lam in obj.get("jordan", [])
        ]
        return KroneckerStructure(
            col_minimal=[(int(e), int(m)) for e, m in obj.get("col_minimal", [])],
            row_minimal=[(int(d), int(m)) for d, m in obj.get("row_minimal", [])],
            jordan=jordan,
            nilpotent=[int(s) for s in obj.get("nilpotent", [])],
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: malformed structure record: {exc}") from exc


def load_structure_catalog(path) -> list[KroneckerStructure]:
    doc = load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: catalog must be a list")
    return [structure_from_json(item, f"{path}[{i}]") for i, item in enumerate(doc)]


# ---------------------------------------------------------------------------
# report pieces


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def spectrum_report(ts) -> list[dict]:
    """Taylor spectrum points with multiplicities and witness residuals."""
    return [
        {
            "z1": complex_to_json(z1),
            "z2": complex_to_json(z2),
            "multiplicity": int(m),
            "witness_residual_a": float(ra),
            "witness_residual_b": float(rb),
        }
        for (z1, z2), m, (ra, rb) in zip(ts.points, ts.multiplicities, ts.residuals)
    ]


def certificate_to_json(cert) -> dict:
    return {
        "method": cert.method,
        "vector": [complex_to_json(v) for v in cert.vector],
        "residual_a": float(cert.residual_a),
        "residual_b": float(cert.residual_b),
    }


def membership_to_json(membership) -> dict:
    out = {
        "verdict": membership.verdict,
        "strongest_min": float(membership.strongest_min),
        "direction": [float(x) for x in membership.direction],
        "scale": float(membership.scale),
        "iterations": int(membership.iterations),
    }
    if membership.certificate is not None:
        out["separation_margin"] = float(membership.certificate.margin)
    if membership.inside_certificate is not None:
        out["inside_weights"] = [float(w) for w in membership.inside_certificate.weights]
    return out

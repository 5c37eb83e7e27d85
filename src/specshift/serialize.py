"""JSON exchange formats for matrices, witnesses, families and sequences.

Matrix format: {"dim": n, "re": [[...]], "im": [[...]]} with "im" optional
(zero when absent).  Multiplicities are serialised as decimal strings so
arbitrary-precision integers survive CSV/JSON consumers.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .blocks import BlockRecord, DivergentFamily
from .catalog import finite_reals, integer_at_least
from .errors import DomainError
from .hermitian import HermitianOperator
from .search import SeminormLowerBound
from .sequences import NotFound

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "witness_to_json",
    "family_to_json",
    "sequence_witness_to_json",
    "dump_json",
]


def matrix_to_json(op: HermitianOperator) -> dict:
    mat = op.matrix
    doc = {"dim": op.dim, "re": [[float(v) for v in row] for row in mat.real]}
    if np.iscomplexobj(mat):
        doc["im"] = [[float(v) for v in row] for row in mat.imag]
    return doc


def _entries(doc: dict, key: str, dim: int) -> np.ndarray:
    """doc[key] as a dim x dim float array; every entry must be a finite JSON
    number (``finite_reals``: null is not one)."""
    cells = np.asarray(doc[key], dtype=object)
    if cells.shape != (dim, dim):
        raise DomainError(f"'{key}' has shape {cells.shape}, expected ({dim}, {dim})")
    return np.reshape(finite_reals(cells.flat, f"'{key}' entries", DomainError), (dim, dim))


def matrix_from_json(doc: dict) -> HermitianOperator:
    """Strict loader for external matrix data.

    Rejects a 'dim' that is not an integer >= 1, entries that are not finite
    numbers and matrices that are visibly not Hermitian (asymmetry beyond
    1e-8 relative), all as DomainError; the constructor's exact
    symmetrisation is reserved for floating-point dust, not for repairing
    wrong data.
    """
    if not isinstance(doc, dict) or "dim" not in doc or "re" not in doc:
        raise DomainError("matrix JSON needs at least 'dim' and 're'")
    dim = integer_at_least(doc["dim"], 1, "'dim'", DomainError)
    re = _entries(doc, "re", dim)
    if "im" in doc and doc["im"] is not None:
        mat = re + 1j * _entries(doc, "im", dim)
    else:
        mat = re
    asym = np.abs(mat - mat.conj().T).max()
    if asym > 1e-8 * max(1.0, np.abs(mat).max()):
        raise DomainError(f"matrix is not Hermitian (asymmetry {asym:g})")
    return HermitianOperator(mat)


def witness_to_json(result: SeminormLowerBound, function_ref: dict) -> dict:
    return {
        "function": function_ref,
        "norm_kind": result.norm_kind,
        "value": result.value,
        "seed": result.seed,
        "budget": result.budget,
        "A": matrix_to_json(result.witness.a),
        "B": matrix_to_json(result.witness.b),
    }


def _record_to_json(rec: BlockRecord) -> dict:
    doc = {
        "n": rec.index,
        "delta": rec.delta,
        "target_ratio": rec.target_ratio,
        "achieved_ratio": rec.achieved_ratio,
        "status": rec.status,
    }
    if rec.block is None:
        doc.update({"multiplicity": "0", "increment_s1": 0.0, "A": None, "B": None})
    else:
        doc.update({
            "multiplicity": str(rec.block.multiplicity),
            "increment_s1": rec.block.weighted_increment_s1,
            "A": matrix_to_json(rec.block.a),
            "B": matrix_to_json(rec.block.b),
        })
    return doc


def family_to_json(family: DivergentFamily) -> list:
    return [_record_to_json(rec) for rec in family.all_records]


def sequence_witness_to_json(witness, function_ref: dict, levels: int) -> dict:
    doc = {"function": function_ref, "K": levels, "t": [], "s": [], "n": []}
    if isinstance(witness, NotFound):
        doc["status"] = "not_found"
        doc["failed_level"] = witness.level
        doc["best_quotient"] = witness.best_quotient
        return doc
    doc["t"] = list(witness.t)
    doc["s"] = list(witness.s)
    doc["n"] = [str(m) for m in witness.n]
    doc["status"] = "ok"
    return doc


def write_text(path: str, text: str) -> None:
    """Write a report or sidecar as UTF-8 with "\\n" line endings.

    The text goes to a temporary file beside the target, which then replaces
    it in one step, so no file is ever left half-written.  A symlink at
    ``path`` is followed and the file it points to replaced; the mode of a
    replaced file is not kept.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

"""JSON interchange for channels and states.

Channel documents: ``{"dim": N, "kraus": [matrix, ...], "metadata": {...}}``
with each matrix a list of rows and each entry a ``[re, im]`` pair; states
use ``{"dim": N, "rho": matrix}`` with the same matrix encoding.  Floats are
emitted with ``repr``-exact decimals, so parse -> serialize -> parse is the
identity on values.

Schema violations raise SchemaError naming the offending field; malformed
JSON raises json.JSONDecodeError (with position) from the parser itself.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import KrausChannel, check_trace_preserving
from .errors import NotTracePreservingError, SchemaError
from .states import DensityMatrix


def matrix_to_doc(m: np.ndarray) -> list:
    """Nested-list encoding with [re, im] entry pairs."""
    m = np.asarray(m, dtype=complex)
    return [
        [[float(e.real), float(e.imag)] for e in row] for row in m
    ]


def matrix_from_doc(doc: Any, field: str) -> np.ndarray:
    """Decode one matrix, reporting the field path of any violation."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(field, "expected a non-empty list of rows")
    width = None
    rows = []
    for r, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field}[{r}]", "expected a non-empty row list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"{field}[{r}]", f"row length {len(row)} != {width}"
            )
        entries = []
        for c, entry in enumerate(row):
            where = f"{field}[{r}][{c}]"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(x) for x in entry)
            ):
                raise SchemaError(where, "expected an [re, im] number pair")
            value = complex(float(entry[0]), float(entry[1]))
            if not np.isfinite(value.real) or not np.isfinite(value.imag):
                raise SchemaError(where, "entries must be finite")
            entries.append(value)
        rows.append(entries)
    return np.array(rows, dtype=complex)


def channel_to_doc(ch: KrausChannel, metadata: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "dim": ch.dim,
        "kraus": [matrix_to_doc(c) for c in ch.kraus],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def channel_from_doc(doc: Any, require_tp: bool = True) -> KrausChannel:
    """Decode and validate a channel document.

    ``require_tp`` additionally enforces the completeness condition, which
    is what ``parse_channel`` does; diagnostic callers that want to inspect
    broken channels pass False.
    """
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    dim = _read_dim(doc)
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise SchemaError("kraus", "expected a non-empty list of matrices")
    ops = []
    for i, m in enumerate(kraus):
        mat = matrix_from_doc(m, f"kraus[{i}]")
        if mat.shape != (dim, dim):
            raise SchemaError(
                f"kraus[{i}]", f"shape {mat.shape} does not match dim {dim}"
            )
        ops.append(mat)
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("metadata", "expected an object")
    ch = KrausChannel(tuple(ops))
    if require_tp:
        ok, residual = check_trace_preserving(ch)
        if not ok:
            raise NotTracePreservingError(
                "channel document violates the completeness condition",
                residual=residual,
            )
    return ch


def state_to_doc(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "rho": matrix_to_doc(rho.mat)}


def state_from_doc(doc: Any) -> DensityMatrix:
    """Decode and validate a state document (Hermitian, unit trace, PSD)."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    dim = _read_dim(doc)
    if "rho" not in doc:
        raise SchemaError("rho", "missing state matrix")
    mat = matrix_from_doc(doc["rho"], "rho")
    if mat.shape != (dim, dim):
        raise SchemaError("rho", f"shape {mat.shape} does not match dim {dim}")
    return DensityMatrix(mat)


def parse_channel(text: str, require_tp: bool = True) -> KrausChannel:
    """Parse a channel from JSON text; see ``channel_from_doc``."""
    return channel_from_doc(json.loads(text), require_tp=require_tp)


def dump_channel(ch: KrausChannel, metadata: dict | None = None) -> str:
    return json.dumps(channel_to_doc(ch, metadata), indent=1)


def parse_state(text: str) -> DensityMatrix:
    return state_from_doc(json.loads(text))


def dump_state(rho: DensityMatrix) -> str:
    return json.dumps(state_to_doc(rho), indent=1)


def _read_dim(doc: dict) -> int:
    dim = doc.get("dim")
    if not _is_number(dim) or isinstance(dim, float) or dim < 1:
        raise SchemaError("dim", "expected a positive integer")
    return dim


def _is_number(x: Any) -> bool:
    """JSON number test: int or float, but not bool (a subclass of int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)

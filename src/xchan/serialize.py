"""JSON interchange for channels and states.

Channel documents: ``{"dim": N, "kraus": [matrix, ...], "metadata": {...}}``
with each matrix a list of rows and each entry a ``[re, im]`` pair; states
use ``{"dim": N, "rho": matrix}`` with the same matrix encoding.  Every
document is written on one line in the compact layout
``{"dim":2,"rho":[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]}``, by
``json``'s C encoder.  Floats are emitted with ``repr``-exact decimals, so
parse -> serialize -> parse is the identity on values.

Every JSON number passes one test, ``_is_finite_number``; matrices and other
number tables are decoded by ``numbers_from_doc``, and a matrix entry must
also stay within ``linalg.ENTRY_MAX``, the bound of the Kraus-set gate.
Schema violations raise SchemaError naming the offending field; malformed
JSON raises json.JSONDecodeError (with position) from the parser itself.
Every document is decoded by ``_loads``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .channels import KrausChannel, require_trace_preserving
from .errors import SchemaError
from .linalg import ENTRY_MAX
from .states import DensityMatrix

_DOUBLE_MAX = sys.float_info.max


def matrix_to_doc(m: np.ndarray) -> list:
    """Nested-list encoding of a matrix, or a stack of them, with [re, im]
    entry pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def numbers_from_doc(doc: Any, field: str, pairs: bool = False) -> np.ndarray:
    """Decode a non-empty list of equal-length, non-empty rows of JSON numbers.

    With ``pairs`` every entry is an ``[re, im]`` number pair and the result
    is a float array of shape (rows, cols, 2), else of shape (rows, cols).
    This is the package's one input-number policy: a boolean is not a
    number, and NaN, the infinities and an int beyond double range are not
    finite.  SchemaError names the first offending row or entry.
    """
    if not isinstance(doc, list) or not doc:
        raise SchemaError(field, "expected a non-empty list of rows")
    entry_ok = _is_finite_pair if pairs else _is_finite_number
    width = None
    for r, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field}[{r}]", "expected a non-empty row list")
        width = width or len(row)
        if len(row) != width:
            raise SchemaError(f"{field}[{r}]", f"row length {len(row)} != {width}")
        if not all(map(entry_ok, row)):
            c = next(c for c, x in enumerate(row) if not entry_ok(x))
            what = "an [re, im] pair of finite numbers" if pairs else "a finite number"
            raise SchemaError(f"{field}[{r}][{c}]", f"expected {what}")
    return np.array(doc, dtype=float)


def matrix_from_doc(doc: Any, field: str) -> np.ndarray:
    """Decode one matrix of [re, im] pairs, reporting the field path of any
    violation.  Every bit of each part is kept, the sign of -0.0 included.
    A part larger in magnitude than ``ENTRY_MAX`` is refused."""
    parts = numbers_from_doc(doc, field, pairs=True)
    if np.abs(parts).max() > ENTRY_MAX:
        r, c, _ = np.argwhere(np.abs(parts) > ENTRY_MAX)[0]
        what = f"expected [re, im] parts of magnitude at most {ENTRY_MAX:.0e}"
        raise SchemaError(f"{field}[{r}][{c}]", what)
    return parts.view(complex)[..., 0]


def channel_to_doc(ch: KrausChannel, metadata: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "dim": ch.dim,
        "kraus": matrix_to_doc(ch.stack),
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
    ch = KrausChannel(ops)
    if require_tp:
        require_trace_preserving(
            ch, "channel document violates the completeness condition"
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
    return channel_from_doc(_loads(text), require_tp=require_tp)


def dump_channel(ch: KrausChannel, metadata: dict | None = None) -> str:
    """The channel document of ``ch`` as compact JSON text; ``metadata``, if
    given and non-empty, is stored under ``"metadata"``."""
    return _dumps(channel_to_doc(ch, metadata))


def parse_state(text: str) -> DensityMatrix:
    return state_from_doc(_loads(text))


def dump_state(rho: DensityMatrix) -> str:
    """The state document of ``rho`` as compact JSON text."""
    return _dumps(state_to_doc(rho))


def _dumps(doc: dict) -> str:
    """The one JSON layout of every document: compact, one line.  Without
    ``indent`` the ``json`` C encoder runs, several times faster than the
    pure-Python one that ``indent`` selects."""
    return json.dumps(doc, separators=(",", ":"))


def _loads(text: str) -> Any:
    """The one decoder of every document.  Nesting deeper than the parser's
    recursion limit is a schema violation of the whole document, not a
    crash."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("$", "document is nested too deeply") from None


def _read_dim(doc: dict) -> int:
    dim = doc.get("dim")
    if not _is_finite_number(dim) or isinstance(dim, float) or dim < 1:
        raise SchemaError("dim", "expected a positive integer")
    return dim


def _is_finite_number(x: Any) -> bool:
    """JSON number test: int or float but not bool (a subclass of int), and
    within double range.  The chained comparison is exact for ints and
    false for NaN."""
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and -_DOUBLE_MAX <= x <= _DOUBLE_MAX
    )


def _is_finite_pair(x: Any) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_finite_number, x))

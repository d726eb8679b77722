"""Shared JSON encodings for matrices, channels, and measurement bases.

Matrix encoding: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Channels add the bipartition, bases carry their
vectors as single-column matrices.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .linalg import BiDims, as_matrix


class ParseError(ValueError):
    """Raised when a JSON document does not match the expected shape."""


def _integer(doc: dict[str, Any], key: str) -> int:
    """``doc[key]`` as an int: an integral JSON number, so 2 or 2.0 but not 2.7,
    a boolean or a string. Infinity and NaN fail in ``int()``."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{key}' must be an integer, got {type(value).__name__}")
    if value != int(value):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    arr = np.asarray(m, dtype=complex)
    mat = np.ascontiguousarray(as_matrix(arr.reshape(-1, 1) if arr.ndim == 1 else arr))
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "data": mat.view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(doc: dict[str, Any]) -> np.ndarray:
    try:
        rows, cols, data = _integer(doc, "rows"), _integer(doc, "cols"), doc["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError(f"matrix data must be a list, got {type(data).__name__}")
    if rows < 1 or cols < 1 or len(data) != rows * cols:
        raise ParseError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    try:
        pairs = _real_pairs(np.array(data))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise ParseError("matrix has non-finite entries")
    return pairs.view(complex).reshape(rows, cols)


def _real_pairs(arr: np.ndarray) -> np.ndarray:
    """The decoded ``data`` array as an owned (n, 2) float array of [re, im] rows.

    JSON numbers and booleans are accepted; strings, nulls and nested lists are not.
    An integer beyond numpy's integer range makes the array an object array: it
    is taken only if every entry is a Python number, and converts as ``float()``
    does (one too large for a float raises ``OverflowError``).
    """
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected shape (n, 2), got {arr.shape}")
    numbers = arr.dtype.kind in "biuf" or (
        arr.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in arr.flat))
    if not numbers:
        raise ValueError(f"entries must be numbers, got {arr.dtype.name} values")
    return arr.astype(float)


def vector_from_json(doc: dict[str, Any]) -> np.ndarray:
    mat = matrix_from_json(doc)
    if mat.shape[1] != 1:
        raise ParseError(f"expected a column vector, got shape {mat.shape}")
    return mat.reshape(-1)


def channel_to_json(ch) -> dict[str, Any]:
    return {
        "dimA": ch.dims.dim_a,
        "dimB": ch.dims.dim_b,
        "kraus": [matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(doc: dict[str, Any]):
    from .channels import KrausChannel

    try:
        dims = BiDims(_integer(doc, "dimA"), _integer(doc, "dimB"))
        kraus_docs = doc["kraus"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed channel object: {exc}") from exc
    if not isinstance(kraus_docs, list):
        raise ParseError(f"'kraus' must be a list, got {type(kraus_docs).__name__}")
    if not kraus_docs:
        raise ParseError("channel needs at least one Kraus operator")
    kraus = [matrix_from_json(k) for k in kraus_docs]
    try:
        return KrausChannel(tuple(kraus), dims)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def basis_to_json(basis) -> dict[str, Any]:
    return {
        "dimA": basis.dims.dim_a,
        "dimB": basis.dims.dim_b,
        "vectors": [matrix_to_json(v.reshape(-1, 1)) for v in basis.vectors],
    }


def basis_from_json(doc: dict[str, Any]):
    from .measurements import OrthogonalBasis

    try:
        dims = BiDims(_integer(doc, "dimA"), _integer(doc, "dimB"))
        vec_docs = doc["vectors"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed basis object: {exc}") from exc
    if not isinstance(vec_docs, list):
        raise ParseError(f"'vectors' must be a list, got {type(vec_docs).__name__}")
    vectors = [vector_from_json(v) for v in vec_docs]
    try:
        return OrthogonalBasis(tuple(vectors), dims)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_document(path: str):
    """Load a channel or basis from a JSON file, auto-detected by shape.

    A "kraus" key selects the channel format, a "vectors" key the basis format.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "kraus" in doc:
        return channel_from_json(doc)
    if "vectors" in doc:
        return basis_from_json(doc)
    raise ParseError("object is neither a channel ('kraus') nor a basis ('vectors')")


def dump_document(obj, path: str) -> None:
    from .channels import KrausChannel
    from .measurements import OrthogonalBasis

    if isinstance(obj, KrausChannel):
        doc = channel_to_json(obj)
    elif isinstance(obj, OrthogonalBasis):
        doc = basis_to_json(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

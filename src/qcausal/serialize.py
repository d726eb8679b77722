"""Shared JSON encodings for matrices, channels, and measurement bases.

Matrix encoding: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major. Channels add the bipartition, bases carry their
vectors as single-column matrices.
"""

from __future__ import annotations

import io
import json
from typing import Any

import numpy as np
import orjson

from .channels import KrausChannel
from .linalg import BiDims, _all_finite, as_matrix
from .measurements import OrthogonalBasis


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


def _header(doc: dict[str, Any]) -> tuple[int, int, list]:
    """A matrix object's ``rows``, ``cols`` and ``data``, checked but not decoded."""
    try:
        rows, cols, data = _integer(doc, "rows"), _integer(doc, "cols"), doc["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError(f"matrix data must be a list, got {type(data).__name__}")
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix rows and cols must be >= 1, got {rows} x {cols}")
    if len(data) != rows * cols:
        raise ParseError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    return rows, cols, data


def _matrices_from_json(docs: list, column: bool = False) -> np.ndarray | tuple[np.ndarray, ...]:
    """Decode matrix objects: one (k, rows, cols) array when they share a shape,
    else a tuple of k matrices. ``column`` requires single-column matrices and
    drops their column axis.

    Each object's header is checked in Python; then every ``data`` list is
    decoded by one ``np.array`` call and one finiteness check. When several
    objects fail to decode together, they are decoded one at a time, so the
    message names the first object's first fault, as for a single object.
    """
    if not docs:
        return ()
    try:
        headers = [_header(doc) for doc in docs]
        pairs = _real_pairs(np.array([pair for _, _, data in headers for pair in data]))
        if not _all_finite(pairs):
            raise ParseError("matrix has non-finite entries")
        wide = [(rows, cols) for rows, cols, _ in headers if column and cols != 1]
        if wide:
            raise ParseError(f"expected a column vector, got shape {wide[0]}")
    except (ValueError, OverflowError) as exc:
        if len(docs) > 1:
            for doc in docs:
                _matrices_from_json([doc], column)  # the first faulty object raises
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    entries = pairs.view(complex).reshape(-1)
    shapes = [(rows,) if column else (rows, cols) for rows, cols, _ in headers]
    if len(set(shapes)) == 1:
        return entries.reshape(len(docs), *shapes[0])
    ends = np.cumsum([rows * cols for rows, cols, _ in headers])[:-1]
    return tuple(m.reshape(shape) for m, shape in zip(np.split(entries, ends), shapes))


def matrix_from_json(doc: dict[str, Any]) -> np.ndarray:
    return _matrices_from_json([doc])[0]


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


def document_to_json(obj) -> dict[str, Any]:
    """The JSON object of a channel (its ``kraus`` operators) or a basis (its ``vectors``)."""
    if isinstance(obj, KrausChannel):
        key, mats = "kraus", obj.kraus
    elif isinstance(obj, OrthogonalBasis):
        key, mats = "vectors", obj.vectors  # each vector a single-column matrix
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"dimA": obj.dims.dim_a, "dimB": obj.dims.dim_b,
            key: [matrix_to_json(m) for m in mats]}


def document_from_json(doc: Any):
    """The channel or basis a JSON value encodes, told apart by its key: a
    "kraus" key selects the channel format, a "vectors" key the basis format."""
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "kraus" in doc:
        key, kind, cls = "kraus", "channel", KrausChannel
    elif "vectors" in doc:
        key, kind, cls = "vectors", "basis", OrthogonalBasis
    else:
        raise ParseError("object is neither a channel ('kraus') nor a basis ('vectors')")
    try:
        dims = BiDims(_integer(doc, "dimA"), _integer(doc, "dimB"))
        entries = doc[key]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {kind} object: {exc}") from exc
    if not isinstance(entries, list):
        raise ParseError(f"'{key}' must be a list, got {type(entries).__name__}")
    mats = _matrices_from_json(entries, column=cls is OrthogonalBasis)
    try:
        return cls(mats, dims)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_document(path: str):
    """Load a channel or basis from a JSON file (:func:`document_from_json`).

    orjson parses the file. A file it rejects (NaN or Infinity, a number beyond
    a double, a BOM, invalid UTF-8, malformed text, nesting past 1024) and a
    document that then fails to decode are read again by the stdlib ``json``,
    so every message and every reading is the stdlib's. Only documents that
    decode keep orjson's parse: orjson reads an integer beyond 64 bits as the
    nearest float, which matches ``float()`` of the stdlib's int in an entry,
    and no document with such a size field decodes.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return document_from_json(orjson.loads(raw))
    except (orjson.JSONDecodeError, ParseError):
        pass
    try:
        # as open(path, encoding="utf-8") reads: one decode, universal newlines,
        # so the error positions are the same
        doc = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return document_from_json(doc)


def dump_document(obj, path: str) -> None:
    doc = document_to_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

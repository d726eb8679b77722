import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.causality import B_TO_A, SignalWitness, _ic_probes
from qcausal.channels import KrausChannel, choi, choi_distance
from qcausal.games import and_box_channel
from qcausal.linalg import BiDims
from qcausal.measurements import OrthogonalBasis, bell_basis, haar_basis, incomplete_bell_channel
from qcausal.report import _serialize_search_witness
from qcausal.serialize import (
    ParseError,
    document_from_json,
    document_to_json,
    dump_document,
    load_document,
    matrix_from_json,
    matrix_to_json,
)


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    doc = matrix_to_json(m)
    assert doc["rows"] == 3 and doc["cols"] == 4 and len(doc["data"]) == 12
    back = matrix_from_json(json.loads(json.dumps(doc)))
    assert np.allclose(back, m)


def test_vector_encodes_as_column():
    doc = matrix_to_json(np.array([1j, 2.0]))
    assert doc["rows"] == 2 and doc["cols"] == 1


def test_search_witness_states_encode_as_matrix_to_json():
    """The witness writes each probe state as the column matrix_to_json makes of it."""
    for d in range(1, 9):
        for v in _ic_probes(d)[0]:
            doc = _serialize_search_witness(SignalWitness(B_TO_A, v.copy(), v.copy(), v.copy(), 0.5))
            want = json.dumps(matrix_to_json(v.reshape(-1, 1)))
            for key in ("receiverState", "senderState", "senderStateAlternative"):
                assert json.dumps(doc[key]) == want, (d, key)


def test_matrix_rejects_bad_documents():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [["x", 0]]})


def test_channel_round_trip():
    ch = and_box_channel()
    back = document_from_json(json.loads(json.dumps(document_to_json(ch))))
    assert back.dims == ch.dims
    assert choi_distance(choi(back), choi(ch)) < 1e-12


def test_basis_round_trip():
    basis = bell_basis()
    back = document_from_json(json.loads(json.dumps(document_to_json(basis))))
    assert back.dims == basis.dims
    for u, v in zip(back.vectors, basis.vectors):
        assert np.allclose(u, v)


def test_basis_rejects_non_orthonormal():
    doc = document_to_json(bell_basis())
    doc["vectors"][1] = doc["vectors"][0]
    with pytest.raises(ParseError):
        document_from_json(doc)


def test_load_document_auto_detects(tmp_path):
    p1 = tmp_path / "channel.json"
    dump_document(incomplete_bell_channel(), str(p1))
    obj = load_document(str(p1))
    assert isinstance(obj, KrausChannel)
    p2 = tmp_path / "basis.json"
    dump_document(bell_basis(), str(p2))
    obj = load_document(str(p2))
    assert obj.dims == BiDims(2, 2) and len(obj.vectors) == 4


def test_load_document_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_document(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_document(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ParseError):
        load_document(str(empty))


def _reference_decode(doc):
    """The per-entry decoder the one-call decoder replaced: one complex() per entry."""
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(int(doc["rows"]), int(doc["cols"]))


def _reference_encode(m):
    """The per-entry encoder the one-call encoder replaced: two float() per entry."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                   1, -7, 0, True, False, 2**53 + 1, 2**63 + 1, -(2**63) - 1, 10**20 + 3]


def _random_entries(rng, count):
    """Gaussians mixed with the entries a per-entry codec could read differently."""
    entries = [float(x) for x in rng.standard_normal(count)]
    specials = [SPECIAL_ENTRIES[k] for k in rng.permutation(2 * len(SPECIAL_ENTRIES))
                % len(SPECIAL_ENTRIES)]
    for k, value in zip(rng.choice(count, size=min(count, len(specials)), replace=False),
                        specials):
        entries[k] = value
    return entries


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_matrix_codec_matches_per_entry_reference(rng):
    shapes = [(1, 1), (1, 64), (64, 1), (64, 64)] + [tuple(rng.integers(1, 65, size=2))
                                                     for _ in range(12)]
    for rows, cols in shapes:
        entries = _random_entries(rng, 2 * rows * cols)
        doc = {"rows": int(rows), "cols": int(cols),
               "data": [entries[k:k + 2] for k in range(0, len(entries), 2)]}
        decoded = matrix_from_json(doc)
        assert _same_bits(decoded, _reference_decode(doc))
        # json.dumps tells -0.0 from 0.0, which list equality does not
        for m in (decoded, decoded.T, decoded[:, ::-1], decoded.reshape(-1)):
            data = matrix_to_json(m)["data"]
            assert json.dumps(data) == json.dumps(_reference_encode(m))
            assert all(type(x) is float for pair in data for x in pair)


@pytest.mark.parametrize("data", [
    [["1.0", 0]],
    [[0, "1.0"]],
    [[1, None]],
    [[1, 2, 3]],
    [[1]],
    [[[1, 2], 3]],
    [[1, [2]]],
    ["ab"],
    [{"re": 1, "im": 0}],
    [[10**20, "1.0"]],
    [[10**400, 0]],
])
def test_matrix_rejects_entries_that_are_not_number_pairs(data):
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 1, "cols": 1, "data": data})


def test_matrix_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for pair in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ParseError, match="non-finite"):
                matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], pair]})


def _stdlib_load(path):
    """The reader before orjson: ``json.load`` of the UTF-8 text, then
    :func:`document_from_json`, with read errors reported as ``load_document``
    reports them."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return document_from_json(doc)


# JSON number and value literals an entry can hold besides a finite double:
# non-finite and overflowing numbers, integers beyond 64 bits, and non-numbers
_ODD_ENTRIES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(10**400),
                str(2**64 + 1), str(-(2**63) - 1), str(10**30), "-0", "true", "false",
                "null", '"1.0"', "[1.0]", "{}"]


def _doubles():
    return st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _documents(draw):
    """A channel or basis document as bytes: valid or with odd entries, odd size
    fields, a BOM, a stray invalid UTF-8 byte, CRLF line ends or cut short."""
    dims = BiDims(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n = dims.total
    if draw(st.booleans()):
        key = "vectors"
        basis = haar_basis(dims, np.random.default_rng(draw(st.integers(0, 2**32))))
        shapes = [(n, 1)] * n
        values = [repr(x) for z in basis.vectors.ravel().tolist() for x in (z.real, z.imag)]
    else:
        key = "kraus"
        shapes = [(n, n)] * draw(st.integers(1, 3))
        values = draw(st.lists(_doubles(), min_size=2 * n * n * len(shapes),
                               max_size=2 * n * n * len(shapes)))
    odd = st.one_of(_doubles(), st.sampled_from(_ODD_ENTRIES),
                    st.integers(-(2**70), 2**70).map(str))
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.integers(0, len(values) - 1))] = draw(odd)
    size = st.one_of(st.sampled_from([str(2**64 + 1), str(-(2**63) - 1), "2.0", "1e19"]),
                     st.integers(-(2**70), 2**70).map(str))

    def field(value):
        return draw(size) if draw(st.integers(0, 9)) == 0 else str(value)

    pairs = iter(f"[{re}, {im}]" for re, im in zip(values[::2], values[1::2]))
    mats = [f'{{"rows": {field(rows)}, "cols": {field(cols)}, '
            f'"data": [{", ".join(next(pairs) for _ in range(rows * cols))}]}}'
            for rows, cols in shapes]
    text = (f'{{"dimA": {field(dims.dim_a)}, "dimB": {field(dims.dim_b)},\n'
            f' "{key}": [\n  ' + ",\n  ".join(mats) + "\n]}\n").encode()
    if draw(st.booleans()):
        text = text.replace(b"\n", b"\r\n")
    fault = draw(st.sampled_from(["none", "none", "none", "bom", "byte", "cut"]))
    if fault == "bom":
        return b"\xef\xbb\xbf" + text
    at = draw(st.integers(0, len(text)))
    if fault == "byte":
        return text[:at] + b"\xff" + text[at:]
    return text[:at] if fault == "cut" else text


@settings(max_examples=400, deadline=None)
@given(text=_documents())
def test_load_document_matches_stdlib_reader(tmp_path_factory, text):
    """orjson's parse gives the stdlib reader's document, bit for bit, or its message."""
    path = str(tmp_path_factory.getbasetemp() / "document.json")
    with open(path, "wb") as fh:
        fh.write(text)
    try:
        want = _stdlib_load(path)
    except Exception as exc:  # a ParseError, or a numpy warning the suite makes an error
        with pytest.raises(type(exc)) as got:
            load_document(path)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = load_document(path)
    assert type(got) is type(want) and got.dims == want.dims
    stack = "vectors" if isinstance(want, OrthogonalBasis) else "kraus"
    assert _same_bits(getattr(got, stack), getattr(want, stack))


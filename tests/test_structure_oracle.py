"""The one-pass basis structure against the per-side passes it replaced.

The oracle below is the structure extraction as it was before both sides
shared one pass: ``_oracle_side_structure`` checks one side's groups on its
own, and ``oracle_causal_structure`` calls it for A, then B, and assembles the
grid with NumPy cell tables. The one-pass :func:`_structure` must give the
same grids and subspaces bit for bit, and fail with the same message where
the oracle fails.
"""

import itertools
import math
import re
from importlib import resources

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import report
from qcausal.cli import main
from qcausal.linalg import SUPPORT_CUTOFF, BiDims, frobenius_norms, haar_unitary, mat_close
from qcausal.measurements import (
    CausalGrid,
    OrthogonalBasis,
    Subspace,
    _arange,
    _bar,
    _identity,
    _pair_tables,
    _schmidt,
    causal_grid_basis,
    causal_structure,
    rotate_basis,
    semicausal_basis_test,
    semicausal_partition_basis,
    semicausal_structure,
)
from qcausal.serialize import dump_document, load_document

BASIS_FIXTURES = ["bell_basis.json", "completion_basis.json", "conditional_basis.json",
                  "mismatch_basis.json", "twisted_quadrant_basis.json"]


def _oracle_group_by_equality(close):
    groups, labels = [], []
    for idx, row in enumerate(close):
        for k, g in enumerate(groups):
            if row[g[0]]:
                g.append(idx)
                labels.append(k)
                break
        else:
            labels.append(len(groups))
            groups.append([idx])
    return groups, np.array(labels)


def _oracle_side_structure(basis, side, tol):
    t = _pair_tables(basis, side)
    bar = _bar(basis, tol)
    verdict = t.verdict(bar)
    if not verdict.semicausal:
        raise ValueError(f"basis fails the pairwise criterion on side {side} "
                         f"at pair {verdict.violating_pair}")
    n_side, n_other = basis.dims if side == "A" else basis.dims[::-1]
    groups, labels = _oracle_group_by_equality((t.diff < bar).tolist())
    leaders = np.array([g[0] for g in groups])
    u, coeffs, vh = _schmidt(basis)
    dims = (coeffs[leaders] ** 2 > SUPPORT_CUTOFF).sum(axis=1)
    frames = u[leaders] if side == "A" else vh[leaders].transpose(0, 2, 1)
    frames = frames * (_arange(n_side) < dims[:, None, None])
    projectors = frames @ frames.conj().transpose(0, 2, 1)
    residuals = frobenius_norms(t.sigmas[leaders] - projectors / dims[:, None, None], (1, 2))
    flat = np.where(_arange(coeffs.shape[1]) < dims[:, None], 1 / np.sqrt(dims[:, None]), 0.0)
    skewed = np.any(np.abs(coeffs - flat[labels]) > bar, axis=1)
    failed = (~(residuals < bar) | (np.bincount(labels) != n_other * dims)
              | (np.bincount(labels, skewed, len(groups)) > 0))
    if failed.any():
        k = int(failed.argmax())
        g, dim = groups[k], int(dims[k])
        if not residuals[k] < bar:
            raise ValueError("reduced state is not a normalized subspace projector")
        if len(g) != n_other * dim:
            raise ValueError(f"subspace of dimension {dim} holds {len(g)} states, "
                             f"expected {n_other * dim}")
        raise ValueError(f"basis state {g[int(skewed[g].argmax())]} is not maximally entangled "
                         f"over its {dim}-dimensional subspace")
    if not mat_close(projectors.sum(axis=0), _identity(n_side), bar):
        raise ValueError("subspace projectors do not resolve the identity")
    return groups, labels, dims, projectors


def oracle_semicausal_structure(basis, side="A", tol=1e-9):
    groups, _, dims, projectors = _oracle_side_structure(basis, side, tol)
    return tuple(Subspace(p, int(dim), tuple(g)) for p, dim, g in zip(projectors, dims, groups))


def oracle_causal_structure(basis, tol=1e-9):
    _, label_a, dims_a, _ = _oracle_side_structure(basis, "A", tol)
    _, label_b, dims_b, _ = _oracle_side_structure(basis, "B", tol)
    cell_dims = set(dims_a.tolist()) | set(dims_b.tolist())
    if len(cell_dims) != 1:
        raise ValueError(f"inconsistent cell dimensions {sorted(cell_dims)}")
    d = cell_dims.pop()
    r_a, r_b = len(dims_a), len(dims_b)
    if r_a * d != basis.dims.dim_a or r_b * d != basis.dims.dim_b:
        raise ValueError("cell dimension does not divide the local dimensions")
    cell_of = label_a * r_b + label_b
    counts = np.bincount(cell_of, minlength=r_a * r_b)
    if (counts != d * d).any():
        raise ValueError(f"cell holds {counts[(counts != d * d).argmax()]} states, "
                         f"expected {d * d}")
    cells = np.argsort(cell_of, kind="stable").reshape(r_a, r_b, d * d)
    states = basis.vectors.reshape(-1, *basis.dims)
    first = cells[0, 0]
    anchor = first[np.abs(np.trace(states[first], axis1=1, axis2=2)).argmax()]
    u, _, vh = _schmidt(basis)
    f0, e0 = u[anchor, :, :d], vh[anchor, :d].T
    root_d = np.sqrt(d)
    rows = np.concatenate([f0[None], root_d * states[cells[1:, 0, 0]] @ e0.conj()])
    cols = np.concatenate([e0[None],
                           root_d * states[cells[0, 1:, 0]].transpose(0, 2, 1) @ f0.conj()])
    f_dag, e_dag = (t.conj().transpose(0, 2, 1) for t in (rows, cols))
    frames = (f_dag[:, None, :, None, :, None]
              * e_dag[None, :, None, :, None, :]).reshape(r_a, r_b, d * d, -1)
    unitaries = root_d * (frames[label_a, label_b] @ basis.vectors[..., None]).reshape(-1, d, d)
    return CausalGrid(d, r_a, r_b, tuple(tuple(map(tuple, row)) for row in cells.tolist()),
                      rows, cols, unitaries)


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _fresh(basis):
    """The same vectors in a new basis, whose tables are computed anew."""
    return OrthogonalBasis(basis.vectors, basis.dims)


def assert_same_structure(name, basis, tol):
    """Grid and both sides' subspaces equal the oracle's bit for bit, or the
    same ValueError text; returns the grid or the causal failure text. Each
    side reads tables computed anew, not the oracle's."""
    mine, theirs = _fresh(basis), _fresh(basis)
    got = _outcome(causal_structure, mine, tol)
    want = _outcome(oracle_causal_structure, theirs, tol)
    if isinstance(want, str):
        assert got == want, name
    else:
        assert (got.d, got.r_a, got.r_b, got.cells) == (want.d, want.r_a, want.r_b, want.cells)
        for table in ("rows", "cols", "unitaries"):
            assert np.array_equal(getattr(got, table), getattr(want, table)), (name, table)
            assert not getattr(got, table).flags.writeable
    for side in "AB":
        found = _outcome(semicausal_structure, mine, side, tol)
        expected = _outcome(oracle_semicausal_structure, theirs, side, tol)
        if isinstance(expected, str):
            assert found == expected, (name, side)
            continue
        assert [(s.dim, s.member_indices) for s in found] == \
            [(s.dim, s.member_indices) for s in expected], (name, side)
        for s, t in zip(found, expected):
            assert np.array_equal(s.projector, t.projector), (name, side)
    return got


def _grids():
    """Causal grids from 1x1 to 8x8, for every cell dimension dividing both sides."""
    rng = np.random.default_rng(41)
    for na, nb in itertools.product(range(1, 9), repeat=2):
        for d in range(1, math.gcd(na, nb) + 1):
            if na % d == 0 and nb % d == 0:
                yield f"grid-{na}x{nb}-d{d}", causal_grid_basis(BiDims(na, nb), d)
                yield f"rotated-grid-{na}x{nb}-d{d}", causal_grid_basis(BiDims(na, nb), d, rng)


def _fixture(name):
    return load_document(str(resources.files("qcausal") / "fixtures" / name))


def test_structure_matches_oracle_on_the_corpus_and_fixtures(corpus_of_seed, near_causal_basis):
    bases = [(name, basis) for seed in (1, 11, 23) for name, basis in corpus_of_seed(seed)]
    bases += [(name, _fixture(name)) for name in BASIS_FIXTURES]
    grids = sum(not isinstance(assert_same_structure(name, basis, 1e-9), str)
                for name, basis in bases)
    assert grids > 60
    assert isinstance(assert_same_structure("near-causal", near_causal_basis, 1e-9), str)
    grid = assert_same_structure("near-causal", near_causal_basis, 1e-5)
    assert (grid.d, grid.r_a, grid.r_b) == (2, 2, 2)


def test_structure_matches_oracle_on_grids_up_to_8x8():
    count = 0
    for name, basis in _grids():
        grid = assert_same_structure(name, basis, 1e-9)
        assert not isinstance(grid, str), name
        count += 1
    assert count == 2 * 92


def _turned(basis, eps, rng):
    """``basis`` turned by exp(i eps H) for a random Hermitian H."""
    n = basis.dims.total
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh(h + h.conj().T)
    turn = (v * np.exp(0.5j * eps * w)) @ v.conj().T
    return OrthogonalBasis((turn @ basis.vectors.T).T, basis.dims)


def _classify(path, tol, capsys):
    code = main(["classify", str(path), "--json", "--tol", repr(tol)])
    out = capsys.readouterr()
    return code, out.out, out.err


# (dim_a, dim_b, cell dimension) of the turned grids
SWEEP_SHAPES = [(2, 2, 1), (2, 2, 2), (2, 4, 2), (4, 2, 2), (3, 3, 1), (4, 4, 2), (3, 6, 3),
                (4, 4, 4)]


def _log_uniform(rng, low=-9.0, high=-3.0):
    return float(10 ** rng.uniform(low, high))


def test_turned_grids_fail_as_the_oracle_fails(tmp_path, capsys, monkeypatch):
    # a grid turned by exp(i eps H) passes or fails each check depending on eps
    # against tol; classify reaches the structure only where both sides pass
    # the pairwise test, and must then print the oracle's failure
    rng = np.random.default_rng(2026)
    messages, structure_exits = set(), 0
    for k in range(400):
        na, nb, d = SWEEP_SHAPES[k % len(SWEEP_SHAPES)]
        basis = _turned(causal_grid_basis(BiDims(na, nb), d, rng), _log_uniform(rng), rng)
        tol = _log_uniform(rng)
        got = assert_same_structure(f"turned-{k}", basis, tol)
        if isinstance(got, str):
            messages.add(got.split(" on side")[0])
        if not all(semicausal_basis_test(basis, side, tol).semicausal for side in "AB"):
            continue
        path = tmp_path / "turned.json"
        dump_document(basis, str(path))
        result = _classify(path, tol, capsys)
        with monkeypatch.context() as m:
            m.setattr(report, "causal_structure", oracle_causal_structure)
            assert _classify(path, tol, capsys) == result, k
        if isinstance(got, str) and "criteria disagree" not in result[2]:
            assert result[:2] == (3, "") and result[2] == f"invariant failure: {got}\n", k
            structure_exits += 1
    assert {"basis fails the pairwise criterion", "reduced state is not a normalized "
            "subspace projector", "subspace projectors do not resolve the identity"} <= messages
    assert structure_exits >= 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SWEEP_SHAPES))
def test_turned_grids_fail_as_the_oracle_fails_in_random_frames(seed, shape):
    rng = np.random.default_rng(seed)
    na, nb, d = shape
    basis = _turned(causal_grid_basis(BiDims(na, nb), d), _log_uniform(rng), rng)
    moved = rotate_basis(basis, haar_unitary(na, rng), haar_unitary(nb, rng))
    assert_same_structure(f"turned-{seed}", moved, _log_uniform(rng))



def _swapped_pair(basis, rng):
    """``basis`` with two random states turned into each other by a random angle."""
    rows = basis.vectors.copy()
    i, j = rng.choice(len(rows), 2, replace=False)
    angle = rng.uniform(0, np.pi / 2)
    c, s = np.cos(angle), np.sin(angle)
    a, b = basis.vectors[i], basis.vectors[j]
    rows[i], rows[j] = c * a + s * b, c * b - s * a
    return OrthogonalBasis(rows, basis.dims)


def test_loose_tolerances_fail_as_the_oracle_fails():
    # at tolerances above the command line's 1e-3, groups merge and split and
    # the later checks fail too: member count, flatness and cell dimensions
    rng = np.random.default_rng(11)
    shapes = [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1), (4, 4, 1), (4, 4, 2), (2, 4, 2),
              (2, 2, 2), (4, 2, 1)]
    messages = set()
    for k in range(300):
        na, nb, d = shapes[k % len(shapes)]
        basis = _swapped_pair(causal_grid_basis(BiDims(na, nb), d, rng if k % 2 else None), rng)
        got = assert_same_structure(f"swapped-{k}", basis, _log_uniform(rng, -3.0, -0.5))
        if isinstance(got, str):
            messages.add(re.sub(r"\d+", "#", got))
    partition = semicausal_partition_basis(BiDims(3, 2), (2, 1))
    for tol in (0.1, 0.15):
        messages.add(re.sub(r"\d+", "#", assert_same_structure("partition", partition, tol)))
    assert messages >= {
        "basis fails the pairwise criterion on side A at pair (#, #)",
        "basis fails the pairwise criterion on side B at pair (#, #)",
        "reduced state is not a normalized subspace projector",
        "subspace of dimension # holds # states, expected #",
        "basis state # is not maximally entangled over its #-dimensional subspace",
        "subspace projectors do not resolve the identity",
        "inconsistent cell dimensions [#, #]",
    }

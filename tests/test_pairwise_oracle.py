"""The basis layer's pair tables against the scalar pairwise loops they replaced.

The reference functions below recompute every reduced state per call and walk
the pairs one at a time, as the basis layer did before it kept one table per
basis and side. The witness reference also replays each steering pair on the
full measurement channel instead of reading the outputs off the table.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.causality import SEARCH_THRESHOLD
from qcausal.channels import apply_to_vector, measurement_channel
from qcausal.linalg import (
    SUPPORT_CUTOFF,
    alignment_unitary,
    dag,
    frobenius,
    haar_unitary,
    mat_close,
    partial_trace,
    proj,
    schmidt_coefficients,
    tensor_product,
    trace_distance,
)
from qcausal.linalg import BiDims
from qcausal.measurements import (
    _frobenius_norms,
    _pair_tables,
    _PairTables,
    _pairwise_verdict,
    _witness_candidates,
    basis_signaling_witness,
    causal_grid_basis,
    causal_structure,
    haar_basis,
    rotate_basis,
    semicausal_basis_test,
    semicausal_partition_basis,
    semicausal_structure,
)
from qcausal.serialize import load_document

BASIS_FIXTURES = ["bell_basis.json", "completion_basis.json", "conditional_basis.json",
                  "mismatch_basis.json", "twisted_quadrant_basis.json"]


def _support_projector(sigma):
    """One state's support projector and rank, from its own eigh."""
    w, v = np.linalg.eigh((sigma + dag(sigma)) / 2)
    keep = w > SUPPORT_CUTOFF
    vecs = v[:, keep]
    return vecs @ dag(vecs), int(keep.sum())


def _reference_sigmas(basis, side):
    other = "B" if side == "A" else "A"
    return [partial_trace(proj(v), basis.dims, other) for v in basis.vectors]


def reference_pairwise_test(basis, side, tol):
    """(verdict, first violating pair) from the scalar double loop."""
    sigmas = _reference_sigmas(basis, side)
    bar = tol * max(1.0, basis.dims.total)
    for a in range(len(sigmas)):
        for b in range(a + 1, len(sigmas)):
            identical = frobenius(sigmas[a] - sigmas[b]) < bar
            orthogonal = frobenius(sigmas[a] @ sigmas[b]) < bar
            if not (identical or orthogonal):
                return False, (a, b)
    return True, None


def _reference_groups(basis, side, tol):
    """Member groups of one side's partition, or None where the structure fails."""
    if not reference_pairwise_test(basis, side, tol)[0]:
        return None
    sigmas = _reference_sigmas(basis, side)
    bar = tol * max(1.0, basis.dims.total)
    n_side = basis.dims.dim_a if side == "A" else basis.dims.dim_b
    groups: list[list[int]] = []
    for idx, sig in enumerate(sigmas):
        for g in groups:
            if mat_close(sig, sigmas[g[0]], bar):
                g.append(idx)
                break
        else:
            groups.append([idx])
    out, total = [], np.zeros((n_side, n_side), dtype=complex)
    for g in groups:
        p, dim = _support_projector(sigmas[g[0]])
        if not mat_close(sigmas[g[0]], p / dim, bar) or len(g) != basis.size // n_side * dim:
            return None
        expected = np.where(np.arange(min(basis.dims)) < dim, 1 / np.sqrt(dim), 0.0)
        for idx in g:
            if np.any(np.abs(schmidt_coefficients(basis.vectors[idx], basis.dims)
                             - expected) > bar):
                return None
        out.append((dim, g))
        total = total + p
    return out if mat_close(total, np.eye(n_side), bar) else None


def reference_cells(basis, tol):
    """The grid's cells from the scalar grouping, or None where the grid fails."""
    part_a, part_b = _reference_groups(basis, "A", tol), _reference_groups(basis, "B", tol)
    if part_a is None or part_b is None:
        return None
    cell_dims = {dim for dim, _ in part_a} | {dim for dim, _ in part_b}
    if len(cell_dims) != 1:
        return None
    d = cell_dims.pop()
    if len(part_a) * d != basis.dims.dim_a or len(part_b) * d != basis.dims.dim_b:
        return None
    by_a = {idx: alpha for alpha, (_, g) in enumerate(part_a) for idx in g}
    by_b = {idx: beta for beta, (_, g) in enumerate(part_b) for idx in g}
    cells = [[[] for _ in part_b] for _ in part_a]
    for idx in range(basis.size):
        cells[by_a[idx]][by_b[idx]].append(idx)
    if any(len(m) != d * d for row in cells for m in row):
        return None
    return tuple(tuple(tuple(m) for m in row) for row in cells)


def reference_witness(basis, side, tol):
    """(prepared index, separation) from scalar tables and full-channel replay."""
    sigmas = _reference_sigmas(basis, side)
    bar = tol * max(1.0, basis.dims.total)
    n = len(sigmas)
    overlap = [[frobenius(sigmas[a] @ sigmas[b]) > bar for b in range(n)] for a in range(n)]
    distinct = [[not mat_close(sigmas[a], sigmas[b], bar) for b in range(n)] for a in range(n)]
    candidates = [b for b in range(n) if any(overlap[b][a] and distinct[b][a] for a in range(n))]
    candidates.sort(key=lambda b: (-frobenius(sigmas[b]), b))
    ch = measurement_channel(basis)
    na, nb = basis.dims
    other = "B" if side == "A" else "A"
    for b_idx in candidates:
        for a_idx in range(n):
            if not (overlap[b_idx][a_idx] and distinct[b_idx][a_idx]):
                continue
            src, dst = (basis.vectors[k].reshape(na, nb) for k in (b_idx, a_idx))
            if side == "A":
                u = alignment_unitary(src.T, dst.T)
                full = tensor_product(np.eye(na), u)
            else:
                u = alignment_unitary(src, dst)
                full = tensor_product(u, np.eye(nb))
            vec = basis.vectors[b_idx]
            sep = trace_distance(partial_trace(apply_to_vector(ch, vec), basis.dims, other),
                                 partial_trace(apply_to_vector(ch, full @ vec), basis.dims, other))
            if sep > SEARCH_THRESHOLD:
                return b_idx, sep
    return None


def _tables_agree_with_reference(name, basis, tol):
    for side in "AB":
        expected = reference_pairwise_test(basis, side, tol)
        verdict = semicausal_basis_test(basis, side, tol)
        assert (verdict.semicausal, verdict.violating_pair) == expected, (name, side)
        if verdict.semicausal:
            continue
        found = basis_signaling_witness(basis, side, tol)
        replayed = reference_witness(basis, side, tol)
        if replayed is None:
            assert found is None, (name, side)
        else:
            assert found.b_index == replayed[0], (name, side)
            assert abs(found.separation - replayed[1]) < 1e-12, (name, side)
    try:
        cells = causal_structure(basis, tol).cells
    except ValueError:
        cells = None
    assert cells == reference_cells(basis, tol), name


@pytest.fixture(scope="module")
def oracle_bases(corpus, near_causal_basis):
    fixtures = [(name, load_document(str(resources.files("qcausal") / "fixtures" / name)))
                for name in BASIS_FIXTURES]
    return corpus + fixtures + [("near-causal", near_causal_basis)]


def test_tables_match_scalar_loops(oracle_bases):
    for name, basis in oracle_bases:
        _tables_agree_with_reference(name, basis, 1e-9)


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-7, 1e-5]))
def test_tables_match_scalar_loops_in_random_frames(oracle_bases, seed, tol):
    # a fresh basis in a random local frame, so no table is reused across frames
    rng = np.random.default_rng(seed)
    for name, basis in oracle_bases:
        na, nb = basis.dims
        moved = rotate_basis(basis, haar_unitary(na, rng), haar_unitary(nb, rng))
        _tables_agree_with_reference(name, moved, tol)


def test_schmidt_support_projectors_match_one_eigh_each(oracle_bases, corpus_of_seed):
    # each subspace projector is read off its leader's Schmidt frame on the
    # side (the columns of u on A, the rows of vh on B); it must be the
    # support projector of the leader's reduced state, with the same rank
    rng = np.random.default_rng(29)
    extra = [(f"partition-{dims}-{parts}", semicausal_partition_basis(BiDims(*dims), parts, rng))
             for dims, parts in [((4, 4), (3, 1)), ((5, 3), (3, 1, 1)), ((6, 3), (3, 2, 1)),
                                 ((6, 4), (1, 4, 1))]]
    extra += [(f"grid-{na}x{nb}-{d}", causal_grid_basis(BiDims(na, nb), d, rng))
              for na, nb, d in [(2, 6, 2), (6, 2, 2), (8, 8, 2), (8, 8, 4)]]
    bases = oracle_bases + corpus_of_seed(1) + corpus_of_seed(3) + extra
    compared = 0
    for name, basis in bases:
        for side in "AB":
            expected = _reference_groups(basis, side, 1e-9)
            try:
                subspaces = semicausal_structure(basis, side)
            except ValueError:
                assert expected is None, (name, side)
                continue
            assert [(s.dim, list(s.member_indices)) for s in subspaces] == expected, (name, side)
            sigmas = _pair_tables(basis, side).sigmas
            for sub in subspaces:
                p_ref, dim_ref = _support_projector(sigmas[sub.member_indices[0]])
                assert sub.dim == dim_ref, (name, side)
                assert np.max(np.abs(sub.projector - p_ref)) < 1e-12, (name, side)
                compared += 1
    assert compared > 300


def broadcast_prod(sigmas):
    """``||s_a s_b||`` from one matrix product per pair, the table's former formula."""
    return np.linalg.norm(sigmas[:, None] @ sigmas[None, :], axis=(2, 3))


@pytest.fixture(scope="module")
def table_bases(oracle_bases, corpus_of_seed):
    rng = np.random.default_rng(57)
    haar = [(f"haar-{na}x{nb}", haar_basis(BiDims(na, nb), rng)) for na, nb in [(5, 7), (8, 8)]]
    return oracle_bases + corpus_of_seed(1) + corpus_of_seed(3) + haar


@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-5])
def test_gemm_prod_table_decides_as_broadcast_products(table_bases, tol):
    # the one-gemm table differs from the per-pair products in the last bits;
    # no pair may sit close enough to the bar for that to change a decision
    for name, basis in table_bases:
        bar = tol * max(1.0, basis.dims.total)
        for side in "AB":
            t = _pair_tables(basis, side)
            oracle = _PairTables(t.sigmas, t.diff, broadcast_prod(t.sigmas))
            assert _pairwise_verdict(t, bar) == _pairwise_verdict(oracle, bar), (name, side)
            steerable, _ = _witness_candidates(t, bar)
            assert np.array_equal(steerable, _witness_candidates(oracle, bar)[0]), (name, side)


def test_witness_order_matches_per_state_norms(table_bases):
    for name, basis in table_bases:
        bar = 1e-9 * max(1.0, basis.dims.total)
        for side in "AB":
            t = _pair_tables(basis, side)
            norms = [frobenius(s) for s in t.sigmas]
            assert np.array_equal(_frobenius_norms(t.sigmas), norms), (name, side)
            steerable, order = _witness_candidates(t, bar)
            candidates = [int(b) for b in np.nonzero(steerable.any(axis=1))[0]]
            assert np.array_equal(_frobenius_norms(t.sigmas[candidates]),
                                  [norms[b] for b in candidates]), (name, side)
            assert order.tolist() == sorted(candidates, key=lambda b: (-norms[b], b)), (name, side)

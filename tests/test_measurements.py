import dataclasses
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import measurements
from qcausal.channels import apply, measurement_channel
from qcausal.linalg import BiDims, HADAMARD, haar_unitary, partial_trace, proj, trace_distance
from qcausal.measurements import (
    OrthogonalBasis,
    _pair_tables,
    basis_signaling_witness,
    bell_basis,
    causal_grid_basis,
    causal_structure,
    completion_basis,
    conditional_basis,
    haar_basis,
    product_basis,
    rotate_basis,
    semicausal_basis_test,
    semicausal_partition_basis,
    semicausal_structure,
)
from qcausal.localizability import twisted_partition_basis
from qcausal.report import classify_basis
from qcausal.serialize import load_document

D22 = BiDims(2, 2)


def test_reduced_states_product_basis():
    sigmas = _pair_tables(product_basis(D22), "A").sigmas
    for s in sigmas:
        evals = np.linalg.eigvalsh(s)
        assert abs(evals[-1] - 1) < 1e-12 and np.all(evals[:-1] < 1e-12)


def test_reduced_states_bell_basis():
    for side in "AB":
        for s in _pair_tables(bell_basis(), side).sigmas:
            assert np.allclose(s, np.eye(2) / 2)


def test_reduced_states_conditional_basis():
    sigmas = _pair_tables(conditional_basis(), "A").sigmas
    e0, e1 = np.zeros((2, 2)), np.zeros((2, 2))
    e0[0, 0] = 1
    e1[1, 1] = 1
    assert np.allclose(sigmas[0], e0) and np.allclose(sigmas[1], e0)
    assert np.allclose(sigmas[2], e1) and np.allclose(sigmas[3], e1)


def test_reduced_states_resolve_identity(corpus):
    for name, basis in corpus[:12]:
        for side, other_dim in (("A", basis.dims.dim_b), ("B", basis.dims.dim_a)):
            sigmas = _pair_tables(basis, side).sigmas
            total = sum(sigmas)
            dim = basis.dims.dim_a if side == "A" else basis.dims.dim_b
            assert np.linalg.norm(total - other_dim * np.eye(dim)) < 1e-9 * basis.size, name
            for s in sigmas:
                assert abs(np.trace(s) - 1) < 1e-10


def test_pairwise_test_bell_and_conditional():
    assert semicausal_basis_test(bell_basis(), "A").semicausal
    assert semicausal_basis_test(bell_basis(), "B").semicausal
    assert semicausal_basis_test(conditional_basis(), "A").semicausal
    verdict = semicausal_basis_test(conditional_basis(), "B")
    assert not verdict.semicausal and verdict.violating_pair is not None


def test_pairwise_test_completion_fails_side_a():
    verdict = semicausal_basis_test(completion_basis(), "A")
    assert not verdict.semicausal


def test_structure_product_basis():
    st = semicausal_structure(product_basis(D22), "A")
    assert [s.dim for s in st] == [1, 1]
    assert sorted(len(s.member_indices) for s in st) == [2, 2]


def test_structure_bell_basis():
    st = semicausal_structure(bell_basis(), "A")
    assert len(st) == 1
    assert st[0].dim == 2
    assert len(st[0].member_indices) == 4


def test_structure_6x6_partition(rng):
    basis = semicausal_partition_basis(BiDims(6, 6), (3, 2, 1), rng)
    st = semicausal_structure(basis, "A")
    dims = sorted((s.dim for s in st), reverse=True)
    counts = sorted((len(s.member_indices) for s in st), reverse=True)
    assert dims == [3, 2, 1]
    assert counts == [18, 12, 6]


def test_structure_members_maximally_entangled(rng):
    basis = semicausal_partition_basis(BiDims(4, 4), (2, 2), rng)
    st = semicausal_structure(basis, "A")
    for s in st:
        for idx in s.member_indices:
            coeffs = np.linalg.svd(basis.vectors[idx].reshape(basis.dims), compute_uv=False)
            nonzero = coeffs[coeffs > 1e-9]
            assert np.all(np.abs(nonzero - 1 / np.sqrt(s.dim)) < 1e-9)


def test_structure_rejects_signaling_basis():
    with pytest.raises(ValueError):
        semicausal_structure(completion_basis(), "A")


def test_causal_grid_product_and_bell():
    grid = causal_structure(product_basis(D22))
    assert (grid.d, grid.r_a, grid.r_b) == (1, 2, 2)
    grid = causal_structure(bell_basis())
    assert (grid.d, grid.r_a, grid.r_b) == (2, 1, 1)


def test_causal_grid_6x6(rng):
    basis = causal_grid_basis(BiDims(6, 6), 2, rng)
    grid = causal_structure(basis)
    assert (grid.d, grid.r_a, grid.r_b) == (2, 3, 3)
    for row in grid.cells:
        for cell in row:
            assert len(cell) == 4


def test_causal_grid_twisted_partition():
    for u in (np.eye(2), HADAMARD):
        grid = causal_structure(twisted_partition_basis(u))
        assert (grid.d, grid.r_a, grid.r_b) == (2, 2, 2)


def test_witness_conditional_basis_side_b():
    w = basis_signaling_witness(conditional_basis(), "B")
    assert w.separation > 0.1
    # oracle: steering the receiver between |0><0| and the even mixture
    assert w.separation <= 0.5 + 1e-9


def test_witness_completion_basis_side_a():
    basis = completion_basis()
    w = basis_signaling_witness(basis, "A")
    # steering between a pure reduced output and the even mixture: distance 1/2
    assert abs(w.separation - 0.5) < 1e-9
    # replaying the witness reproduces the separation through the channel
    ch = measurement_channel(basis)
    full = np.kron(np.eye(2), w.unitary)
    vec = basis.vectors[w.b_index]
    out_plain = partial_trace(apply(ch, proj(vec)), basis.dims, "B")
    out_steered = partial_trace(apply(ch, proj(full @ vec)), basis.dims, "B")
    assert abs(trace_distance(out_plain, out_steered) - w.separation) < 1e-9


def test_witness_requires_failing_side():
    with pytest.raises(ValueError):
        basis_signaling_witness(bell_basis(), "A")


def test_witness_is_none_when_no_pair_clears_the_bar(near_causal_basis):
    for side in "AB":
        assert not semicausal_basis_test(near_causal_basis, side).semicausal
        assert basis_signaling_witness(near_causal_basis, side) is None


def test_basis_rejects_non_positive_dimensions():
    # BiDims(-2, -2) has 4 as its total, so the four Bell vectors fit its size
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        OrthogonalBasis(bell_basis().vectors, BiDims(-2, -2))
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        OrthogonalBasis((np.ones(1, dtype=complex),), BiDims(-1, -1))


def test_tables_are_built_once_and_read_only():
    vecs = [v.copy() for v in conditional_basis().vectors]
    basis = OrthogonalBasis(tuple(vecs), D22)
    vecs[0][:] = 0  # the basis keeps its own copy
    assert np.linalg.norm(basis.vectors[0]) == pytest.approx(1.0)
    first, again = _pair_tables(basis, "A").sigmas, _pair_tables(basis, "A").sigmas
    assert all(np.shares_memory(s, t) for s, t in zip(first, again))
    for arr in (basis.vectors[0], first[0]):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_projector_stack_is_formed_once_for_the_channel_and_both_sides(rng):
    basis = haar_basis(BiDims(2, 3), rng)
    rows = basis.vectors
    stack = basis.projectors()
    assert basis.projectors() is stack and not stack.flags.writeable
    assert np.array_equal(stack, rows[:, :, None] * rows.conj()[:, None, :])
    assert np.array_equal(measurement_channel(basis).kraus, stack)
    # the pair tables read the kept stack: a changed copy of it shows in them
    fresh = OrthogonalBasis(rows, basis.dims)
    fresh._cache["projectors"] = 2 * stack
    assert np.array_equal(_pair_tables(fresh, "A").sigmas, 2 * _pair_tables(basis, "A").sigmas)


def test_structure_follows_tol(near_causal_basis):
    with pytest.raises(ValueError, match="pairwise criterion"):
        causal_structure(near_causal_basis)
    grid = causal_structure(near_causal_basis, tol=1e-5)
    assert (grid.d, grid.r_a, grid.r_b) == (2, 2, 2)


def test_witness_unitary_is_unitary():
    w = basis_signaling_witness(conditional_basis(), "B")
    assert np.linalg.norm(w.unitary @ w.unitary.conj().T - np.eye(2)) < 1e-9


def test_witness_exists_across_corpus(corpus):
    found = 0
    for name, basis in corpus:
        for side in "AB":
            verdict = semicausal_basis_test(basis, side)
            if verdict.semicausal:
                continue
            w = basis_signaling_witness(basis, side)
            assert w.separation > 1e-6, name
            found += 1
    assert found >= 10


def test_rotation_preserves_structure(rng):
    basis = rotate_basis(bell_basis(), haar_unitary(2, rng), haar_unitary(2, rng))
    assert semicausal_basis_test(basis, "A").semicausal
    assert semicausal_basis_test(basis, "B").semicausal
    grid = causal_structure(basis)
    assert (grid.d, grid.r_a, grid.r_b) == (2, 1, 1)


def test_basis_takes_a_stack_as_one_copy():
    rows = np.eye(4, dtype=complex)[::-1]
    basis = OrthogonalBasis(rows, D22)
    assert basis.vectors is not rows and np.array_equal(basis.vectors, rows)
    assert rows.flags.writeable and not basis.vectors.flags.writeable
    # ``vectors`` is the one (n, n) stack; the basis keeps no second copy
    assert [f.name for f in dataclasses.fields(basis)] == ["vectors", "dims", "_cache"]
    with pytest.raises(ValueError, match="basis has 3 vectors, expected 4"):
        OrthogonalBasis(rows[:3], D22)


@settings(max_examples=60, deadline=None)
@given(dim_a=st.integers(1, 3), dim_b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       spot=st.integers(0, 80), imag=st.booleans(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200]))
def test_basis_with_a_non_finite_or_overflowing_entry_is_rejected(dim_a, dim_b, seed, spot,
                                                                  imag, bad):
    # a stack is decided by its trace-preservation residual alone; a vector
    # sequence also passes through as_vector's own finiteness check. The
    # error::RuntimeWarning filter turns any warning numpy leaks on the way
    # into a failure.
    dims = BiDims(dim_a, dim_b)
    rows = haar_basis(dims, np.random.default_rng(seed)).vectors.copy()
    i, j = divmod(spot % rows.size, rows.shape[1])
    rows[i, j] = complex(0.0, bad) if imag else complex(bad, 0.0)
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        OrthogonalBasis(rows, dims)
    with pytest.raises(ValueError, match="not orthonormal|non-finite"):
        OrthogonalBasis(tuple(rows), dims)


def test_classify_decides_each_side_once(corpus, monkeypatch):
    # one pairwise verdict per side: the structure, the witness and classify
    # itself read the verdict kept with that side's tables
    decided, tested = [], []
    original_verdict, original_test = measurements._pairwise_verdict, semicausal_basis_test

    def counted_verdict(tables, bar):
        decided.append(tables)
        return original_verdict(tables, bar)

    def counted_test(basis, side, *args, **kwargs):
        tested.append(side)
        return original_test(basis, side, *args, **kwargs)

    monkeypatch.setattr(measurements, "_pairwise_verdict", counted_verdict)
    for key, module in list(sys.modules.items()):
        if key == "qcausal" or key.startswith("qcausal."):
            for attr, value in list(vars(module).items()):
                if value is original_test:
                    monkeypatch.setattr(module, attr, counted_test)
    fixtures = resources.files("qcausal") / "fixtures"
    bases = [b for _, b in corpus] + [
        load_document(str(fixtures / name))
        for name in ("bell_basis.json", "completion_basis.json", "conditional_basis.json",
                     "mismatch_basis.json", "twisted_quadrant_basis.json")]
    for basis in bases:
        fresh = OrthogonalBasis(basis.vectors, basis.dims)  # no tables kept from other tests
        decided.clear()
        tested.clear()
        report = classify_basis(fresh)
        assert len(decided) == 2 and decided[0] is not decided[1]
        assert sorted(tested) == ["A", "B"]
        assert report.causal == all(t.verdicts[measurements._bar(fresh, 1e-9)].semicausal
                                    for t in decided)


@pytest.mark.parametrize("name", ["mismatch_basis.json", "rotated-grid-4x4"])
def test_classify_takes_one_schmidt_svd_and_no_eigh(name, monkeypatch):
    # the Schmidt coefficients, both sides' support projectors and the grid's
    # anchor frames all come from one batched SVD kept with the basis
    if name.endswith(".json"):
        basis = load_document(str(resources.files("qcausal") / "fixtures" / name))
    else:
        basis = causal_grid_basis(BiDims(4, 4), 2, np.random.default_rng(31))
    calls = {"eigh": 0, "svd": 0}

    def counting(func):
        original = getattr(np.linalg, func)

        def counted(*args, **kwargs):
            calls[func] += 1
            return original(*args, **kwargs)
        return counted

    for func in calls:
        monkeypatch.setattr(np.linalg, func, counting(func))
    fresh = OrthogonalBasis(basis.vectors, basis.dims)  # no tables kept from other tests
    assert classify_basis(fresh).causal
    assert calls == {"eigh": 0, "svd": 1}

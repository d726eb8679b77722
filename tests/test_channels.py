import dataclasses

import numpy as np
import pytest

from qcausal.channels import (
    KrausChannel,
    apply,
    choi,
    choi_distance,
    compose,
    convex_mixture,
    identity_channel,
    measurement_channel,
    validate,
)
from qcausal.linalg import BiDims, frobenius, proj, random_density_matrix
from qcausal.measurements import bell_basis, bell_states, conditional_basis, incomplete_bell_channel
from qcausal.twirl import bell_twirl

D22 = BiDims(2, 2)


def test_validate_identity():
    report = validate(identity_channel(D22))
    assert report.tp and report.deviation < 1e-15


def test_validate_bell_measurement():
    assert validate(measurement_channel(bell_basis())).tp


def test_validate_subnormalized():
    ch = KrausChannel((np.eye(4, dtype=complex) / 2,), D22)
    report = validate(ch)
    assert not report.tp
    # oracle: sum M^dag M = I/4, so the deviation is ||I/4 - I||_F
    assert abs(report.deviation - np.linalg.norm(np.eye(4) * 0.75)) < 1e-12


def test_validate_rejects_ragged():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(4, dtype=complex), np.eye(3, dtype=complex)), D22)


@pytest.mark.parametrize("dims", [BiDims(-2, -2), BiDims(0, 3), BiDims(-1, -1)])
def test_channel_rejects_non_positive_dimensions(dims):
    n = dims.total
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        KrausChannel((np.eye(n, dtype=complex),), dims)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_entry_in_last_kraus_operator_raises(bad):
    last = np.eye(4, dtype=complex) / np.sqrt(2)
    last[3, 2] = bad
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        KrausChannel((np.eye(4, dtype=complex) / np.sqrt(2), last), D22)


def test_stacked_is_built_once_and_read_only():
    # ``kraus`` is the one read-only (k, n, n) stack; the channel keeps no second copy
    ch = measurement_channel(bell_basis())
    stack = ch.kraus
    assert [f.name for f in dataclasses.fields(ch)] == ["kraus", "dims", "_cache"]
    assert isinstance(stack, np.ndarray) and stack.shape == (4, 4, 4)
    assert not stack.flags.writeable
    assert all(k.base is stack and not k.flags.writeable for k in ch.kraus)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


def test_apply_identity(rng):
    rho = random_density_matrix(4, rng)
    assert np.allclose(apply(identity_channel(D22), rho), rho)


def test_apply_bell_measurement_eigenstate():
    ch = measurement_channel(bell_basis())
    phi = proj(bell_states()[0])
    assert np.allclose(apply(ch, phi), phi)


def test_apply_bell_measurement_on_00():
    # oracle: expand |00><00| in Bell projectors directly
    ch = measurement_channel(bell_basis())
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    expected = sum(abs(np.vdot(b, e00)) ** 2 * proj(b) for b in bell_states())
    out = apply(ch, proj(e00))
    assert np.linalg.norm(out - expected) < 1e-12
    phi_p, phi_m = bell_states()[0], bell_states()[1]
    assert np.linalg.norm(out - (proj(phi_p) + proj(phi_m)) / 2) < 1e-12


def test_apply_preserves_trace_and_psd(rng):
    ch = measurement_channel(conditional_basis())
    rho = random_density_matrix(4, rng)
    out = apply(ch, rho)
    assert abs(np.trace(out) - 1) < 1e-9
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-9


def test_apply_linearity_on_mixtures(rng):
    ch = measurement_channel(bell_basis())
    r1, r2 = random_density_matrix(4, rng), random_density_matrix(4, rng)
    for lam in (0.0, 0.25, 0.5, 1.0):
        mix = lam * r1 + (1 - lam) * r2
        assert np.allclose(apply(ch, mix), lam * apply(ch, r1) + (1 - lam) * apply(ch, r2))


def test_compose_with_identity(rng):
    ch = measurement_channel(bell_basis())
    both = compose(identity_channel(D22), ch)
    rho = random_density_matrix(4, rng)
    assert np.allclose(apply(both, rho), apply(ch, rho))


def test_compose_twirl_idempotent(rng):
    tw = bell_twirl()
    rho = random_density_matrix(4, rng)
    assert np.linalg.norm(apply(compose(tw, tw), rho) - apply(tw, rho)) < 1e-10


def test_compose_incomplete_measurement_still_tp():
    ch = incomplete_bell_channel()
    assert validate(compose(ch, ch)).tp


def test_compose_matches_sequential_application(rng):
    e1 = measurement_channel(conditional_basis())
    e2 = bell_twirl()
    rho = random_density_matrix(4, rng)
    assert np.allclose(apply(compose(e2, e1), rho), apply(e2, apply(e1, rho)))


def test_choi_scalar_case():
    ch = identity_channel(BiDims(1, 1))
    c = choi(ch)
    assert c.matrix.shape == (1, 1)
    assert abs(c.matrix[0, 0] - 1) < 1e-12


def test_choi_identity_rank_one():
    c = choi(identity_channel(D22))
    evals = np.linalg.eigvalsh(c.matrix)
    assert np.sum(evals > 1e-9) == 1
    assert abs(np.trace(c.matrix) - 4) < 1e-9


def test_choi_trace_equals_total_dimension():
    for basis in (bell_basis(), conditional_basis()):
        c = choi(measurement_channel(basis))
        assert abs(np.trace(c.matrix) - basis.dims.total) < 1e-9


def test_choi_twirl_equals_measurement():
    c1 = choi(bell_twirl())
    c2 = choi(measurement_channel(bell_basis()))
    assert choi_distance(c1, c2) < 1e-9


def test_choi_psd_certificate(rng):
    for ch in (identity_channel(D22), bell_twirl(), measurement_channel(conditional_basis())):
        c = choi(ch).matrix
        assert np.linalg.norm(c - c.conj().T) < 1e-12
        assert np.linalg.eigvalsh(c).min() > -1e-9 * len(c)


def test_choi_of_map_agrees_with_kraus_route(rng, choi_of_map):
    for dims in (BiDims(2, 2), BiDims(2, 3)):
        basis_ch = measurement_channel(bell_basis()) if dims == D22 else None
        ch = basis_ch or identity_channel(dims)
        direct = choi(ch)
        via_units = choi_of_map(lambda x: apply(ch, x), dims)
        assert choi_distance(direct, via_units) < 1e-9


def test_choi_of_composition_from_matrix_units(rng, choi_of_map):
    e1 = measurement_channel(conditional_basis())
    e2 = bell_twirl()
    composed = compose(e2, e1)
    via_units = choi_of_map(lambda x: apply(e2, apply(e1, x)), D22)
    assert choi_distance(choi(composed), via_units) < 1e-9


def test_convex_mixture_is_tp():
    mix = convex_mixture([bell_twirl(), identity_channel(D22)], [0.5, 0.5])
    assert validate(mix).tp


def test_measurement_channel_product_basis_dephases(rng):
    from qcausal.measurements import product_basis

    ch = measurement_channel(product_basis(D22))
    rho = random_density_matrix(4, rng)
    out = apply(ch, rho)
    assert np.allclose(out, np.diag(np.diag(rho)))


def test_measurement_channel_rejects_incomplete_basis():
    from qcausal.measurements import OrthogonalBasis

    vecs = tuple(np.eye(4, dtype=complex)[:, k] for k in range(3))
    with pytest.raises(ValueError):
        OrthogonalBasis(vecs, D22)


def _outer_measurement_channel(basis) -> KrausChannel:
    """The measurement channel from one np.outer per basis vector."""
    return KrausChannel(tuple(np.outer(v, v.conj()) for v in basis.vectors), basis.dims)


def _summed_deviation(ch: KrausChannel) -> float:
    """The trace-preservation deviation from a Python sum of K^dag K."""
    acc = sum(k.conj().T @ k for k in ch.kraus)
    return frobenius(acc - np.eye(ch.dim))


def _oracle_channels(bases):
    from qcausal.games import and_box_channel
    from qcausal.twirl import PauliString, stabilizer_channel, werner_twirl

    stabilizer = stabilizer_channel([PauliString.parse(g) for g in ("+XXX", "+ZZI")])
    return ([measurement_channel(b) for _, b in bases]
            + [_outer_measurement_channel(b) for _, b in bases]
            + [incomplete_bell_channel(), and_box_channel(), bell_twirl(), werner_twirl(),
               stabilizer, identity_channel(BiDims(3, 2))])


def test_measurement_channel_matches_per_vector_outer_products(corpus, corpus_of_seed):
    for name, basis in corpus + corpus_of_seed(1):
        got, want = measurement_channel(basis).kraus, _outer_measurement_channel(basis).kraus
        assert np.array_equal(got, want), name


def test_validate_matches_python_sum(corpus, corpus_of_seed):
    for ch in _oracle_channels(corpus + corpus_of_seed(1)):
        assert validate(ch).deviation == _summed_deviation(ch)


def test_channel_takes_a_stack_as_one_copy():
    stack = np.stack([np.eye(4, dtype=complex) / np.sqrt(2)] * 2)
    ch = KrausChannel(stack, D22)
    assert ch.kraus is not stack and np.array_equal(ch.kraus, stack)
    assert stack.flags.writeable and not ch.kraus.flags.writeable
    assert all(k.base is ch.kraus for k in ch.kraus)
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 3\) != \(4, 4\)"):
        KrausChannel(np.zeros((2, 3, 3), dtype=complex), D22)

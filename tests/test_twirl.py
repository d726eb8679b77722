import numpy as np
import pytest

from qcausal.causality import A_TO_B, B_TO_A, semicausal_test
from qcausal.channels import (
    KrausChannel,
    apply,
    channel_distance,
    choi,
    choi_distance,
    compose,
    measurement_channel,
    validate,
)
from qcausal.linalg import (
    BiDims,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    haar_unitary,
    operator_schmidt,
    proj,
    random_density_matrix,
    tensor_product,
)
from qcausal.localizability import (
    EIGENSTATE_CLOSURE,
    PROJECTIVE_GROUP,
    closure_obstruction_search,
    extract_unitaries,
    mismatch_basis,
    projective_group_test,
    twisted_partition_basis,
)
from qcausal.measurements import (
    bell_basis,
    bell_states,
    causal_grid_basis,
    causal_structure,
    rotate_basis,
)
from qcausal.report import classify_basis
from qcausal.twirl import (
    PauliString,
    bell_twirl,
    close_group,
    grid_twirl_channel,
    pauli_twirl_group,
    stabilizer_channel,
    stabilizer_twirl,
    tetrahedral_group,
    twirl_channel,
    werner_twirl,
)

D22 = BiDims(2, 2)


def test_pauli_string_parse_and_matrix():
    s = PauliString.parse("-ZIZ")
    assert s.sign == -1 and s.letters == "ZIZ"
    assert str(s) == "-ZIZ"
    m = PauliString.parse("+XXI").to_matrix()
    assert np.allclose(m, tensor_product(tensor_product(PAULI_X, PAULI_X), np.eye(2)))
    # Y convention: the standard matrix equals i X Z
    assert np.allclose(PauliString.parse("+Y").to_matrix(), 1j * PAULI_X @ PAULI_Z)


def test_pauli_string_commutation():
    assert PauliString("XX").commutes_with(PauliString("ZZ"))
    assert not PauliString("XI").commutes_with(PauliString("ZI"))
    assert PauliString("XZ").commutes_with(PauliString("ZX"))


def test_close_group_small_cases():
    g = close_group([PAULI_X])
    assert len(g) == 2
    g = close_group([tensor_product(PAULI_X, PAULI_X), tensor_product(PAULI_Z, PAULI_Z)])
    assert len(g) == 4
    assert len(tetrahedral_group()) == 12


def test_groups_are_read_only_stacks_identity_first():
    for group, order, n in ((close_group([PAULI_X]), 2, 2), (pauli_twirl_group(), 4, 4),
                            (tetrahedral_group(), 12, 2)):
        assert group.shape == (order, n, n)
        assert not group.flags.writeable
        assert np.allclose(group[0], np.eye(n))


def test_close_group_rejects_nonunitary():
    with pytest.raises(ValueError):
        close_group([np.diag([1.0, 0.5]).astype(complex)])


def test_close_group_order_overflow():
    t_like = np.diag([1, np.exp(1j * np.pi / 7)]).astype(complex)
    with pytest.raises(ValueError, match="max_order"):
        close_group([t_like], max_order=5)


def test_trivial_twirl_is_identity(rng):
    g = close_group([np.eye(4, dtype=complex)])
    ch = twirl_channel(g, D22)
    rho = random_density_matrix(4, rng)
    assert np.allclose(apply(ch, rho), rho)


def test_pauli_twirl_equals_bell_measurement():
    assert choi_distance(choi(bell_twirl()), choi(measurement_channel(bell_basis()))) < 1e-9


def test_tetrahedral_twirl_on_00(rng):
    # oracle: direct 12-term summation over the closed group
    group = tetrahedral_group()
    rho = proj([1, 0, 0, 0])
    acc = np.zeros((4, 4), dtype=complex)
    for u in group:
        w = tensor_product(u, u)
        acc += w @ rho @ w.conj().T
    acc /= len(group)
    out = apply(werner_twirl(), rho)
    assert np.linalg.norm(out - acc) < 1e-12
    # the singlet weight of |00> is zero, so the output is the even triplet mixture
    psi_minus = bell_states()[3]
    expected = (np.eye(4) - proj(psi_minus)) / 3
    assert np.linalg.norm(out - expected) < 1e-9


def test_tetrahedral_twirl_on_phi_plus():
    # singlet weight of phi+ is zero too: same even triplet mixture
    phi_plus, psi_minus = bell_states()[0], bell_states()[3]
    out = apply(werner_twirl(), proj(phi_plus))
    expected = (np.eye(4) - proj(psi_minus)) / 3
    assert np.linalg.norm(out - expected) < 1e-9


def test_stabilizer_single_qubit_dephasing(rng):
    ch = stabilizer_channel([PauliString.parse("+Z")], dims=BiDims(1, 2))
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply(ch, rho), np.diag(np.diag(rho)))


def test_stabilizer_bell_case():
    ch = stabilizer_channel([PauliString.parse("+XX"), PauliString.parse("+ZZ")])
    assert validate(ch).tp
    assert choi_distance(choi(ch), choi(measurement_channel(bell_basis()))) < 1e-9


def test_stabilizer_parity_sector_coherence():
    # oracle: projector algebra, |phi+><phi-| lives inside the even sector
    ch = stabilizer_channel([PauliString.parse("+ZZ")])
    phi_p, phi_m = bell_states()[0], bell_states()[1]
    coherence = np.outer(phi_p, phi_m.conj())
    assert np.allclose(apply(ch, coherence), coherence)
    # cross-sector coherence dies
    psi_p = bell_states()[2]
    cross = np.outer(phi_p, psi_p.conj())
    assert np.linalg.norm(apply(ch, cross)) < 1e-12


def test_stabilizer_rejects_bad_generators():
    with pytest.raises(ValueError, match="commute"):
        stabilizer_channel([PauliString.parse("+XI"), PauliString.parse("+ZI")])
    with pytest.raises(ValueError, match="dependent"):
        stabilizer_channel([PauliString.parse("+XX"), PauliString.parse("+ZZ"),
                            PauliString.parse("-YY")])


@pytest.mark.parametrize("texts, dims, message", [
    (["+X", "+Z"], None, "generators +X and +Z do not commute"),
    (["+XX", "+XX"], None, "generators are dependent"),
    (["+XX", "-XX"], None, "generators are dependent"),
    (["+XX", "+ZZ", "-YY"], None, "generators are dependent"),
    (["+II"], None, "generators are dependent"),
    ([], None, "need at least one generator"),
    (["+XI", "+ZZZ"], None, "generators act on different qubit counts"),
    (["+ZZ"], BiDims(2, 4), "bipartition BiDims(dim_a=2, dim_b=4) does not cover 2 qubits"),
], ids=["anticommuting", "repeated", "opposite-signs", "three-on-two-qubits", "identity",
        "none", "qubit-counts", "bipartition"])
def test_stabilizer_builders_reject_the_same_generators(texts, dims, message):
    generators = [PauliString.parse(t) for t in texts]
    for build in (stabilizer_channel, stabilizer_twirl):
        with pytest.raises(ValueError) as info:
            build(generators, dims)
        assert str(info.value) == message, build.__name__


def _symplectic_rank(generators):
    """GF(2) rank of the generators' (x|z) vectors, X -> (1|0), Z -> (0|1), Y -> (1|1)."""
    rows = [int("".join("1" if c in "XY" else "0" for c in g.letters)
                + "".join("1" if c in "ZY" else "0" for c in g.letters), 2) for g in generators]
    rank = 0
    while rows and max(rows):
        pivot = max(rows)
        rows.remove(pivot)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows]
        rank += 1
    return rank


def _commuting(generators):
    return all(g.commutes_with(h) for i, g in enumerate(generators) for h in generators[i + 1:])


def test_stabilizer_dependence_matches_symplectic_rank(rng):
    # dependent generators leave some sign pattern's projector empty, and generate
    # fewer than 2**k group elements; the oracle is the GF(2) rank of the symplectic
    # vectors
    two = [PauliString(a + b, sign) for a in "IXYZ" for b in "IXYZ" for sign in (1, -1)]
    sets = [[g] for g in two] + [[g, h] for i, g in enumerate(two) for h in two[i + 1:]]
    sets += [[two[k] for k in rng.choice(len(two), 3, replace=False)] for _ in range(200)]
    three = [PauliString("".join(rng.choice(list("IXYZ"), 3)), int(rng.choice([1, -1])))
             for _ in range(300)]
    sets += [list(three[k:k + 3]) for k in range(0, 300, 3)]
    sets += [[PauliString("XXI"), PauliString("IXX"), PauliString("XIX")],
             [PauliString("ZZ"), PauliString("ZZ", -1)], [PauliString("II")]]
    checked = 0
    for gens in filter(_commuting, sets):
        independent = _symplectic_rank(gens) == len(gens)
        if independent:
            assert len(stabilizer_channel(gens).kraus) == 2 ** len(gens)
            assert len(stabilizer_twirl(gens).kraus) == 2 ** len(gens)
        else:
            for build in (stabilizer_channel, stabilizer_twirl):
                with pytest.raises(ValueError, match="dependent"):
                    build(gens)
        checked += 1
    assert checked > 300


def test_stabilizer_matches_twirl_on_fixtures():
    fixture_sets = [
        [PauliString.parse("+XX"), PauliString.parse("+ZZ")],
        [PauliString.parse("+ZZ")],
        [PauliString.parse("+XX")],
        [PauliString.parse("+ZI"), PauliString.parse("+IZ")],
    ]
    for gens in fixture_sets:
        direct = stabilizer_channel(gens)
        via_group = stabilizer_twirl(gens)
        assert choi_distance(choi(direct), choi(via_group)) < 1e-9


def test_werner_twirl_preserves_singlet_fidelity(rng):
    ch = werner_twirl()
    psi_minus = bell_states()[3]
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        before = np.vdot(psi_minus, rho @ psi_minus).real
        after = np.vdot(psi_minus, apply(ch, rho) @ psi_minus).real
        assert abs(before - after) < 1e-9


def test_werner_twirl_fixed_points(rng):
    ch = werner_twirl()
    psi_minus = bell_states()[3]
    assert np.linalg.norm(apply(ch, proj(psi_minus)) - proj(psi_minus)) < 1e-9
    assert np.linalg.norm(apply(ch, np.eye(4) / 4) - np.eye(4) / 4) < 1e-9


def test_werner_twirl_output_form(rng):
    # Bell-diagonal with the three triplet weights equal
    ch = werner_twirl()
    basis = np.stack(bell_states(), axis=1)
    for _ in range(10):
        out = apply(ch, random_density_matrix(4, rng))
        in_bell = basis.conj().T @ out @ basis
        off_diag = in_bell - np.diag(np.diag(in_bell))
        assert np.linalg.norm(off_diag) < 1e-9
        triplet = [in_bell[k, k].real for k in range(3)]
        assert max(triplet) - min(triplet) < 1e-9


def test_twirl_channels_are_causal_for_product_groups():
    for ch in (bell_twirl(), werner_twirl()):
        assert semicausal_test(ch, B_TO_A)
        assert semicausal_test(ch, A_TO_B)


def twirl_structure_check(group, ch, tol=1e-9):
    """Operational consequences of the irreducible-sector averaging identity.

    (i) outputs commute with every group element (checked on all matrix units,
    hence by linearity for every input); (ii) the channel is idempotent as a
    map (Choi equality of ch and ch after ch). Requires ch == twirl of group.
    """
    if choi_distance(choi(twirl_channel(group, ch.dims)), choi(ch)) >= tol * ch.dim ** 2:
        raise ValueError("channel is not the twirl of the given group")
    dim = ch.dim
    worst = 0.0
    unit = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit[:] = 0
            unit[i, j] = 1.0
            out = apply(ch, unit)
            for u in group:
                worst = max(worst, np.linalg.norm(out @ u - u @ out))
    gap = choi_distance(choi(compose(ch, ch)), choi(ch))
    assert worst < tol * dim and gap < tol * dim, (worst, gap)


def test_structure_check_on_twirls():
    for group, dims in ((pauli_twirl_group(), D22),):
        twirl_structure_check(group, twirl_channel(group, dims))
    wt = werner_twirl()
    tetra_two_qubit = np.stack([tensor_product(u, u) for u in tetrahedral_group()])
    twirl_structure_check(tetra_two_qubit, wt)
    trivial = close_group([np.eye(4, dtype=complex)])
    twirl_structure_check(trivial, twirl_channel(trivial, D22))


def test_structure_check_rejects_mismatched_channel():
    with pytest.raises(ValueError):
        twirl_structure_check(pauli_twirl_group(), werner_twirl())


def _grid_twirl_distance(basis) -> float:
    candidate = grid_twirl_channel(basis, causal_structure(basis))
    return choi_distance(choi(candidate), choi(measurement_channel(basis)))


def _obstruction_of_its_shape(basis):
    grid = causal_structure(basis)
    if grid.r_a == grid.r_b == 1:
        return projective_group_test(extract_unitaries(grid))
    return closure_obstruction_search(basis, grid)


def test_grid_twirl_reproduces_localizable_grids(corpus, rng):
    twisted = twisted_partition_basis(PAULI_X)
    bases = [basis for name, basis in corpus if name.startswith(("grid-", "product-"))]
    bases += [twisted, rotate_basis(twisted, haar_unitary(4, rng), haar_unitary(4, rng))]
    assert len(bases) == 15
    for basis in bases:
        assert _grid_twirl_distance(basis) < 1e-9 * basis.dims.total
        # an exact construction leaves nothing for the obstruction search to find
        assert _obstruction_of_its_shape(basis) is None


def test_grid_twirl_kraus_operators_are_products(rng):
    basis = rotate_basis(twisted_partition_basis(PAULI_X), haar_unitary(4, rng), haar_unitary(4, rng))
    candidate = grid_twirl_channel(basis, causal_structure(basis))
    assert len(candidate.kraus) == 16
    for k in candidate.kraus:
        assert len(operator_schmidt(k, basis.dims)) == 1
    assert validate(candidate).tp


def test_grid_twirl_matches_per_element_products(rng):
    """The batched Kraus stack equals the products built one (g, alpha, beta) at a time."""
    bases = [rotate_basis(twisted_partition_basis(PAULI_X), haar_unitary(4, rng),
                          haar_unitary(4, rng)),
             causal_grid_basis(BiDims(6, 6), 3, rng), causal_grid_basis(BiDims(4, 6), 1, rng),
             mismatch_basis()]
    for basis in bases:
        grid = causal_structure(basis)
        group = grid.unitaries[list(grid.cells[0][0])]
        expected = [tensor_product(f @ v @ f.conj().T, e @ v.conj() @ e.conj().T) / grid.d
                    for v in group for f in grid.rows for e in grid.cols]
        got = grid_twirl_channel(basis, grid).kraus
        assert got.shape == (len(expected),) + expected[0].shape
        assert np.abs(got - np.stack(expected)).max() < 1e-15


def test_grid_twirl_rejects_obstructed_bases():
    for basis, kind in ((twisted_partition_basis(HADAMARD), EIGENSTATE_CLOSURE),
                        (mismatch_basis(), PROJECTIVE_GROUP)):
        assert _grid_twirl_distance(basis) > 1.0
        assert _obstruction_of_its_shape(basis).kind == kind
        report = classify_basis(basis)
        assert [c["kind"] for c in report.obstructions] == [kind]
        assert report.localizability.startswith("not localizable")


def test_channel_distance_matches_choi_distance(rng):
    dims = BiDims(2, 3)
    channels = []
    for n_kraus in (1, 3, 4):
        stack = rng.normal(size=(6 * n_kraus, 6)) + 1j * rng.normal(size=(6 * n_kraus, 6))
        channels.append(KrausChannel(tuple(np.linalg.qr(stack)[0].reshape(n_kraus, 6, 6)), dims))
    # a unitary mixing of the Kraus operators is the same channel
    mixing = haar_unitary(4, rng)
    kraus = channels[2].kraus
    channels.append(KrausChannel(tuple(np.einsum("ij,jkl->ikl", mixing, kraus)), dims))
    for e1 in channels:
        for e2 in channels:
            expected = choi_distance(choi(e1), choi(e2))
            assert abs(channel_distance(e1, e2) - expected) < 1e-12
    assert channel_distance(channels[0], channels[1]) > 0.1
    assert channel_distance(channels[2], channels[3]) < 1e-13

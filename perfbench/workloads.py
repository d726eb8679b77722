"""Inputs of each workload, built from qcausal's public generators and a seed.

Every input carries an expectation that follows from how it was built, and
nothing more: grids and product bases are causal and carry no obstruction,
partition bases block B->A, the bundled fixtures follow the verdict table in
the top-level README. Inputs whose class the construction does not fix
(Haar-random bases, random Kraus channels) carry no class expectation; the
checker still decides their semicausality exactly and replays their witnesses.

Only the worker process imports this module; the checker never does.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from qcausal.channels import KrausChannel, measurement_channel
from qcausal.linalg import BiDims, haar_unitary
from qcausal.measurements import (
    bell_basis,
    causal_grid_basis,
    completion_basis,
    conditional_basis,
    haar_basis,
    product_basis,
    rotate_basis,
    semicausal_partition_basis,
)
from qcausal.serialize import dump_document
from qcausal.twirl import PauliString, bell_twirl, stabilizer_channel, werner_twirl

# The seed of the test corpus in tests/conftest.py. The corpus member grid-6
# is always taken from this seed so that its known failure does not depend on
# the benchmark's --seed.
TEST_CORPUS_SEED = 11
GRID6_FAULT = "(a x I) psi is not an eigenstate"

CAUSAL_GRID = {"BtoA": True, "AtoB": True, "localizability": ["localizable by construction",
                                                               "no obstruction found"],
               "obstruction": None}
BLOCKS_B_TO_A = {"BtoA": True}
SIGNALS_BOTH = {"BtoA": False, "AtoB": False}
CAUSAL = {"BtoA": True, "AtoB": True}

# Expected classes of the bundled fixtures, from the verdict table in README.md.
FIXTURE_EXPECT = {
    "bell_basis.json": {"BtoA": True, "AtoB": True,
                        "localizability": ["localizable by construction"], "obstruction": None},
    "conditional_basis.json": {"BtoA": True, "AtoB": False},
    "completion_basis.json": SIGNALS_BOTH,
    "twisted_quadrant_basis.json": {"BtoA": True, "AtoB": True,
                                    "obstruction": "EigenstateClosure"},
    "mismatch_basis.json": {"BtoA": True, "AtoB": True, "obstruction": "ProjectiveGroup"},
    "sorkin.json": SIGNALS_BOTH,
    "andbox.json": {"BtoA": True, "AtoB": True, "obstruction": "GameValue", "gameValue": 1.0},
}


@dataclass
class Input:
    """One operation of a round: a file to classify and what its build implies."""

    name: str
    obj: object = None          # a basis or channel to write, or None for a fixture
    fixture: str | None = None  # bundled fixture file name to copy
    expect: dict = field(default_factory=dict)


def build_corpus(seed: int) -> list[Input]:
    """The 60-basis corpus of tests/conftest.py, rebuilt here with ``seed``.

    With seed 11 this is exactly the test corpus.
    """
    rng = np.random.default_rng(seed)
    items = [
        Input("bell", bell_basis(), expect=FIXTURE_EXPECT["bell_basis.json"]),
        Input("conditional", conditional_basis(), expect=FIXTURE_EXPECT["conditional_basis.json"]),
        Input("completion", completion_basis(), expect=FIXTURE_EXPECT["completion_basis.json"]),
        Input("product-2x2", product_basis(BiDims(2, 2)), expect=CAUSAL_GRID),
        Input("product-2x3", product_basis(BiDims(2, 3)), expect=CAUSAL_GRID),
        Input("product-3x3", product_basis(BiDims(3, 3)), expect=CAUSAL_GRID),
    ]
    for k, (na, nb) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2),
                                  (4, 3), (3, 4), (4, 4)]):
        items.append(Input(f"haar-{na}x{nb}-{k}", haar_basis(BiDims(na, nb), rng)))
    for k, (na, nb) in enumerate([(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 2), (4, 3)]):
        items.append(Input(f"rotated-product-{k}",
                           rotate_basis(product_basis(BiDims(na, nb)),
                                        haar_unitary(na, rng), haar_unitary(nb, rng)),
                           expect=CAUSAL_GRID))
    partitions = [
        ((2, 2), (2,)), ((2, 2), (1, 1)), ((2, 3), (2,)), ((2, 3), (1, 1)),
        ((3, 3), (2, 1)), ((3, 3), (3,)), ((4, 4), (2, 2)), ((4, 4), (3, 1)),
        ((2, 4), (2,)), ((4, 2), (2, 1, 1)), ((3, 4), (2, 1)), ((4, 3), (3, 1)),
        ((4, 4), (4,)), ((3, 2), (2, 1)),
    ]
    for k, (dims, parts) in enumerate(partitions):
        items.append(Input(f"partition-{k}", semicausal_partition_basis(BiDims(*dims), parts, rng),
                           expect=BLOCKS_B_TO_A))
    grids = [((2, 2), 1), ((2, 2), 2), ((3, 3), 1), ((3, 3), 3), ((2, 4), 2),
             ((4, 2), 2), ((4, 4), 2), ((4, 4), 4), ((2, 3), 1), ((3, 4), 1)]
    for k, (dims, d) in enumerate(grids):
        items.append(Input(f"grid-{k}", causal_grid_basis(BiDims(*dims), d, rng), expect=CAUSAL_GRID))
    for k, (dims, parts) in enumerate([((3, 3), (2, 1)), ((4, 4), (2, 2)),
                                       ((2, 4), (1, 1)), ((4, 3), (2, 2))]):
        base = semicausal_partition_basis(BiDims(*dims), parts)
        items.append(Input(f"rotated-partition-{k}",
                           rotate_basis(base, haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)),
                           expect=BLOCKS_B_TO_A))
    for k in range(10):
        na, nb = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)][k % 5]
        items.append(Input(f"haar-extra-{k}", haar_basis(BiDims(na, nb), rng)))
    return items


def corpus(seed: int) -> list[Input]:
    items = build_corpus(seed)
    if seed != TEST_CORPUS_SEED:
        fixed = {item.name: item for item in build_corpus(TEST_CORPUS_SEED)}
        items = [fixed["grid-6"] if item.name == "grid-6" else item for item in items]
    for item in items:
        if item.name == "grid-6":
            item.expect = dict(CAUSAL_GRID, fails={"exit": 3, "stderr": GRID6_FAULT})
    items += [Input(name.removesuffix(".json"), fixture=name, expect=FIXTURE_EXPECT[name])
              for name in ("bell_basis.json", "conditional_basis.json", "completion_basis.json",
                           "twisted_quadrant_basis.json", "mismatch_basis.json")]
    return items


def desk_large(seed: int) -> list[Input]:
    """Complete bases at local dimensions 5 and 6.

    Grids with cell size 2 and 3 stay unrotated: rotated ones exit 3 (the
    Schmidt-frame fault), and that fault is measured once, by corpus's grid-6.
    """
    rng = np.random.default_rng(seed)
    items = []
    for n in (5, 6):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            rotated = d in (1, n)
            items.append(Input(f"grid-{n}x{n}-d{d}",
                               causal_grid_basis(BiDims(n, n), d, rng if rotated else None),
                               expect=CAUSAL_GRID))
        items.append(Input(f"haar-{n}x{n}", haar_basis(BiDims(n, n), rng)))
    items.append(Input("partition-5x5", semicausal_partition_basis(BiDims(5, 5), (3, 2), rng),
                       expect=BLOCKS_B_TO_A))
    items.append(Input("partition-6x6", semicausal_partition_basis(BiDims(6, 6), (4, 2), rng),
                       expect=BLOCKS_B_TO_A))
    return items


def _random_kraus(dims: BiDims, count: int, rng: np.random.Generator) -> KrausChannel:
    """A random channel: the blocks of a Haar isometry, so sum K^dag K = I."""
    n = dims.total
    iso = haar_unitary(n * count, rng)[:, :n]
    return KrausChannel(tuple(iso[k * n:(k + 1) * n] for k in range(count)), dims)


def _controlled_unitary(nb: int, rng: np.random.Generator) -> KrausChannel:
    """|0><0| (x) I + |1><1| (x) U with Haar U: signals both ways (U has distinct eigenvalues)."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    u = np.kron(p0, np.eye(nb)) + np.kron(p1, haar_unitary(nb, rng))
    return KrausChannel((u,), BiDims(2, nb))


def _product_channel(rng: np.random.Generator) -> KrausChannel:
    a = _random_kraus(BiDims(1, 2), 2, rng)
    b = _random_kraus(BiDims(1, 3), 2, rng)
    return KrausChannel(tuple(np.kron(x, y) for x in a.kraus for y in b.kraus), BiDims(2, 3))


def channels(seed: int) -> list[Input]:
    """Kraus-channel files: nine that signal (each runs the witness search in
    both directions) and five causal ones that take milliseconds.

    The signaling inputs are a clear majority, so the median call of a round
    is a witness search inside the signaling group, not the fastest
    signaling input next to the millisecond causal ones.
    """
    rng = np.random.default_rng(seed)
    stabilizers = [PauliString.parse(g) for g in ("+XXX", "+ZZI", "+IZZ")]
    return [
        Input("sorkin", fixture="sorkin.json", expect=FIXTURE_EXPECT["sorkin.json"]),
        Input("kraus-2x2-k4", _random_kraus(BiDims(2, 2), 4, rng)),
        Input("kraus-4x4-k1", _random_kraus(BiDims(4, 4), 1, rng)),
        Input("kraus-2x2-k1", _random_kraus(BiDims(2, 2), 1, rng)),
        Input("kraus-2x2-k2", _random_kraus(BiDims(2, 2), 2, rng)),
        Input("kraus-2x3-k3", _random_kraus(BiDims(2, 3), 3, rng)),
        Input("controlled-2x2", _controlled_unitary(2, rng), expect=SIGNALS_BOTH),
        Input("controlled-2x3", _controlled_unitary(3, rng), expect=SIGNALS_BOTH),
        Input("haar-measurement-2x2", measurement_channel(haar_basis(BiDims(2, 2), rng))),
        Input("andbox", fixture="andbox.json", expect=FIXTURE_EXPECT["andbox.json"]),
        Input("bell-twirl", bell_twirl(), expect=CAUSAL),
        Input("werner-twirl", werner_twirl(), expect=CAUSAL),
        Input("stabilizer-3q", stabilizer_channel(stabilizers), expect=CAUSAL),
        Input("product-2x3", _product_channel(rng), expect=CAUSAL),
    ]


WORKLOADS = {"corpus": corpus, "desk-large": desk_large, "channels": channels}

# Untimed warm-up input of each workload: a cheap one, so set-up stays short.
WARMUP = {"corpus": "bell", "desk-large": "partition-5x5", "channels": "bell-twirl"}
# The reference computation (reference.py) whose speed scales each workload's
# times: the one resembling where the workload's time goes. None leaves the
# times unscaled: on desk-large's memory-bound 6x6 calls no reference tracked
# the drift (in three sets of ten runs the spread of latency_p50_s was 0.10,
# 0.15 and 0.20 scaled against 0.13, 0.16 and 0.09 unscaled, and a Choi-like
# or page-fault reference did no better), so scaling them only adds noise.
REFERENCE = {"corpus": "matrix", "desk-large": None, "channels": "search"}


def write_inputs(workload: str, seed: int, directory: str, fixtures_dir: str) -> list[dict]:
    """Write every input of the workload as a JSON file; return the manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for item in WORKLOADS[workload](seed):
        path = os.path.join(directory, f"{item.name}.json")
        if item.fixture is not None:
            shutil.copyfile(os.path.join(fixtures_dir, item.fixture), path)
        else:
            dump_document(item.obj, path)
        manifest.append({"name": item.name, "path": path, "expect": item.expect})
    return manifest

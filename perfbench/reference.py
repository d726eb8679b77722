"""Fixed reference computations that measure how fast the machine runs right now.

The 2-core machine this benchmark was built on is shared, and its speed
drifts over minutes: in five channels runs a few minutes apart, classifying
the same ``sorkin`` fixture took from 3.7 s to 5.4 s. On repeated calls CPU
time stays equal to wall time, so the process does not wait: the processor
runs slower. So every worker times this computation right after set-up and
then at most once a second between calls, and ``run.py`` scales each timing
by the reference's nominal time over the reference times nearest to it:
scaled figures read as seconds on the machine running at the speed it had
when the nominal times were measured. In two sets of ten corpus runs this cut
the spread of ``latency_p50_s`` between the quartiles from 7.5 % and 19.8 % of
the median to 2.7 % and 2.9 %.

Work of different kinds slows by different amounts, so each workload is
scaled by the reference that resembles where its time goes (see the traced
shares in README.md): ``matrix`` for ``corpus`` (Python loops over small
complex matrices, Hermitian eigenvalues, SVDs, and dense products of
128x128 matrices), ``search`` for ``channels`` (a scipy Nelder-Mead
maximisation of a trace distance, as the witness search runs), and none for
``desk-large``;
``workloads.REFERENCE`` holds the choice and why.
Alternating each reference with each kind of work for two minutes, the
spread of the scaled times was 0.10 (matrix) against 0.19 (search) on a
corpus slice and 0.16 against 0.10 on a signaling channel.

Both import numpy and scipy only, never qcausal, so no change to qcausal can
move them. They run inside the measured worker, so their operands are kept
small (under 0.3 MB in all): a memory change in qcausal is not hidden under
the reference's own peak in ``peak_rss_mb``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((12, 6, 6)) + 1j * _RNG.standard_normal((12, 6, 6))
_DENSE = _RNG.standard_normal((128, 128)) + 1j * _RNG.standard_normal((128, 128))
_ISOMETRY = np.linalg.qr(_RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8)))[0][:, :4]
_KRAUS = np.stack([_ISOMETRY[:4], _ISOMETRY[4:]])


def matrix_work() -> None:
    acc = 0.0
    for _ in range(16):
        for a in _SMALL:
            h = a + a.conj().T
            acc += float(np.linalg.eigvalsh(h)[0])
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
            for b in _SMALL:
                acc += abs(np.trace(a @ b.conj().T))
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    for _ in range(27):
        acc += float((_DENSE @ _DENSE.conj().T).real.trace())


def _separation(x: np.ndarray) -> float:
    phi = x[0:2] + 1j * x[2:4]
    outs = []
    for psi in (x[4:6] + 1j * x[6:8], x[8:10] + 1j * x[10:12]):
        vec = np.kron(phi / np.linalg.norm(phi), psi / np.linalg.norm(psi))
        w = (_KRAUS @ vec).reshape(-1, 2, 2)
        outs.append(np.einsum("kab,kcb->ac", w, w.conj()))
    d = outs[0] - outs[1]
    return -0.5 * float(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2)).sum())


def search_work() -> None:
    minimize(_separation, np.linspace(0.1, 1.2, 12), method="Nelder-Mead",
             options={"maxiter": 150, "xatol": 1e-12, "fatol": 1e-14})


# (computation, its time in seconds on the 2-core x86-64 machine the benchmark
# was built on, with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 on one
# thread). The nominal time only sets the unit of the scaled figures.
REFERENCES = {
    "matrix": (matrix_work, 0.041),
    "search": (search_work, 0.033),
}
# Runs per sample: one run of a few tens of milliseconds varies by up to 2x
# with the machine's momentary load; alternating a signaling channel with
# samples for three minutes, the median of three runs cut the spread of the
# scaled call times from 0.20 to 0.12 (0.44 unscaled).
REPEATS = 3
# Samples whose median scales one timing: the two that bracket it. Over the
# ten-seed sets measured, three (one more sample further off) spread
# channels' latency_p50_s by up to 0.11 against up to 0.08 with two.
NEAREST = 2


def sample(kind: str | None) -> tuple[float, float]:
    """(midpoint on perf_counter, median duration over nominal) of REPEATS
    back-to-back reference runs.

    With no reference (``kind`` None) the machine counts as running at the
    nominal speed, so times stay unscaled.
    """
    if kind is None:
        return time.perf_counter(), 1.0
    work, nominal = REFERENCES[kind]
    durations = []
    start = time.perf_counter()
    for _ in range(REPEATS):
        begin = time.perf_counter()
        work()
        durations.append(time.perf_counter() - begin)
    return (start + time.perf_counter()) / 2, statistics.median(durations) / nominal


def speed_factor(samples: list[tuple[float, float]], at: float) -> float:
    """One over the median relative duration of the NEAREST samples closest to ``at``."""
    closest = sorted(samples, key=lambda s: abs(s[0] - at))[:NEAREST]
    return 1 / statistics.median(d for _, d in closest)

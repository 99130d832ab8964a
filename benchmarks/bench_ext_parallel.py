"""E16 (extension) — parallel tensor units, the paper's §6 question.

How does p-unit parallelism change the Theorem 2 picture?  Sweeps the
unit count on a fixed product and the problem size at fixed p, and
shows the two regimes the extension predicts: near-ideal scaling of the
tensor phase while calls >> p, saturation once the grid is smaller than
the unit pool, and the CPU reduction becoming the new bottleneck
(Amdahl) for large p.  ``split=1`` keeps the one-batch schedule: every
strip-by-block call is issued unsplit in a single ``mm_batch``.
"""

import numpy as np

from repro import matmul
from repro.analysis.formulas import predicted_parallel_time
from repro.analysis.tables import render_table
from repro.core.parallel import ParallelTCUMachine


def test_ext_parallel_unit_sweep(benchmark, rng, record):
    m, ell, side = 16, 16.0, 64
    A = rng.random((side, side))
    B = rng.random((side, side))
    benchmark(lambda: matmul(ParallelTCUMachine(m=m, ell=ell, units=4), A, B, split=1))

    rows = []
    tensor_times = {}
    for p in (1, 2, 4, 8, 16, 64, 256, 1024):
        machine = ParallelTCUMachine(m=m, ell=ell, units=p)
        C = matmul(machine, A, B, split=1)
        assert np.allclose(C, A @ B)
        tensor_times[p] = machine.ledger.tensor_total
        rows.append(
            [
                p,
                machine.time,
                machine.ledger.tensor_total,
                machine.last_batch.speedup,
                predicted_parallel_time(side * side, m, ell, p),
            ]
        )
    calls = side * side // m  # 256 grid products
    # ideal scaling while calls >= p ...
    assert np.isclose(tensor_times[1] / tensor_times[4], 4.0, rtol=0.05)
    assert np.isclose(tensor_times[1] / tensor_times[16], 16.0, rtol=0.05)
    # ... and saturation once p exceeds the call count
    assert np.isclose(tensor_times[1024], tensor_times[256], rtol=1e-9)
    record(
        "e16_parallel_units",
        render_table(
            ["units p", "total T", "tensor phase T", "batch speedup", "predicted shape"],
            rows,
            title=f"E16 (extension): parallel dense MM, sqrt(n)={side}, m={m}, l={ell} ({calls} grid calls)",
        ),
    )


def test_ext_parallel_amdahl(benchmark, rng, record):
    """The un-parallelised CPU reduction bounds the end-to-end speedup."""
    m, side = 16, 64
    A = rng.random((side, side))
    B = rng.random((side, side))
    benchmark(lambda: matmul(ParallelTCUMachine(m=m, units=8), A, B, split=1))

    base = ParallelTCUMachine(m=m, ell=16.0, units=1)
    matmul(base, A, B, split=1)
    rows = [["1", base.time, 1.0, base.ledger.cpu_time / base.time]]
    for p in (4, 16, 64):
        machine = ParallelTCUMachine(m=m, ell=16.0, units=p)
        matmul(machine, A, B, split=1)
        rows.append(
            [
                str(p),
                machine.time,
                base.time / machine.time,
                machine.ledger.cpu_time / machine.time,
            ]
        )
    # end-to-end speedup is bounded by the serial CPU share
    serial_share = base.ledger.cpu_time / base.time
    for row in rows[1:]:
        assert row[2] <= 1.0 / serial_share + 0.05
    record(
        "e16_parallel_amdahl",
        render_table(
            ["units p", "total T", "end-to-end speedup", "CPU share of T"],
            rows,
            title=f"E16 (extension): Amdahl limit from the CPU reduction, sqrt(n)={side}",
        ),
    )

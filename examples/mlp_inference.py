#!/usr/bin/env python
"""Neural-network inference — the workload tensor units were built for.

A 2-hidden-layer MLP classifies synthetic 16x16 "digit" images on the
simulated TCU.  Each layer is one resident weight matrix with the whole
batch streamed through (the §3 asymmetric call pattern, i.e. the TPU
workflow of §2.2), so the experiment shows:

* batching amortises latency: per-sample model time falls as the batch
  grows, approaching the throughput bound;
* the §6 extensions in action: the same network on a half-precision
  unit (accuracy impact measured) and on a 4-unit parallel machine
  (layers' strip products batched).

Run:  python examples/mlp_inference.py
"""

import numpy as np

from repro import TCUMachine, matmul
from repro.analysis.tables import render_table
from repro.core.parallel import ParallelTCUMachine
from repro.core.quantize import QuantizedTCUMachine


def make_problem(rng, classes=10, dim=256):
    """Synthetic class prototypes + noisy samples around them."""
    prototypes = rng.standard_normal((classes, dim))

    def sample(count):
        labels = rng.integers(0, classes, count)
        x = prototypes[labels] + 1.4 * rng.standard_normal((count, dim))
        return x, labels

    return prototypes, sample


def make_weights(rng, dim=256, hidden=128, classes=10, prototypes=None):
    """A fixed random-feature network with a least-squares readout."""
    W1 = rng.standard_normal((dim, hidden)) / np.sqrt(dim)
    W2 = rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)
    # closed-form readout trained on the class prototypes
    H = np.maximum(prototypes @ W1, 0.0) @ W2
    H = np.maximum(H, 0.0)
    targets = np.eye(prototypes.shape[0])
    W3, *_ = np.linalg.lstsq(H, targets, rcond=None)
    return W1, W2, W3


def forward(machine, X, weights):
    W1, W2, W3 = weights
    h = np.maximum(matmul(machine, X, W1), 0.0)
    machine.charge_cpu(h.size)  # the ReLU
    h = np.maximum(matmul(machine, h, W2), 0.0)
    machine.charge_cpu(h.size)
    return matmul(machine, h, W3)


def main() -> None:
    rng = np.random.default_rng(42)
    prototypes, sample = make_problem(rng)
    weights = make_weights(rng, prototypes=prototypes)

    # --- batching amortises latency -----------------------------------
    rows = []
    for batch in (16, 64, 256, 1024):
        X, y = sample(batch)
        tcu = TCUMachine(m=256, ell=4096.0)  # a latency-visible unit
        logits = forward(tcu, X, weights)
        acc = float((logits.argmax(axis=1) == y).mean())
        rows.append([batch, acc, tcu.time, tcu.time / batch,
                     f"{100 * tcu.ledger.latency_time / tcu.time:.0f}%"])
    print(render_table(
        ["batch", "accuracy", "model time", "time / sample", "latency share"],
        rows,
        title="MLP inference on a (256, 4096)-TCU: streaming batches through resident weights",
    ))
    print()

    # --- §6 extensions on the same network ------------------------------
    X, y = sample(512)
    variants = []
    exact = TCUMachine(m=256, ell=4096.0)
    logits = forward(exact, X, weights)
    variants.append(["exact fp64", float((logits.argmax(1) == y).mean()), exact.time])
    for fmt in ("fp16", "bf16", "int8"):
        q = QuantizedTCUMachine(m=256, ell=4096.0, precision=fmt)
        logits_q = forward(q, X, weights)
        variants.append(
            [f"quantized {fmt}", float((logits_q.argmax(1) == y).mean()), q.time]
        )
    par = ParallelTCUMachine(m=256, ell=4096.0, units=4)
    logits_p = forward(par, X, weights)
    variants.append(["parallel 4 units", float((logits_p.argmax(1) == y).mean()), par.time])
    print(render_table(
        ["machine", "accuracy", "model time"],
        variants,
        title="same network under the paper's §6 extensions (batch 512)",
    ))


if __name__ == "__main__":
    main()

"""Record the model-time references the benchmark checks against.

Run from the repository root at the commit whose results are the
reference (normally only when a change is *meant* to alter simulated
results, and then in its own change)::

    python3 hostbench/record_reference.py [--seeds 0-15]

For each workload and seed it runs the benchmark's checking operation
and stores its exact model-time record in ``hostbench/reference.json``.
It refuses to record an operation whose seed-independent checks fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent / "src")]

from hostbench.run import (  # noqa: E402
    WORKLOAD_NAMES,
    checking_operation,
    pin_threads,
    timed_setup,
)


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_record(name: str, seed: int) -> dict:
    """The checking operation's model-time record for one seed."""
    workload, _ = timed_setup(name, seed)
    _, _, record, failed, messages = checking_operation(workload, {}, seed)
    if failed:
        raise SystemExit(f"{name} seed {seed}: checks failed: {messages}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    pin_threads()
    references = {
        name: {str(seed): reference_record(name, seed) for seed in _seeds(args.seeds)}
        for name in WORKLOAD_NAMES
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

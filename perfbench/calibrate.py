"""Fixed reference work that shows how fast the machine is right now.

The benchmark runs this script as a child process before each operation, with
the same environment as the CLI. It does, in fixed amounts and without
``tabtext``, the kinds of work a CLI operation does: start an interpreter,
import numpy, run pure-Python code and run BLAS matrix products. On a shared
virtual machine the host's speed drifts by more than the benchmark's bounds
over seconds to minutes; an operation's wall time divided by the time of this
script, measured beside it, cancels most of that drift.

It prints the seconds spent in each part as JSON. Change nothing here: the
ratio is only comparable between commits measured with the same reference
work.
"""
import json
import time

import numpy as np

PY_STEPS = 3_000_000
MATMULS = 40


def main() -> None:
    start = time.perf_counter()
    total = 0
    for i in range(PY_STEPS):
        total += i * i % 7
    py_end = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((512, 512))
    for _ in range(MATMULS):
        b = a @ a
    end = time.perf_counter()
    print(json.dumps({"py_s": py_end - start, "blas_s": end - py_end,
                      "check": total + int(b[0, 0])}))


if __name__ == "__main__":
    main()

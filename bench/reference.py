"""Fixed reference work that gauges the speed of the host.

    python3 bench/reference.py

`run.py` runs this script in a fresh interpreter between the ops of a
run and divides every end-to-end time by the median reference time (see
the docstring of `run.py`).  It does not import `dsm`, so a change to
the program cannot change it.  Its work is a small copy of the mix one
op does: imports of numpy and scipy, dense nearest-neighbour distances,
normal multiplier draws with a matrix-vector product, and parsing CSV
text in Python.  Its inputs are fixed; it prints nothing.
"""

import numpy as np
from scipy.special import expit


def main():
    rng = np.random.default_rng(20211018)
    a = rng.standard_normal((1000, 2))
    b = rng.standard_normal((4000, 2))
    for lo in range(0, b.shape[0], 250):
        d2 = ((b[lo:lo + 250, None, :] - a[None, :, :]) ** 2).sum(axis=-1)
        np.argpartition(d2, 3, axis=1)
    weights = expit(a[:, 0])
    for _ in range(4):
        rng.standard_normal((250, a.shape[0])) @ weights
    text = "\n".join(f"{x:.6f},{y:.6f}" for x, y in b)
    total = 0.0
    for _ in range(5):
        for line in text.splitlines():
            total += sum(float(field) for field in line.split(","))
    return total


if __name__ == "__main__":
    main()

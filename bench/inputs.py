"""Seeded synthetic inputs for the `estimate_n4k` workload.

The generator is independent of `dsm.simulation`, so a change to the
simulation harness cannot change what the estimate workload feeds the
CLI.  It draws a finite population, a volunteer sample A selected on the
covariates only (so matching on the two scores is consistent), and a
stratified reference sample B with design weights N_h / n_h.  A few
exact duplicate covariate rows are injected into A, and some B rows are
set equal to duplicated A rows, so that distance ties, including ties at
zero distance, occur and the ascending-donor-index tie order is
exercised.  The population is edited before the truth is taken, so the
true mean is exactly the mean outcome of the population the samples
describe.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

COVARIATES = ("x1", "x2", "x3", "x4")

N_POP = 200_000
# Fractions of A rows that copy another A row's covariates, and of B rows
# that copy a duplicated A row's covariates.
_DUP_A = 0.01
_DUP_B = 0.01


@dataclass(frozen=True)
class EstimateInputs:
    """Row indices into the CSVs of the injected duplicates, and the
    population mean outcome the estimators target."""

    dup_a_rows: np.ndarray
    dup_b_rows: np.ndarray
    true_mean: float
    n_a: int
    n_b: int


def _outcome(x, rng):
    mean = 1.0 + x[:, 0] + x[:, 1] + x[:, 2] + 0.5 * x[:, 3]
    return mean + rng.standard_normal(x.shape[0])


def _covariates(n, rng):
    x1 = (rng.random(n) < 0.4).astype(np.float64)
    x2 = rng.uniform(0.0, 2.0, n) + 0.3 * x1
    x3 = rng.exponential(1.0, n) + 0.2 * x2
    x4 = rng.standard_normal(n) + 0.5 * x1
    return np.column_stack([x1, x2, x3, x4])


def _write(path, header, block):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in block)


def write_estimate_inputs(seed: int, path_a, path_b, n_a=4000, n_b=8000) -> EstimateInputs:
    """Write sample A (covariates + `y`) and sample B (covariates + `d`)
    CSVs drawn from `seed`; the same seed always gives the same files."""
    rng = np.random.default_rng([seed, 4000])
    x = _covariates(N_POP, rng)
    y = _outcome(x, rng)

    # Volunteer sample: weighted sampling without replacement
    # (exponential keys), inclusion odds rising with x2 and x4.
    keys = rng.exponential(1.0, N_POP) / np.exp(0.5 * x[:, 1] + 0.4 * x[:, 3])
    ia = np.sort(np.argpartition(keys, n_a)[:n_a])

    # Reference sample: stratified SRS, the upper half of x3 sampled at
    # twice the rate of the lower half.
    upper = x[:, 2] > np.median(x[:, 2])
    n_hi = (2 * n_b) // 3
    ib_parts, d = [], np.empty(N_POP)
    for stratum, n_h in ((~upper, n_b - n_hi), (upper, n_hi)):
        members = np.flatnonzero(stratum)
        ib_parts.append(rng.choice(members, n_h, replace=False))
        d[members] = members.shape[0] / n_h
    ib = np.sort(np.concatenate(ib_parts))

    # Injected duplicates: each source A row gets two copies (fresh outcome
    # noise), so A rows have two zero-distance twins; then B rows copy
    # duplicated A rows exactly, so they have three zero-distance donors.
    n_src = max(1, int(_DUP_A * n_a) // 2)
    rows = rng.choice(n_a, 3 * n_src, replace=False)
    src, dst = rows[:n_src], rows[n_src:]
    x[ia[dst]] = x[ia[np.tile(src, 2)]]
    y[ia[dst]] = _outcome(x[ia[dst]], rng)
    n_dup_b = max(1, int(_DUP_B * n_b))
    dup_b = np.sort(rng.choice(n_b, n_dup_b, replace=False))
    x[ib[dup_b]] = x[ia[rng.choice(dst, n_dup_b)]]
    y[ib[dup_b]] = _outcome(x[ib[dup_b]], rng)

    _write(path_a, COVARIATES + ("y",), np.column_stack([x[ia], y[ia]]))
    _write(path_b, COVARIATES + ("d",), np.column_stack([x[ib], d[ib]]))
    return EstimateInputs(
        dup_a_rows=np.sort(rows),
        dup_b_rows=dup_b,
        true_mean=float(y.mean()),
        n_a=n_a,
        n_b=n_b,
    )

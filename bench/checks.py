"""Output checks for the benchmark's `dsm` commands.

Every check raises CheckFailed with a message naming what is wrong.  The
`dsm` package is imported from the checkout's `src` directory, which the
caller puts on `sys.path`.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SCENARIOS = ("TT", "FT", "TF", "FF")
# (m, n_a, n_b) rows of the paper's coverage study, in output order.
COVERAGE_ROWS = (
    (3, 500, 1000), (3, 1000, 500), (5, 1000, 500), (5, 1000, 1000), (6, 1000, 2000),
    (8, 1500, 1000), (8, 1500, 1500), (10, 2000, 2000), (10, 2500, 2500), (15, 3000, 1500),
)
TABLE2_ESTIMATORS = ("population_mean", "sample_a_mean", "dre", "mu_dsm", "mu_dsm_debiased")
# Sampled rows per side for the brute-force matching oracle, on top of
# every injected duplicate.
ORACLE_ROWS = 200
TRUTH_SES = 5.0


class CheckFailed(Exception):
    """An output of a `dsm` command is wrong."""


def _fmt(value) -> str:
    # The CLI's documented format: strings as is, integers in decimal,
    # floats with repr (exact round-trip).
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue().encode()


def _meta_bytes(mapping) -> bytes:
    return "".join(f"{k}={_fmt(v)}\n" for k, v in mapping.items()).encode()


# -- estimate -----------------------------------------------------------

def recompute_estimate(path_a, path_b, covariates, m, n_boot, seed, alpha=0.05):
    """Redo `dsm estimate` (debias on, default j = 2m) through the public
    library API.  Returns (csv bytes, meta bytes, score matrix, match
    plan, inner neighbours, mu_dsm_debiased, analytic SE)."""
    from dsm.estimators import point_estimates
    from dsm.io import RunConfig, load_samples
    from dsm.matching import find_inner_neighbors, find_matches
    from dsm.scores import build_score_matrix, fit_scores
    from dsm.uncertainty import (
        BootstrapSpec,
        analytic_variance,
        bootstrap_ci_debiased,
        bootstrap_ci_plain,
        bootstrap_ci_population,
    )

    a, b = load_samples(path_a, path_b, RunConfig(covariates=tuple(covariates)))
    fit = fit_scores(a, b)
    smat = build_score_matrix(a, b, fit)
    plan = find_matches(smat, m, d_b=b.d)
    est = point_estimates(plan, fit, a, b)
    j = 2 * m
    inner = find_inner_neighbors(smat, j)
    var = analytic_variance(plan, a.y, est.mu_b, inner)
    se = (var / plan.n_b) ** 0.5
    bs = BootstrapSpec(n_draws=n_boot, alpha=alpha, seed=seed)
    ci_plain = bootstrap_ci_plain(plan, a.y, est.mu_b, bs)
    ci_deb = bootstrap_ci_debiased(plan, fit, a, b, est.mu_b_debiased, bs)
    ci_pop = bootstrap_ci_population(plan, fit, a, b, est.mu_dsm_debiased, bs)

    rows = [
        ("mu_b", est.mu_b, "", ""),
        ("mu_b_debiased", est.mu_b_debiased, "", ""),
        ("bias_hat", est.bias_hat, "", ""),
        ("mu_dsm", est.mu_dsm, "", ""),
        ("mu_dsm_debiased", est.mu_dsm_debiased, "", ""),
        ("bias_hat_weighted", est.bias_hat_weighted, "", ""),
        ("dre", est.dre, "", ""),
        ("n_hat", est.n_hat, "", ""),
        ("analytic_variance", var, "", ""),
        ("analytic_se", se, "", ""),
        ("ci_plain", est.mu_b, ci_plain.lo, ci_plain.hi),
        ("ci_debiased", est.mu_b_debiased, ci_deb.lo, ci_deb.hi),
        ("ci_population", est.mu_dsm_debiased, ci_pop.lo, ci_pop.hi),
    ]
    meta = {
        "seed": seed, "m": m, "n_a": plan.n_a, "n_b": plan.n_b,
        "newton_iterations": fit.iterations, "gradient_norm": fit.grad_norm,
        "sd_sampling_score": fit.sd_f, "sd_prognostic_score": fit.sd_g,
        "j": j, "n_boot": n_boot, "alpha": alpha, "debias": "true",
    }
    return (_csv_bytes(("quantity", "value", "lo", "hi"), rows), _meta_bytes(meta),
            smat, plan, inner, est.mu_dsm_debiased, se)


def _oracle_order(d2, k):
    # Full stable order by (squared distance, donor index).
    return np.lexsort((np.arange(d2.shape[0]), d2))[:k]


def check_match_order(smat, j_sets, l_sets, b_rows, a_rows):
    """Compare B->A matches and A->A inner neighbours of the sampled rows
    with a brute-force stable-sort oracle.  Requires at least one sampled
    B row and one A row whose oracle order contains an exact distance
    tie, so the tie order is really exercised."""
    za = smat.z[smat.in_a]
    zb = smat.z[~smat.in_a]
    m, j = j_sets.shape[1], l_sets.shape[1]
    ties = {"B": 0, "A": 0}
    for side, rows, points, sets, k in (("B", b_rows, zb, j_sets, m), ("A", a_rows, za, l_sets, j)):
        for i in rows:
            d2 = ((za - points[i]) ** 2).sum(axis=1)
            if side == "A":
                d2[i] = np.inf
            want = _oracle_order(d2, k)
            if not np.array_equal(sets[i], want):
                raise CheckFailed(
                    f"{side} row {i}: neighbours {sets[i].tolist()}, oracle {want.tolist()}"
                )
            top = d2[_oracle_order(d2, k + 1)]
            ties[side] += bool(np.any(top[1:] == top[:-1]))
    for side, n in ties.items():
        if n == 0:
            raise CheckFailed(f"no exact distance tie among the sampled {side} rows")


def oracle_rows(seed, n, injected):
    """A seeded sample of row indices plus every injected duplicate."""
    rng = np.random.default_rng([seed, 7])
    picked = rng.choice(n, min(ORACLE_ROWS, n), replace=False)
    return np.union1d(picked, injected)


def check_estimate(out_csv, out_meta, path_a, path_b, covariates, m, n_boot, seed, inputs):
    """Full check of one `dsm estimate` output: bytes equal an in-process
    recomputation, matches equal the brute-force oracle on sampled rows,
    and mu_dsm_debiased lies within TRUTH_SES analytic SEs of the
    generator's true mean."""
    want_csv, want_meta, smat, plan, inner, mu, se = recompute_estimate(
        path_a, path_b, covariates, m, n_boot, seed
    )
    if out_csv != want_csv:
        raise CheckFailed("estimate CSV differs from the library recomputation")
    if out_meta != want_meta:
        raise CheckFailed("estimate .meta differs from the library recomputation")
    check_match_order(
        smat, plan.j_sets, inner.l_sets,
        oracle_rows(seed, plan.n_b, inputs.dup_b_rows),
        oracle_rows(seed + 1, plan.n_a, inputs.dup_a_rows),
    )
    check_truth(mu, se, inputs.true_mean)


def check_truth(mu, se, true_mean):
    if not abs(mu - true_mean) <= TRUTH_SES * se:
        raise CheckFailed(
            f"mu_dsm_debiased {mu!r} is more than {TRUTH_SES:g} SEs ({se!r}) "
            f"from the true mean {true_mean!r}"
        )


# -- simulate -----------------------------------------------------------

def _parse(out_csv, out_meta):
    try:
        rows = list(csv.reader(io.StringIO(out_csv.decode())))
        meta = dict(line.split("=", 1) for line in out_meta.decode().splitlines())
    except (UnicodeDecodeError, ValueError) as err:
        raise CheckFailed(f"unreadable output: {err}") from None
    if not rows:
        raise CheckFailed("empty CSV")
    return rows[0], rows[1:], meta


def _number(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {text!r}")
    return value


def check_simulate(out_csv, out_meta, table, reps, seed, n_boot=1000):
    """Check the layout and ranges of a `dsm simulate --table 2|4` output.
    Returns the number of failed replication-scenario pairs, from the
    `.meta` failure counts."""
    header, rows, meta = _parse(out_csv, out_meta)
    want_meta = {"table": table, "seed": str(seed), "reps": str(reps), "scale": "desk"}
    for key, value in want_meta.items():
        if meta.get(key) != value:
            raise CheckFailed(f".meta {key}={meta.get(key)!r}, expected {value!r}")

    if table == "2":
        if header != ["scenario", "estimator", "mean", "rb_pct", "mse"]:
            raise CheckFailed(f"table 2 header {header}")
        want = [(sc, est) for sc in SCENARIOS for est in TABLE2_ESTIMATORS]
        fail_keys = [f"failed_{sc}" for sc in SCENARIOS]
    else:
        if header != ["m", "n_a", "n_b", "scenario", "coverage_sample_b", "coverage_population"]:
            raise CheckFailed(f"table 4 header {header}")
        want = [(str(m), str(na), str(nb), sc) for m, na, nb in COVERAGE_ROWS for sc in SCENARIOS]
        fail_keys = [f"failed_m{m}_{na}_{nb}_{sc}" for m, na, nb, sc in want]
        if meta.get("n_boot") != str(n_boot):
            raise CheckFailed(f".meta n_boot={meta.get('n_boot')!r}, expected {n_boot}")

    width = len(want[0])
    keys = [tuple(r[:width]) for r in rows]
    if keys != want:
        first = next((i for i, (k, w) in enumerate(zip(keys, want)) if k != w),
                     min(len(keys), len(want)))
        raise CheckFailed(f"table {table} has {len(keys)} rows, expected {len(want)}; "
                          f"first difference at row {first + 1}")
    for r in rows:
        if len(r) != len(header):
            raise CheckFailed(f"{r[:width]} has {len(r)} fields, expected {len(header)}")
        values = [_number(v, f"{r[:width]} value") for v in r[width:]]
        if table == "2" and values[2] < 0:
            raise CheckFailed(f"{r[:2]} has negative mse")
        if table == "4" and not all(0.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"{r[:4]} has a coverage outside [0, 1]")

    failed = 0
    for key in fail_keys:
        text = meta.get(key, "")
        if not text.isdigit() or int(text) > reps:
            raise CheckFailed(f".meta {key}={text!r} is not a failure count")
        failed += int(text)
    return failed

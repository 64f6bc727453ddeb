"""Command-line interface: file loading, output layout, exact agreement
with the library calls it wraps, exit-code families, and byte-identical
reruns."""

import numpy as np
import pytest

import dsm.cli as cli
from dsm.cli import main
from dsm.io import RunConfig, _read_rows, load_samples, write_csv, write_meta


# -- fixtures -----------------------------------------------------------

def _dataset(rng, n_a=12, n_b=40, unit_weights=False):
    xa = np.column_stack([rng.uniform(0, 2, n_a), rng.uniform(0, 2, n_a)])
    y = 1.0 + xa @ np.array([1.0, 0.5]) + rng.normal(0, 0.3, n_a)
    xb = np.column_stack([rng.uniform(0, 2, n_b), rng.uniform(0, 2, n_b)])
    # The weighted B totals must be able to absorb the A totals with
    # propensities inside (0, 1), or the score fit has no maximizer.
    d = np.ones(n_b) if unit_weights else rng.uniform(2.0, 5.0, n_b)
    return xa, y, xb, d


def _write_pair(tmp_path, xa, y, xb, d, outcome="y", weight="d"):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, ("x1", "x2", outcome),
              [list(r) + [v] for r, v in zip(xa, y)])
    write_csv(pb, ("x1", "x2", weight),
              [list(r) + [v] for r, v in zip(xb, d)])
    return str(pa), str(pb)


@pytest.fixture()
def sample_files(tmp_path):
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    return _write_pair(tmp_path, xa, y, xb, d)


@pytest.fixture()
def unit_weight_files(tmp_path):
    xa, y, xb, d = _dataset(np.random.default_rng(7), unit_weights=True)
    return _write_pair(tmp_path, xa, y, xb, d)


def _base_args(cmd, pa, pb, out, **extra):
    args = [
        cmd, "--sample-a", pa, "--sample-b", pb,
        "--covariates", "x1,x2", "--out", str(out),
    ]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def _read_table(path):
    header, rows = _read_rows(str(path))
    return header, rows


def _read_meta(path):
    out = {}
    for line in open(path).read().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


# -- loading ------------------------------------------------------------

def test_load_samples_exact_values(tmp_path):
    pa, pb = _write_pair(
        tmp_path,
        np.array([[0.5, 1.0], [1.5, 2.0], [2.5, 3.0]]),
        np.array([10.0, 20.0, 30.0]),
        np.array([[0.1, 0.2], [0.3, 0.4]]),
        np.array([3.0, 4.0]),
    )
    cfg = RunConfig(covariates=("x1", "x2"))
    a, b = load_samples(pa, pb, cfg)
    assert np.array_equal(a.x, [[0.5, 1.0], [1.5, 2.0], [2.5, 3.0]])
    assert np.array_equal(a.y, [10.0, 20.0, 30.0])
    assert np.array_equal(b.x, [[0.1, 0.2], [0.3, 0.4]])
    assert np.array_equal(b.d, [3.0, 4.0])


def test_load_samples_covariate_order_follows_config(tmp_path):
    pa, pb = _write_pair(
        tmp_path,
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        np.array([0.0, 0.0, 0.0]),
        np.array([[7.0, 8.0], [9.0, 10.0]]),
        np.array([2.0, 2.0]),
    )
    a, b = load_samples(pa, pb, RunConfig(covariates=("x2", "x1")))
    assert np.array_equal(a.x, [[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]])
    assert np.array_equal(b.x, [[8.0, 7.0], [10.0, 9.0]])


def test_load_samples_ignores_extra_columns(tmp_path):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text("junk,x1,y\n9,1.0,2.0\n9,3.0,4.0\n")
    pb.write_text("x1,d,junk\n0.5,2.0,9\n1.5,3.0,9\n")
    a, b = load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))
    assert np.array_equal(a.x, [[1.0], [3.0]])
    assert np.array_equal(b.d, [2.0, 3.0])


# -- exit codes ---------------------------------------------------------

def test_missing_column_exits_schema(sample_files, tmp_path, capsys):
    pa, pb = sample_files
    code = main(_base_args("impute", pa, pb, tmp_path / "o.csv",
                           covariates="x1,x9"))
    assert code == 2
    assert "x9" in capsys.readouterr().err


def test_zero_weight_exits_schema(tmp_path, capsys):
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    d[4] = 0.0
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 2
    # Data row 5 sits on file line 6.
    assert ":6:" in capsys.readouterr().err


def test_ragged_row_exits_schema(sample_files, tmp_path):
    pa, pb = sample_files
    with open(pb, "a") as fh:
        fh.write("1.0,2.0\n")
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 2


def test_non_numeric_cell_exits_schema(tmp_path, capsys):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text("x1,y\n1.0,2.0\nabc,4.0\n")
    pb.write_text("x1,d\n0.5,2.0\n")
    code = main(["impute", "--sample-a", str(pa), "--sample-b", str(pb),
                 "--covariates", "x1", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert ":3:" in err and "abc" in err


def test_missing_file_exits_schema(sample_files, tmp_path):
    _, pb = sample_files
    args = _base_args("impute", str(tmp_path / "absent.csv"), pb,
                      tmp_path / "o.csv")
    assert main(args) == 2


def test_empty_file_exits_schema(sample_files, tmp_path):
    pa, _ = sample_files
    pb = tmp_path / "empty.csv"
    pb.write_text("")
    assert main(_base_args("impute", pa, str(pb), tmp_path / "o.csv")) == 2



# -- spreadsheet exports ------------------------------------------------

def _impute_output(pa, pb, out):
    assert main(_base_args("impute", pa, pb, out)) == 0
    return out.read_bytes()


def test_utf8_bom_loads_like_plain_file(sample_files, tmp_path):
    pa, pb = sample_files
    plain = _impute_output(pa, pb, tmp_path / "plain.csv")
    bom_a, bom_b = tmp_path / "bom_a.csv", tmp_path / "bom_b.csv"
    bom_a.write_bytes(b"\xef\xbb\xbf" + open(pa, "rb").read())
    bom_b.write_bytes(b"\xef\xbb\xbf" + open(pb, "rb").read())
    assert _impute_output(str(bom_a), str(bom_b), tmp_path / "bom.csv") == plain


@pytest.mark.parametrize("trailer", ["\n", "\r\n", "\n\n", ",,\n", " \n"])
def test_trailing_blank_lines_are_ignored(sample_files, tmp_path, trailer):
    pa, pb = sample_files
    plain = _impute_output(pa, pb, tmp_path / "plain.csv")
    with open(pb, "a", newline="") as fh:
        fh.write(trailer)
    assert _impute_output(pa, pb, tmp_path / "trailing.csv") == plain


def test_blank_line_mid_file_exits_schema(sample_files, tmp_path, capsys):
    pa, pb = sample_files
    lines = open(pb, newline="").read().splitlines(keepends=True)
    with open(pb, "w", newline="") as fh:
        fh.writelines(lines[:3] + ["\n"] + lines[3:])
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 2
    assert ":4: expected 3 fields, got 0" in capsys.readouterr().err


def test_duplicate_required_column_exits_schema(tmp_path, capsys):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text("x1,y,x1\n1.0,2.0,5.0\n3.0,4.0,6.0\n")
    pb.write_text("x1,d\n0.5,2.0\n1.5,3.0\n")
    code = main(["impute", "--sample-a", str(pa), "--sample-b", str(pb),
                 "--covariates", "x1", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "a.csv" in err and "'x1'" in err and "more than once" in err
    # A repeated column that no role needs stays harmless.
    pa.write_text("junk,x1,y,junk\n9,1.0,2.0,9\n9,3.0,4.0,9\n")
    a, _ = load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))
    assert np.array_equal(a.x, [[1.0], [3.0]])


def test_non_utf8_file_exits_schema(sample_files, tmp_path, capsys):
    pa, _ = sample_files
    pb = tmp_path / "latin1.csv"
    pb.write_bytes("x1,x2,d\n0.5,1.0,2.0\n\xe9,1.0,2.0\n".encode("latin-1"))
    assert main(_base_args("impute", pa, str(pb), tmp_path / "o.csv")) == 2
    assert "not UTF-8" in capsys.readouterr().err

def test_negative_seed_exits_numeric(sample_files, tmp_path):
    pa, pb = sample_files
    args = _base_args("impute", pa, pb, tmp_path / "o.csv", seed=-1)
    assert main(args) == 3


def test_m_beyond_donor_pool_exits_numeric(sample_files, tmp_path):
    pa, pb = sample_files
    args = _base_args("impute", pa, pb, tmp_path / "o.csv", m=13)
    assert main(args) == 3


def test_separated_samples_exit_convergence(tmp_path):
    pa, pb = _write_pair(
        tmp_path,
        np.array([[1.0, 0.5], [2.0, 2.5], [3.0, 1.5]]),
        np.array([1.0, 2.0, 3.0]),
        np.array([[-1.0, -2.5], [-2.0, -0.5], [-3.0, -1.5]]),
        np.array([2.0, 2.0, 2.0]),
    )
    assert main(_base_args("estimate", pa, pb, tmp_path / "o.csv")) == 4


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["impute"])
    assert exc.value.code == 2


# -- impute -------------------------------------------------------------

def test_impute_output_layout(sample_files, tmp_path):
    pa, pb = sample_files
    out = tmp_path / "imp.csv"
    assert main(_base_args("impute", pa, pb, out, seed=5)) == 0

    header, rows = _read_table(out)
    assert header == ["x1", "x2", "d", "y_hat", "sampling_score", "prognostic_score"]
    assert len(rows) == 40
    values = np.array([[float(v) for v in row] for row in rows])
    assert np.all(np.isfinite(values))
    # Sampling scores are probabilities.
    assert np.all((values[:, 4] > 0) & (values[:, 4] < 1))

    meta = _read_meta(str(out) + ".meta")
    assert meta["seed"] == "5"
    assert meta["m"] == "3"
    assert meta["n_a"] == "12"
    assert meta["n_b"] == "40"
    assert int(meta["newton_iterations"]) > 0
    assert float(meta["gradient_norm"]) < 1e-6
    assert float(meta["sd_sampling_score"]) > 0
    assert float(meta["sd_prognostic_score"]) > 0


def test_impute_duplicate_donor_returns_its_outcome(tmp_path):
    # A reference unit identical to one donor has that donor as its
    # single zero-distance match, so the imputation is the donor's y.
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    xb = xb.copy()
    xb[0] = xa[5]
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    out = tmp_path / "imp.csv"
    assert main(_base_args("impute", pa, pb, out, m=1)) == 0
    _, rows = _read_table(out)
    assert float(rows[0][3]) == y[5]


def test_impute_rerun_byte_identical(sample_files, tmp_path):
    pa, pb = sample_files
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(_base_args("impute", pa, pb, out1, seed=9)) == 0
    assert main(_base_args("impute", pa, pb, out2, seed=9)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.csv.meta").read_text() == (tmp_path / "r2.csv.meta").read_text()


# -- estimate -----------------------------------------------------------

def test_estimate_report_layout(sample_files, tmp_path):
    pa, pb = sample_files
    out = tmp_path / "est.csv"
    code = main(_base_args("estimate", pa, pb, out, bootstrap=300, seed=5))
    assert code == 0

    header, rows = _read_table(out)
    assert header == ["quantity", "value", "lo", "hi"]
    assert [r[0] for r in rows] == [
        "mu_b", "mu_b_debiased", "bias_hat",
        "mu_dsm", "mu_dsm_debiased", "bias_hat_weighted",
        "dre", "n_hat",
        "analytic_variance", "analytic_se",
        "ci_plain", "ci_debiased", "ci_population",
    ]
    for name, value, lo, hi in rows:
        assert np.isfinite(float(value))
        if name.startswith("ci_"):
            assert float(lo) <= float(hi)
        else:
            assert lo == "" and hi == ""

    meta = _read_meta(str(out) + ".meta")
    assert meta["j"] == "6"
    assert meta["n_boot"] == "300"
    assert meta["alpha"] == "0.05"
    assert meta["debias"] == "true"


def test_estimate_matches_library_exactly(sample_files, tmp_path):
    from dsm.estimators import point_estimates
    from dsm.matching import find_inner_neighbors, find_matches
    from dsm.scores import build_score_matrix, fit_scores
    from dsm.uncertainty import (
        BootstrapSpec,
        analytic_variance,
        bootstrap_ci_debiased,
        bootstrap_ci_plain,
        bootstrap_ci_population,
    )

    pa, pb = sample_files
    out = tmp_path / "est.csv"
    assert main(_base_args("estimate", pa, pb, out, bootstrap=300, seed=5)) == 0
    _, rows = _read_table(out)
    report = {r[0]: r[1:] for r in rows}

    cfg = RunConfig(covariates=("x1", "x2"))
    a, b = load_samples(pa, pb, cfg)
    fit = fit_scores(a, b)
    smat = build_score_matrix(a, b, fit)
    plan = find_matches(smat, 3, d_b=b.d)
    est = point_estimates(plan, fit, a, b)
    var = analytic_variance(plan, a.y, est.mu_b, find_inner_neighbors(smat, 6))
    bs = BootstrapSpec(n_draws=300, alpha=0.05, seed=5)
    ci_plain = bootstrap_ci_plain(plan, a.y, est.mu_b, bs)
    ci_deb = bootstrap_ci_debiased(plan, fit, a, b, est.mu_b_debiased, bs)
    ci_pop = bootstrap_ci_population(plan, fit, a, b, est.mu_dsm_debiased, bs)

    # Values are written with repr, so parsing them back is lossless and
    # the comparison can be exact.
    assert float(report["mu_b"][0]) == est.mu_b
    assert float(report["mu_b_debiased"][0]) == est.mu_b_debiased
    assert float(report["bias_hat"][0]) == est.bias_hat
    assert float(report["mu_dsm"][0]) == est.mu_dsm
    assert float(report["mu_dsm_debiased"][0]) == est.mu_dsm_debiased
    assert float(report["bias_hat_weighted"][0]) == est.bias_hat_weighted
    assert float(report["dre"][0]) == est.dre
    assert float(report["n_hat"][0]) == est.n_hat
    assert float(report["analytic_variance"][0]) == var
    assert float(report["analytic_se"][0]) == (var / plan.n_b) ** 0.5
    assert float(report["ci_plain"][1]) == ci_plain.lo
    assert float(report["ci_plain"][2]) == ci_plain.hi
    assert float(report["ci_debiased"][1]) == ci_deb.lo
    assert float(report["ci_debiased"][2]) == ci_deb.hi
    assert float(report["ci_population"][1]) == ci_pop.lo
    assert float(report["ci_population"][2]) == ci_pop.hi


def test_estimate_no_debias_drops_corrected_rows(sample_files, tmp_path):
    pa, pb = sample_files
    out = tmp_path / "est.csv"
    args = _base_args("estimate", pa, pb, out, bootstrap=200)
    assert main(args + ["--no-debias"]) == 0
    _, rows = _read_table(out)
    assert [r[0] for r in rows] == [
        "mu_b", "mu_dsm", "dre", "n_hat",
        "analytic_variance", "analytic_se", "ci_plain",
    ]
    assert _read_meta(str(out) + ".meta")["debias"] == "false"


def test_estimate_unit_weights_collapse(unit_weight_files, tmp_path):
    # With all weights equal the design-weighted estimators reduce to
    # their unweighted counterparts.
    pa, pb = unit_weight_files
    out = tmp_path / "est.csv"
    assert main(_base_args("estimate", pa, pb, out, bootstrap=200)) == 0
    _, rows = _read_table(out)
    report = {r[0]: r[1:] for r in rows}
    assert float(report["mu_dsm"][0]) == float(report["mu_b"][0])
    assert float(report["mu_dsm_debiased"][0]) == pytest.approx(
        float(report["mu_b_debiased"][0]), abs=1e-12)
    assert float(report["ci_population"][1]) == pytest.approx(
        float(report["ci_debiased"][1]), abs=1e-12)
    assert float(report["ci_population"][2]) == pytest.approx(
        float(report["ci_debiased"][2]), abs=1e-12)


def test_estimate_custom_column_names(tmp_path):
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    pa, pb = _write_pair(tmp_path, xa, y, xb, d, outcome="income", weight="wt")
    out = tmp_path / "est.csv"
    args = _base_args("estimate", pa, pb, out, bootstrap=200,
                      outcome="income", weight="wt")
    assert main(args) == 0
    header, _ = _read_table(out)
    assert header == ["quantity", "value", "lo", "hi"]


def test_impute_custom_weight_name_in_header(tmp_path):
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    pa, pb = _write_pair(tmp_path, xa, y, xb, d, weight="wt")
    out = tmp_path / "imp.csv"
    args = _base_args("impute", pa, pb, out, weight="wt")
    assert main(args) == 0
    header, _ = _read_table(out)
    assert header[2] == "wt"


# -- simulate -----------------------------------------------------------

def test_simulate_table1_layout(tmp_path):
    out = tmp_path / "t1.csv"
    code = main(["simulate", "--table", "1", "--reps", "2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0

    header, rows = _read_table(out)
    assert header == ["scenario", "estimator", "mean", "rb_pct", "mse"]
    assert len(rows) == 12
    scenarios = [r[0] for r in rows[::3]]
    assert scenarios == ["TT", "FT", "TF", "FF"]
    for base in range(0, 12, 3):
        assert [r[1] for r in rows[base:base + 3]] == [
            "sample_b_mean", "mu_b", "mu_b_debiased"]
    meta = _read_meta(str(out) + ".meta")
    assert meta["table"] == "1"
    assert meta["reps"] == "2"
    for sc in ("TT", "FT", "TF", "FF"):
        assert meta[f"failed_{sc}"] == "0"


def test_simulate_table2_estimator_set(tmp_path):
    out = tmp_path / "t2.csv"
    code = main(["simulate", "--table", "2", "--reps", "1", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    _, rows = _read_table(out)
    assert len(rows) == 20
    assert [r[1] for r in rows[:5]] == [
        "population_mean", "sample_a_mean", "dre", "mu_dsm", "mu_dsm_debiased"]


def test_simulate_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["simulate", "--table", "1", "--reps", "2", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_coverage_table_layout(tmp_path, monkeypatch):
    # One small grid row keeps the run quick; the layout contract is the
    # same at any size.
    monkeypatch.setattr(cli, "COVERAGE_GRID", ((3, 200, 200),))
    out = tmp_path / "t4.csv"
    code = main(["simulate", "--table", "4", "--reps", "2", "--seed", "3",
                 "--bootstrap", "40", "--out", str(out)])
    assert code == 0

    header, rows = _read_table(out)
    assert header == ["m", "n_a", "n_b", "scenario",
                      "coverage_sample_b", "coverage_population"]
    assert [r[3] for r in rows] == ["TT", "FT", "TF", "FF"]
    for row in rows:
        assert row[:3] == ["3", "200", "200"]
        assert 0.0 <= float(row[4]) <= 1.0
        assert 0.0 <= float(row[5]) <= 1.0
    meta = _read_meta(str(out) + ".meta")
    assert meta["n_boot"] == "40"
    for sc in ("TT", "FT", "TF", "FF"):
        assert f"failed_m3_200_200_{sc}" in meta


# -- serialization ------------------------------------------------------

def test_write_meta_format(tmp_path):
    path = tmp_path / "x.meta"
    write_meta(path, {"a": 1, "b": 0.1, "c": "text", "d": np.int64(7)})
    assert path.read_text() == "a=1\nb=0.1\nc=text\nd=7\n"


def test_csv_float_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    values = [0.1, 1.0 / 3.0, 1e-300, 12345.678901234567, -0.0, 2.0 ** 52]
    write_csv(path, ("v",), [(v,) for v in values])
    _, rows = _read_rows(str(path))
    got = [float(r[0]) for r in rows]
    assert got == values
    # Sign survives for negative zero too.
    assert np.signbit(got[4])

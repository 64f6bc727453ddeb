"""Command-line interface: file loading, output layout, exact agreement
with the library calls it wraps, exit-code families, and byte-identical
reruns."""

import csv
import io
import os
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dsm.cli as cli
import dsm.errors
import dsm.simulation
from dsm.cli import main
from dsm.io import RunConfig, load_samples, write_csv, write_meta
from support import run_python


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
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _read_meta(path):
    out = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
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


def test_load_samples_reads_every_spelling_float_reads(tmp_path):
    # Underscores, non-ASCII digits and padding with every character
    # str.strip() removes: the columns equal, bit for bit, float() applied
    # to each stripped cell.
    pad = "".join(ch for ch in map(chr, range(0x110000)) if ch.isspace())
    cells = ["1_0", "\u0661\u0662", "-0.0", "1e-320", f"{pad}2.5{pad}", " 7 ", "\u0663.5", "+4"]
    rows = [(cells[i], cells[-1 - i], "1") for i in range(len(cells))]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    with open(pa, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("x1", "x2", "y"), *rows])
    with open(pb, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("x1", "x2", "d"), *rows])
    a, b = load_samples(pa, pb, RunConfig(covariates=("x1", "x2")))
    expected = np.array([[float(c.strip()) for c in row] for row in rows])
    for got in (np.column_stack([a.x, a.y]), np.column_stack([b.x, b.d])):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", ["", "abc", "nan", "1e500"])
def test_load_samples_names_the_first_bad_cell_by_row(tmp_path, bad):
    # Line 3 has a bad outcome and line 4 a bad first covariate: the error
    # names line 3's column, the first bad cell in reading order.
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(f"x1,y\n1.0,2.0\n1.0,{bad}\n{bad},4.0\n")
    pb.write_text("x1,d\n0.5,2.0\n")
    with pytest.raises(dsm.errors.ParseError, match=r"a\.csv:3: column 'y' is "):
        load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))


def test_load_samples_reports_a_bad_cell_above_a_ragged_row(tmp_path):
    # Rows are checked in reading order, so line 3's cell comes before
    # line 5's width.
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("x1,y\n1.0,2.0\n1.0,abc\n1.0,3.0\n1.0,2.0,9\n")
    pb.write_text("x1,d\n0.5,2.0\n")
    with pytest.raises(dsm.errors.ParseError, match=r"a\.csv:3: column 'y' is not a number: 'abc'"):
        load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))


def test_load_samples_reads_file_a_before_file_b(tmp_path):
    # A's header fault is found before B is opened, so B's ragged row
    # does not hide it.
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("x1,z\n1.0,2.0\n")
    pb.write_text("x1,d\n0.5,2.0\n0.5\n")
    with pytest.raises(dsm.errors.SchemaMismatch, match=r"a\.csv: missing required columns \['y'\]"):
        load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))


def test_load_samples_keeps_values_and_lines_past_the_first_thousand_rows(tmp_path):
    # Clean rows are parsed in bulk and the rest one by one: a padded cell
    # on data row 1500 keeps its value, and a bad one on row 2400 its line.
    cells = [repr(float(i)) for i in range(2500)]
    cells[1500] = "\x1c1500.0\x1f"
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pb.write_text("x1,d\n0.5,2.0\n")
    pa.write_text("x1,y\n" + "".join(f"{c},1\n" for c in cells))
    a, _ = load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))
    assert a.x[:, 0].tobytes() == np.arange(2500.0).tobytes()
    cells[2400] = "abc"
    pa.write_text("x1,y\n" + "".join(f"{c},1\n" for c in cells))
    with pytest.raises(dsm.errors.ParseError, match=r"a\.csv:2402: column 'x1' is not a number"):
        load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))


@pytest.mark.parametrize("text", ["", "\n\n", "x1,z\n", "x1,y,x1\n,,\n \n"])
def test_load_samples_without_data_rows_says_so_before_any_header_fault(tmp_path, text):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(text)
    pb.write_text("x1,d\n0.5,2.0\n")
    with pytest.raises(dsm.errors.SchemaMismatch, match=r"a\.csv: file has no data rows$"):
        load_samples(str(pa), str(pb), RunConfig(covariates=("x1",)))


def test_load_samples_memory_is_about_the_parsed_columns(tmp_path):
    # The load streams rows straight into the returned columns, so its
    # traced peak stays within twice their bytes.
    rng = np.random.default_rng(3)
    xa, y, xb, d = _dataset(rng, n_a=20_000, n_b=40_000)
    xa, xb = np.column_stack([xa, xa ** 2]), np.column_stack([xb, xb ** 2])
    cov = ("x1", "x2", "x3", "x4")
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, cov + ("y",), np.column_stack([xa, y]))
    write_csv(pb, cov + ("d",), np.column_stack([xb, d]))
    tracemalloc.start()
    try:
        a, b = load_samples(pa, pb, RunConfig(covariates=cov))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parsed = a.x.nbytes + a.y.nbytes + b.x.nbytes + b.d.nbytes
    assert parsed == 300_000 * 8
    assert peak <= 2 * parsed, (peak, parsed)


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


@pytest.mark.parametrize("cell, message", [
    pytest.param("abc", "is not a number: 'abc'", id="abc"),
    pytest.param("", "is empty", id="empty"),
    pytest.param("NaN", "is not finite", id="nan"),
    pytest.param("inf", "is not finite", id="inf"),
    pytest.param("1e500", "is not finite", id="overflow"),
])
def test_non_numeric_cell_exits_schema(tmp_path, capsys, cell, message):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text(f"x1,y\n1.0,2.0\n{cell},4.0\n")
    pb.write_text("x1,d\n0.5,2.0\n")
    code = main(["impute", "--sample-a", str(pa), "--sample-b", str(pb),
                 "--covariates", "x1", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert ":3:" in err and message in err


def test_empty_covariate_list_exits_schema(sample_files, tmp_path, capsys):
    pa, pb = sample_files
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv", covariates="")) == 2
    assert "no covariate columns configured" in capsys.readouterr().err


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
    bom_a.write_bytes(b"\xef\xbb\xbf" + Path(pa).read_bytes())
    bom_b.write_bytes(b"\xef\xbb\xbf" + Path(pb).read_bytes())
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
    with open(pb, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
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


@pytest.mark.parametrize("cmd", ["impute", "estimate"])
def test_overlong_field_exits_schema(sample_files, tmp_path, capsys, cmd):
    # A cell past csv.field_size_limit() makes the csv module raise its
    # own error; it names the file and line like any other parse failure.
    pa, _ = sample_files
    pb = tmp_path / "long.csv"
    pb.write_text(f"x1,x2,d\n0.5,1.0,2.0\n0.5,{'1' * (csv.field_size_limit() + 1)},2.0\n")
    assert main(_base_args(cmd, pa, str(pb), tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err.startswith(f"dsm: {pb}:3: field larger than field limit")


def test_header_only_file_exits_schema(sample_files, tmp_path, capsys):
    _, pb = sample_files
    pa = tmp_path / "header_only.csv"
    pa.write_text("x1,x2,y\n")
    assert main(_base_args("impute", str(pa), pb, tmp_path / "o.csv")) == 2
    assert "header_only.csv: file has no data rows" in capsys.readouterr().err


def test_repeated_covariate_exits_schema(sample_files, tmp_path, capsys):
    pa, pb = sample_files
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv", covariates="x1,x1")) == 2
    assert "named more than once ['x1']" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"covariates": "x1,y"}, "outcome column 'y' is also a covariate"),
    ({"weight": "x2"}, "weight column 'x2' is also a covariate"),
])
def test_role_column_as_covariate_exits_schema(sample_files, tmp_path, capsys, extra, message):
    pa, pb = sample_files
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv", **extra)) == 2
    assert message in capsys.readouterr().err


def _never_called(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("extra", [{"alpha": 1.5}, {"bootstrap": 1}])
def test_bad_interval_settings_exit_before_loading(sample_files, tmp_path, monkeypatch, extra):
    monkeypatch.setattr(cli, "load_samples", _never_called)
    pa, pb = sample_files
    assert main(_base_args("estimate", pa, pb, tmp_path / "o.csv", **extra)) == 3


def test_estimate_missing_out_dir_exits_before_loading(sample_files, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "load_samples", _never_called)
    pa, pb = sample_files
    out = tmp_path / "absent" / "o.csv"
    assert main(_base_args("estimate", pa, pb, out)) == 2
    assert capsys.readouterr().err == f"dsm: {out.parent}: no such directory\n"


def test_simulate_missing_out_dir_exits_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_scenario_table", _never_called)
    out = tmp_path / "absent" / "t1.csv"
    assert main(["simulate", "--table", "1", "--reps", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"dsm: {out.parent}: no such directory\n"


@pytest.mark.parametrize("blocked", ["o.csv", "o.csv.meta"])
def test_unwritable_output_exits_schema(sample_files, tmp_path, capsys, blocked):
    # A directory standing where an output file goes makes its write fail.
    (tmp_path / blocked).mkdir()
    pa, pb = sample_files
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err == f"dsm: {tmp_path / blocked}: Is a directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_device_output_names_its_file(capsys):
    # Writes to /dev/full fail with ENOSPC, an OSError without a filename.
    assert main(["simulate", "--table", "2", "--reps", "2", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "dsm: /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, ("v",), [(0.5,)]),
    lambda path: write_meta(path, {"v": 0.5}),
], ids=["csv", "meta"])
def test_full_device_write_error_carries_the_path(write):
    with pytest.raises(OSError) as err:
        write("/dev/full")
    assert err.value.filename == "/dev/full"
    assert err.value.strerror == "No space left on device"


def test_os_error_naming_no_file_is_raised(tmp_path, monkeypatch, capsys):
    # With no file to name, a `dsm:` line could not say what failed, so the
    # traceback stays.
    def fail(args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "cmd_simulate", fail)
    with pytest.raises(OSError) as err:
        main(["simulate", "--table", "2", "--out", str(tmp_path / "t.csv")])
    assert err.value.filename is None
    assert capsys.readouterr().err == ""


def test_negative_seed_exits_numeric(sample_files, tmp_path):
    pa, pb = sample_files
    args = _base_args("estimate", pa, pb, tmp_path / "o.csv", seed=-1)
    assert main(args) == 3


def test_simulate_negative_seed_exits_numeric_before_running(tmp_path, monkeypatch, capsys):
    # ScenarioSpec rejects the seed before any replication runs.
    monkeypatch.setattr(cli, "run_scenario_table", _never_called)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--table", "1", "--seed", "-1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "dsm: seed must be nonnegative\n"
    assert not out.exists()


def test_negative_seed_with_missing_out_dir_reports_the_directory(sample_files, tmp_path, capsys):
    # The output directory is checked before the command builds its specs.
    pa, pb = sample_files
    out = tmp_path / "absent" / "o.csv"
    assert main(_base_args("estimate", pa, pb, out, seed=-1)) == 2
    assert capsys.readouterr().err == f"dsm: {out.parent}: no such directory\n"


def test_seed_beyond_128_bits_draws_finite_intervals(sample_files, tmp_path):
    # estimate's --seed, like simulate's, takes any nonnegative int.
    pa, pb = sample_files
    out = tmp_path / "o.csv"
    assert main(_base_args("estimate", pa, pb, out, seed=2**128, bootstrap=50)) == 0
    _, rows = _read_table(out)
    intervals = [r for r in rows if r[0].startswith("ci_")]
    assert len(intervals) == 3
    assert all(np.isfinite([float(v) for v in r[1:]]).all() for r in intervals)
    assert _read_meta(str(out) + ".meta")["seed"] == str(2**128)


def test_impute_takes_no_seed(sample_files, tmp_path):
    # impute draws nothing at random, so it has no --seed to set.
    pa, pb = sample_files
    with pytest.raises(SystemExit) as exc:
        main(_base_args("impute", pa, pb, tmp_path / "o.csv", seed=1))
    assert exc.value.code == 2


def test_memory_error_exits_numeric(sample_files, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(cli, "find_matches", exhausted)
    pa, pb = sample_files
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 3
    assert capsys.readouterr().err.startswith("dsm: out of memory: Unable to allocate")


def test_m_beyond_donor_pool_exits_numeric(sample_files, tmp_path):
    pa, pb = sample_files
    args = _base_args("impute", pa, pb, tmp_path / "o.csv", m=13)
    assert main(args) == 3


def test_bad_j_fails_before_any_bootstrap(sample_files, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a bootstrap ran before j was checked")

    for name in ("bootstrap_ci_plain", "bootstrap_ci_debiased", "bootstrap_ci_population"):
        monkeypatch.setattr(cli, name, never)
    pa, pb = sample_files
    out = tmp_path / "o.csv"
    assert main(_base_args("estimate", pa, pb, out, j=5000)) == 3
    assert capsys.readouterr().err == "dsm: j=5000 exceeds the 11 other donors available\n"
    assert main(_base_args("estimate", pa, pb, out, j=0)) == 3
    assert capsys.readouterr().err == "dsm: j must be at least 1\n"
    assert not out.exists()


def test_separated_samples_exit_convergence(tmp_path):
    pa, pb = _write_pair(
        tmp_path,
        np.array([[1.0, 0.5], [2.0, 2.5], [3.0, 1.5]]),
        np.array([1.0, 2.0, 3.0]),
        np.array([[-1.0, -2.5], [-2.0, -0.5], [-3.0, -1.5]]),
        np.array([2.0, 2.0, 2.0]),
    )
    assert main(_base_args("estimate", pa, pb, tmp_path / "o.csv")) == 4


def test_weights_not_covering_sample_a_exit_convergence(tmp_path, capsys):
    # Unit weights with n_b <= n_a: no propensity model can fit, whatever
    # the covariates; the message names both numbers.
    xa, y, xb, d = _dataset(np.random.default_rng(7), n_a=12, n_b=10, unit_weights=True)
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 4
    assert "design weights sum to 10, not more than the 12 sample-A units" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("cmd", ["impute", "estimate"])
def test_overflowing_covariate_spread_exits_numeric(tmp_path, capsys, cmd):
    # One 1e200 cell overflows the pooled variance of x1 in float64: the
    # run names that column, instead of warning from numpy and then
    # blaming the whole design matrix.
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    xa[3, 0] = 1e200
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_base_args(cmd, pa, pb, tmp_path / "o.csv")) == 3
    err = capsys.readouterr().err
    assert err == "dsm: covariate 'x1' spreads beyond float64 over the pooled sample\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("cmd", ["impute", "estimate"])
def test_constant_covariate_is_named_by_header(tmp_path, capsys, cmd):
    # --covariates lists x2 first, so the fit's column 0 is x2: the
    # message must follow the command line's order, not the file's.
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    xa[:, 1], xb[:, 1] = 1.5, 1.5
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    args = _base_args(cmd, pa, pb, tmp_path / "o.csv")
    args[args.index("x1,x2")] = "x2,x1"
    assert main(args) == 3
    assert capsys.readouterr().err == "dsm: covariate 'x2' is constant over the pooled sample\n"
    assert not (tmp_path / "o.csv").exists()


def test_collinear_covariates_exit_numeric(tmp_path, capsys):
    # x2 = 2 x1: neither column is constant, but the pooled design is
    # rank deficient, which the fit says before any Newton step.
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    xa[:, 1], xb[:, 1] = 2 * xa[:, 0], 2 * xb[:, 0]
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    assert main(_base_args("estimate", pa, pb, tmp_path / "o.csv")) == 3
    assert capsys.readouterr().err == "dsm: pooled design matrix is rank deficient\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("cmd", ["impute", "estimate"])
@pytest.mark.parametrize("weights, x1, message", [
    # Two 1e308 weights sum to inf: said so, instead of 100 Newton steps of
    # numpy overflow warnings and a "no convergence" exit 4.
    ((1e308, 1e308), 1.0, "sum beyond float64"),
    # A finite sum whose curvature overflows, through a far-out x1.
    ((1e308,), 6e7, "are too large for the fit in float64"),
], ids=["sum", "curvature"])
def test_overflowing_weights_exit_numeric(tmp_path, capsys, cmd, weights, x1, message):
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    d[: len(weights)], xb[0, 0] = weights, x1
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_base_args(cmd, pa, pb, tmp_path / "o.csv")) == 3
    assert capsys.readouterr().err == f"dsm: sample-B design weights {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o.csv").exists()


def test_dominant_weight_is_named(tmp_path, capsys):
    # One 1e17 weight among weights of 2-5 leaves the curvature singular at
    # the first Newton step; the message says which weight dominates.
    xa, y, xb, d = _dataset(np.random.default_rng(7))
    d[0] = 1e17
    pa, pb = _write_pair(tmp_path, xa, y, xb, d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == 4
    err = capsys.readouterr().err
    assert err.startswith("dsm: curvature matrix is singular; ")
    assert "design weight, 1e+17 at row 0, is " in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_extreme_propensity_warning_is_one_dsm_line(tmp_path, capsys):
    # B weights of 1e6 push sample A's fitted propensities below 1e-6: the
    # report is still written, with one warning line in the CLI's format
    # instead of Python's file:line display.
    rng = np.random.default_rng(0)
    xa, xb = rng.normal(size=(40, 2)), rng.normal(size=(80, 2))
    y = xa.sum(axis=1) + rng.normal(size=40)
    pa, pb = _write_pair(tmp_path, xa, y, xb, np.full(80, 1e6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_base_args("estimate", pa, pb, tmp_path / "o.csv", bootstrap=20)) == 0
    assert capsys.readouterr().err == (
        "dsm: warning: minimum fitted propensity 2.28e-07 is below 1e-06; "
        "inverse weighting may be unstable\n")
    assert not caught
    assert (tmp_path / "o.csv").exists()


def test_other_warnings_keep_the_python_display(tmp_path, monkeypatch, capsys):
    # Only an ExtremePropensityWarning becomes a `dsm: warning:` line; any
    # other warning goes on to Python's showwarning, which record=True
    # points at the caught list.
    def warn(args):
        warnings.warn("not about propensities", UserWarning)

    monkeypatch.setattr(cli, "cmd_simulate", warn)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--table", "2", "--out", str(tmp_path / "t.csv")]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "not about propensities")]
    assert capsys.readouterr().err == ""


def _error_classes(base=dsm.errors.DsmError):
    for cls in base.__subclasses__():
        if cls.__module__ == "dsm.errors":
            yield cls
            yield from _error_classes(cls)


_PINNED_EXIT = {
    "ParseError": 2, "SchemaMismatch": 2, "NonpositiveWeight": 2,
    "NonConvergence": 4, "Separation": 4,
}


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_pinned_status(sample_files, tmp_path, monkeypatch,
                                                        capsys, cls):
    def failing(config):
        raise cls("injected")

    monkeypatch.setattr(cli, "cmd_impute", failing)
    pa, pb = sample_files
    status = _PINNED_EXIT.get(cls.__name__, 3)
    assert main(_base_args("impute", pa, pb, tmp_path / "o.csv")) == status
    assert capsys.readouterr().err == "dsm: injected\n"
    assert cls.exit_code == status


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["impute"])
    assert exc.value.code == 2


# -- impute -------------------------------------------------------------

def test_impute_output_layout(sample_files, tmp_path):
    pa, pb = sample_files
    out = tmp_path / "imp.csv"
    assert main(_base_args("impute", pa, pb, out)) == 0

    header, rows = _read_table(out)
    assert header == ["x1", "x2", "d", "y_hat", "sampling_score", "prognostic_score"]
    assert len(rows) == 40
    values = np.array([[float(v) for v in row] for row in rows])
    assert np.all(np.isfinite(values))
    # Sampling scores are probabilities.
    assert np.all((values[:, 4] > 0) & (values[:, 4] < 1))

    meta = _read_meta(str(out) + ".meta")
    assert "seed" not in meta
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
    assert main(_base_args("impute", pa, pb, out1)) == 0
    assert main(_base_args("impute", pa, pb, out2)) == 0
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
    assert list(meta)[0] == "seed" and meta["seed"] == "5"
    assert meta["j"] == "6"
    assert meta["n_boot"] == "300"
    assert meta["alpha"] == "0.05"
    assert meta["debias"] == "true"


def test_unset_options_take_their_documented_defaults(sample_files, tmp_path):
    pa, pb = sample_files
    out = tmp_path / "est.csv"
    assert main(_base_args("estimate", pa, pb, out)) == 0
    meta = _read_meta(str(out) + ".meta")
    assert {k: meta[k] for k in ("seed", "m", "j", "n_boot", "alpha", "debias")} == {
        "seed": "0", "m": "3", "j": "6", "n_boot": "2000", "alpha": "0.05", "debias": "true"}

    out = tmp_path / "t1.csv"
    assert main(["simulate", "--table", "1", "--reps", "1", "--out", str(out)]) == 0
    meta = _read_meta(str(out) + ".meta")
    assert (meta["scale"], meta["seed"]) == ("desk", "0")


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


def test_simulate_coverage_table_rejects_m(tmp_path, capsys):
    out = tmp_path / "t4.csv"
    code = main(["simulate", "--table", "4", "--m", "5", "--reps", "1", "--out", str(out)])
    assert code == 3
    assert "coverage grid fixes m per row" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_all_failed_names_the_failures(tmp_path, capsys):
    # m=600 exceeds every volunteer sample of about 500 units.
    out = tmp_path / "t2.csv"
    assert main(["simulate", "--table", "2", "--reps", "2", "--m", "600", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "dsm: scenario TT at m=600, n_a=500, n_b=1000: "
        "every replication failed (MTooLarge: 2); nothing to aggregate\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    # Tables 1-3 and a1 build no intervals.
    pytest.param(["--table", "2", "--bootstrap", "500"], id="table2"),
    # One draw has no spread; rejected before any population is drawn.
    pytest.param(["--table", "4", "--bootstrap", "1"], id="one_draw"),
    # Coverage needs intervals; no draws would leave every coverage empty.
    pytest.param(["--table", "4", "--bootstrap", "0"], id="no_draws"),
])
def test_simulate_bootstrap_misuse_exits_numeric(tmp_path, monkeypatch, capsys, args):
    monkeypatch.setattr(cli, "run_scenario_table", _never_called)
    monkeypatch.setattr(cli, "run_coverage_grid", _never_called)
    out = tmp_path / "t.csv"
    assert main(["simulate", *args, "--reps", "2", "--out", str(out)]) == 3
    assert "bootstrap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--table", "2", "--reps", "0"], "--reps must be at least 1, got 0"),
    (["--table", "4", "--reps", "-3"], "--reps must be at least 1, got -3"),
    (["--table", "1", "--reps", "2", "--m", "0"], "--m must be at least 1, got 0"),
    (["--table", "4", "--reps", "2", "--bootstrap", "-1"],
     "--bootstrap must be at least 2 for table 4: its coverage needs intervals"),
], ids=["reps_zero", "reps_negative_table4", "m_zero", "bootstrap_negative_table4"])
def test_simulate_range_errors_name_the_option(tmp_path, monkeypatch, capsys, args, message):
    # run_coverage_grid runs its rows through the library's private _run.
    monkeypatch.setattr(cli, "run_scenario_table", _never_called)
    monkeypatch.setattr(dsm.simulation, "_run", _never_called)
    out = tmp_path / "t.csv"
    assert main(["simulate", *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"dsm: {message}\n"
    assert not out.exists()


def test_simulate_non_integer_threads_exits_numeric(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DSM_THREADS", "two")
    out = tmp_path / "t1.csv"
    assert main(["simulate", "--table", "1", "--reps", "2", "--out", str(out)]) == 3
    assert "DSM_THREADS must be an integer, got 'two'" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_non_integer_threads_exits_numeric(sample_files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DSM_THREADS", "two")
    monkeypatch.setattr(cli, "load_samples", _never_called)
    pa, pb = sample_files
    out = tmp_path / "o.csv"
    assert main(_base_args("estimate", pa, pb, out)) == 3
    assert capsys.readouterr().err == "dsm: DSM_THREADS must be an integer, got 'two'\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["estimate", "simulate"])
def test_threads_below_one_exit_numeric_before_any_work(sample_files, tmp_path, monkeypatch,
                                                       capsys, cmd):
    monkeypatch.setenv("DSM_THREADS", "0")
    monkeypatch.setattr(cli, "load_samples", _never_called)
    monkeypatch.setattr(dsm.simulation, "_replicate", _never_called)
    out = tmp_path / "o.csv"
    args = (_base_args(cmd, *sample_files, out) if cmd == "estimate"
            else ["simulate", "--table", "1", "--reps", "2", "--out", str(out)])
    assert main(args) == 3
    assert capsys.readouterr().err == "dsm: DSM_THREADS must be at least 1, got 0\n"
    assert not out.exists()


def test_estimate_byte_identical_across_thread_counts(sample_files, tmp_path, monkeypatch):
    pa, pb = sample_files
    outputs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DSM_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        assert main(_base_args("estimate", pa, pb, out, bootstrap=999)) == 0
        outputs.append((out.read_bytes(), Path(str(out) + ".meta").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


# -- BLAS threads -------------------------------------------------------

# Each interpreter below starts with none of these set but those it exports.
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("exported, seen", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
])
def test_the_cli_pins_blas_threads_unless_exported(exported, seen):
    code = f"import os, dsm.cli; print([os.environ.get(v) for v in {_BLAS_VARIABLES}])"
    proc = run_python(["-c", code], drop=_BLAS_VARIABLES, **exported)
    assert proc.stdout == f"{seen}\n", proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread task list")
def test_the_cli_process_runs_one_native_thread():
    # numpy's and scipy's OpenBLAS each start a thread pool as they load,
    # unless told beforehand to run on one thread.
    code = "import os, dsm.cli, scipy.special, scipy.spatial; print(len(os.listdir('/proc/self/task')))"
    proc = run_python(["-c", code], drop=_BLAS_VARIABLES)
    assert proc.stdout == "1\n", proc.stderr


def test_estimate_byte_identical_across_blas_thread_counts(sample_files, tmp_path):
    pa, pb = sample_files
    outputs = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"blas{len(outputs)}.csv"
        argv = _base_args("estimate", pa, pb, out, bootstrap=199)
        proc = run_python(["-m", "dsm.cli", *argv], drop=_BLAS_VARIABLES, **blas)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), Path(str(out) + ".meta").read_bytes()))
    assert outputs[0] == outputs[1]


# -- generated CSV text -------------------------------------------------

_NUMBER = st.one_of(st.floats(0.1, 10.0).map(repr), st.integers(1, 9).map(str))
# Any finite float: overflowing sums and spreads, subnormals, -0.0.
_EXTREME = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_CELL = st.one_of(
    st.sampled_from([
        "", " ", "NaN", "nan", "inf", "-inf", "1e999", "0", "-1.5", "abc",
        '"2.5"', '" 3 "', '"4,5"', '""', '"a""b"', '"unterminated',
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.just("7" * (csv.field_size_limit() + 1)),
)
_HEADER_CELL = st.one_of(
    st.sampled_from(["x1", "x2", "y", "d", " x1 ", '"x2"', "X1", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def _csv_bytes(draw, required):
    """A sample file: numeric rows under the required header, or a messy
    one with random header cells, odd cells, ragged rows, blank lines, a
    BOM, CRLF line ends or a byte that is not UTF-8."""
    messy = draw(st.integers(0, 2), label="messy") == 0
    number = draw(st.sampled_from([_NUMBER, _NUMBER, _EXTREME]), label="numbers")
    header = list(draw(st.permutations(required)))
    if messy and draw(st.booleans()):
        header = draw(st.lists(_HEADER_CELL, max_size=5))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0 if messy else 3, 12))):
        width = len(header)
        if messy and draw(st.integers(0, 5)) == 0:
            width = draw(st.integers(0, width + 2))
        cell = st.one_of(number, _ODD_CELL) if messy else number
        lines.append(",".join(draw(cell) for _ in range(width)))
    if messy:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if messy and draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    cmd=st.sampled_from(["impute", "estimate"]),
    file_a=_csv_bytes(("x1", "x2", "y")),
    file_b=_csv_bytes(("x1", "x2", "d")),
    m=st.integers(1, 3),
)
def test_generated_csv_text_exits_with_a_named_failure(cmd, file_a, file_b, m):
    # Whatever the files hold, the CLI either succeeds or exits with its
    # family's code and a "dsm:" line; an escaping exception fails here.
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb, out = Path(tmp, "a.csv"), Path(tmp, "b.csv"), Path(tmp, "o.csv")
        pa.write_bytes(file_a)
        pb.write_bytes(file_b)
        extra = {"bootstrap": 20} if cmd == "estimate" else {}
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(_base_args(cmd, str(pa), str(pb), out, m=m, **extra))
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().splitlines()[-1].startswith("dsm: ")
        else:
            assert out.exists()


# -- serialization ------------------------------------------------------

def test_write_meta_format(tmp_path):
    path = tmp_path / "x.meta"
    write_meta(path, {"a": 1, "b": 0.1, "c": "text", "d": np.int64(7)})
    assert path.read_text() == "a=1\nb=0.1\nc=text\nd=7\n"


def test_csv_float_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    values = [0.1, 1.0 / 3.0, 1e-300, 12345.678901234567, -0.0, 2.0 ** 52]
    write_csv(path, ("v",), [(v,) for v in values])
    _, rows = _read_table(path)
    got = [float(r[0]) for r in rows]
    assert got == values
    # Sign survives for negative zero too.
    assert np.signbit(got[4])

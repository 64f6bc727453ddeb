"""The package namespace: what `from dsm import *` brings in, and the
messages its public functions give for arguments they reject."""

import types

import numpy as np
import pytest

import dsm
from support import run_python

_SUBMODULES = ("errors", "estimators", "io", "matching", "scores", "simulation", "uncertainty")


def test_all_names_resolve_and_none_is_a_module():
    assert dsm.__all__
    for name in dsm.__all__:
        assert not isinstance(getattr(dsm, name), types.ModuleType), name


def test_star_import_keeps_stdlib_io():
    namespace = {}
    exec("import io\nfrom dsm import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert "point_estimates" in namespace and "fit_scores" in namespace


def test_all_is_the_union_of_the_submodule_exports():
    exported = []
    for name in _SUBMODULES:
        module = getattr(dsm, name)
        exported += getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert len(exported) == len(set(exported))
    assert sorted(dsm.__all__) == sorted(exported)
    assert "DsmError" in dsm.__all__ and "ExtremePropensityWarning" in dsm.__all__


def test_import_dsm_loads_no_numpy_and_sets_no_variable():
    # The submodules load on the first public name asked for, so a program
    # can set its BLAS threads after `import dsm` and before numpy loads.
    code = ("import os, sys; before = dict(os.environ); import dsm; "
            "print('numpy' in sys.modules, dict(os.environ) == before, dsm.__version__)")
    proc = run_python(["-c", code])
    assert proc.stdout == f"False True {dsm.__version__}\n", proc.stderr


def test_unknown_names_raise_and_dir_lists_the_exports():
    with pytest.raises(AttributeError, match="module 'dsm' has no attribute 'nope'"):
        dsm.nope
    assert set(dsm.__all__) | set(_SUBMODULES) <= set(dir(dsm))


_A2 = dsm.SampleA(np.zeros((3, 2)), np.zeros(3))
_B3 = dsm.SampleB(np.zeros((4, 3)), np.ones(4))
_SMAT = dsm.ScoreMatrix(z=np.arange(8.0).reshape(4, 2), n_a=2)
_COLUMNS = "samples disagree on the number of covariate columns"
_PI_RANGE = "inclusion probabilities must lie in (0, 1]"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: dsm.fit_propensity(_A2, _B3), ValueError, _COLUMNS, id="fit_propensity"),
    pytest.param(lambda: dsm.fit_scores(_A2, _B3), ValueError, _COLUMNS, id="fit_scores"),
    pytest.param(lambda: dsm.find_matches(_SMAT, 1, d_b=np.ones(3)), ValueError,
                 "d_b must have one weight per sample-B unit", id="find_matches_d_b"),
    pytest.param(lambda: dsm.sigma2_units(dsm.InnerNeighbors(j=1, l_sets=np.array([[1], [0]])),
                                          [1.0]),
                 ValueError, "y_a must have one outcome per sample-A unit", id="sigma2_units"),
    *(pytest.param(lambda field=field: dsm.ScenarioSpec(**{field: 0}), ValueError,
                   f"{field} must be at least 1, got 0", id=f"scenario_{field}")
      for field in ("n_pop", "n_a", "n_b", "m", "n_reps")),
    pytest.param(lambda: dsm.calibrate_pps(np.arange(1.0, 5.0), 4), ValueError,
                 "target size must lie strictly between 0 and the population size",
                 id="calibrate_pps_target"),
    pytest.param(lambda: dsm.pps_sample([1.5, 0.5], 2, np.random.default_rng(0)), ValueError,
                 _PI_RANGE, id="pps_sample_above_one"),
    pytest.param(lambda: dsm.pps_sample([0.0, 1.0], 1, np.random.default_rng(0)), ValueError,
                 _PI_RANGE, id="pps_sample_zero"),
])
def test_public_validation_messages(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def _array_records():
    """One of each public record that holds arrays, built on small data."""
    rng = np.random.default_rng(5)
    a = dsm.SampleA(rng.uniform(0, 2, (30, 2)), rng.normal(size=30))
    b = dsm.SampleB(rng.uniform(0, 2, (60, 2)), np.full(60, 3.0))
    fit = dsm.fit_scores(a, b)
    smat = dsm.build_score_matrix(a, b, fit)
    plan = dsm.find_matches(smat, 3)
    spec = dsm.BootstrapSpec(n_draws=20)
    arr = np.arange(4.0)
    return [
        a, b, fit, smat, plan, dsm.find_inner_neighbors(smat, 2),
        dsm.bootstrap_ci_plain(plan, a.y, 0.0, spec),
        dsm.PopulationFrame(x=arr[:, None], y=arr, cond_mean=arr, pi_a=arr, pi_b=arr, c_pps=1.0),
        dsm.SimReport(n_ok=4, n_failed=0, failures=(), estimates={"mu_b": arr},
                      targets={"target_b": arr}, coverage={}),
    ]


def test_array_records_compare_and_hash_by_identity():
    # Field-wise == would ask an array for its truth value, and a field-wise
    # hash would hash an array.
    for record in _array_records():
        twin = type(record).__new__(type(record))
        twin.__dict__.update(vars(record))
        assert record == record and record != twin, type(record).__name__
        assert hash(record) == hash(record) and record in {record} and twin not in {record}
    x, y = np.zeros((3, 2)), np.zeros(3)
    assert dsm.SampleA(x, y) != dsm.SampleA(x, y)


def test_scalar_records_keep_value_equality():
    assert dsm.BootstrapSpec(n_draws=5) == dsm.BootstrapSpec(n_draws=5)
    assert dsm.ScenarioSpec(m=3) == dsm.ScenarioSpec(m=3) != dsm.ScenarioSpec(m=4)
    assert len({dsm.ScenarioSpec(), dsm.ScenarioSpec()}) == 1

"""The package namespace: what `from dsm import *` brings in."""

import types

import dsm


def test_all_names_resolve_and_none_is_a_module():
    assert dsm.__all__
    for name in dsm.__all__:
        assert not isinstance(getattr(dsm, name), types.ModuleType), name


def test_star_import_keeps_stdlib_io():
    namespace = {}
    exec("import io\nfrom dsm import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert "point_estimates" in namespace and "fit_scores" in namespace

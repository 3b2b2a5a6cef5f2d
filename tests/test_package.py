"""The package namespace: a lazy table of re-exported names."""

import importlib

import pytest

import gschur


def test_every_exported_name_resolves_to_its_home_module():
    for module, names in gschur._EXPORTS.items():
        home = importlib.import_module(f"gschur.{module}")
        for name in names:
            assert getattr(gschur, name) is getattr(home, name)
    assert sorted(gschur.__all__) == sorted(gschur._HOME)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gschur import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(gschur.__all__)
    assert namespace["CoeffSeq"] is gschur.coeffseq.CoeffSeq


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gschur.no_such_name
    with pytest.raises(ImportError):
        exec("from gschur import no_such_name", {})


def test_submodules_import_from_the_package():
    from gschur import stable

    assert stable is importlib.import_module("gschur.stable")
    assert stable.super_schur is gschur.super_schur

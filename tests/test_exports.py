"""The package's export list: every name resolves, none repeats, and a star
import binds exactly those names."""

import gframes


def test_every_exported_name_resolves():
    assert [name for name in gframes.__all__ if not hasattr(gframes, name)] == []


def test_no_duplicates():
    assert len(set(gframes.__all__)) == len(gframes.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gframes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gframes.__all__)

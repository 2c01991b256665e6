import npscalar


def test_every_export_resolves():
    missing = [name for name in npscalar.__all__ if not hasattr(npscalar, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(npscalar.__all__)) == len(npscalar.__all__)


def test_star_import():
    namespace = {}
    exec("from npscalar import *", namespace)
    assert set(npscalar.__all__) <= namespace.keys()

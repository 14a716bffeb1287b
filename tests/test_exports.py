import kgrerank


def test_every_exported_name_resolves():
    assert [name for name in kgrerank.__all__ if not hasattr(kgrerank, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kgrerank import *", namespace)
    for name in kgrerank.__all__:
        assert namespace[name] is getattr(kgrerank, name)

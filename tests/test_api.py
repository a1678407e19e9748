import carmahf


def test_all_names_resolve():
    missing = [name for name in carmahf.__all__ if not hasattr(carmahf, name)]
    assert missing == []
    assert len(set(carmahf.__all__)) == len(carmahf.__all__)


def test_star_import():
    namespace = {}
    exec("from carmahf import *", namespace)
    assert set(carmahf.__all__) <= set(namespace)

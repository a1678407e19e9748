import subprocess
import sys

import carmahf

from conftest import child_env


def test_all_names_resolve():
    missing = [name for name in carmahf.__all__ if not hasattr(carmahf, name)]
    assert missing == []
    assert len(set(carmahf.__all__)) == len(carmahf.__all__)
    assert set(carmahf.__all__) <= set(dir(carmahf))


def test_star_import():
    namespace = {}
    exec("from carmahf import *", namespace)
    assert set(carmahf.__all__) <= set(namespace)


def test_import_loads_nothing_until_used():
    code = (
        "import sys, carmahf\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('carmahf', 'numpy')))\n"
        "print(carmahf.simulate.__name__, carmahf.spawn_seeds.__module__)\n"
        "try:\n"
        "    carmahf.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['carmahf']",
        "carmahf.simulate carmahf.simulate",
        "module 'carmahf' has no attribute 'nope'",
    ]

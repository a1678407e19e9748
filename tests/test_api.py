import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carmahf

from conftest import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


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


#: Every function of a time, lag or frequency x, with its arguments between the model and x.
SCALAR_RULE = {
    "kernel_values": (),
    "acvf_continuous": (),
    "spectral_density_continuous": (),
    "spectral_density_sampled": (0.1,),
    "spectral_density_filtered": (0.1,),
    "power_transfer": (0.1,),
    "differenced_spectrum_asymptotic": (0.01,),
    "f_ma_asymptotic": (0.01,),
}


@pytest.mark.parametrize("name", SCALAR_RULE)
def test_scalar_rule(carma21, name):
    # a float for a scalar, an array for an array, and the same value either way
    f = getattr(carmahf, name)
    scalar, array = f(carma21, *SCALAR_RULE[name], 0.7), f(carma21, *SCALAR_RULE[name], [0.3, 0.7, 1.9])
    assert type(scalar) is float
    assert isinstance(array, np.ndarray) and array.shape == (3,)
    assert scalar == array[1]


def test_readme_lists_the_public_api():
    # each bullet of README's "Public API" names one submodule and exactly the names it exports
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ")[1:]
    listed = {re.match(r"`carmahf\.(\w+)`", b)[1]: set(re.findall(r"`(\w+)`", b)) for b in bullets}
    assert listed == {module: set(names) for module, names in carmahf._EXPORTS.items()}
    assert set().union(*listed.values()) == set(carmahf.__all__)


def test_records_hold_python_floats(carma21):
    # .tolist() is exact, so each element is the computed value itself, and no
    # repr shows numpy 2's np.float64(...)
    path = carmahf.simulate_gaussian_exact(carma21, 0.1, 1000, seed=1)
    arma = carmahf.sampled_arma(carma21, 0.01)
    limit = carmahf.limit_ma_model(3)  # carma21's d = 1 has no theta
    exact = carmahf.acvf_filtered_sequence(carma21, 0.01)
    empirical = carmahf.empirical_filtered_acvf(path, 1)
    values = [*arma.phi, *arma.gamma, *arma.theta, arma.tau2, *limit.theta, limit.tau2_scale, *exact.values,
              *empirical.values, *empirical.stderr]
    assert len(values) == 16 and all(type(x) is float for x in values)
    assert not any("np.float64" in repr(r) for r in (path, arma, limit, exact, empirical))

import numpy as np
import pytest

from carmahf.poly import _horner, find_roots


def test_find_roots_factorable():
    roots = find_roots([2, 3, 1])
    assert np.allclose(sorted(roots.real), [-2.0, -1.0], atol=1e-10)


def test_find_roots_perfect_square():
    roots = find_roots([1, 2, 1])
    assert len(roots) == 2
    assert np.all(np.abs(roots + 1.0) < 1e-7)


def test_find_roots_complex_pair():
    vals = sorted(find_roots([5, 2, 1]), key=lambda z: z.imag)
    assert np.allclose(vals, [-1 - 2j, -1 + 2j], atol=1e-10)
    # conjugate closure is exact, not just approximate
    assert vals[0] == np.conj(vals[1])


def test_find_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        find_roots([4])


@pytest.mark.parametrize("trial", range(20))
def test_find_roots_random_known_roots(trial):
    rng = np.random.default_rng(1000 + trial)
    deg = int(rng.integers(1, 7))
    roots = []
    double = None
    while len(roots) < deg:
        if deg - len(roots) >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.2, 3.0)
            im = rng.uniform(0.2, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        elif deg - len(roots) >= 2 and rng.random() < 0.2:
            r = -rng.uniform(0.2, 3.0)
            roots += [r, r]  # deliberate double root
            double = r
        else:
            roots.append(-rng.uniform(0.2, 3.0))
    coeffs = np.real(np.poly(np.array(roots, dtype=complex)))[::-1]
    found = find_roots(coeffs)
    assert len(found) == deg
    got = sorted(found, key=lambda z: (z.real, z.imag))
    want = sorted(np.array(roots, dtype=complex), key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        # a double root splits by about sqrt(eps), its pair's mean does not
        assert abs(g - w) < (1e-7 if w == double else 1e-8)
    if double is not None:
        pair = [g for g in got if abs(g - double) < 1e-7]
        assert len(pair) == 2 and abs(np.mean(pair) - double) < 1e-8
    # residual invariant, normalized by the Cauchy-style scale
    for z in found:
        assert abs(np.polyval(coeffs[::-1], z)) / (1.0 + abs(z) ** deg) <= 1e-10


def test_conjugate_closure_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.standard_normal(6)
        coeffs[-1] = 1.0
        vals = sorted(find_roots(coeffs), key=lambda z: (z.real, abs(z.imag), z.imag))
        conj = sorted(np.conj(vals), key=lambda z: (z.real, abs(z.imag), z.imag))
        assert all(a == b for a, b in zip(vals, conj))


@pytest.mark.parametrize(
    "coeffs",
    [
        [2.0, 3.0, 1.0],
        [5.0, 2.0, 1.0],
        [0.0, 2.0, 3.0, 1.0],  # zero constant term: one exact zero root
        [0.0, 0.0, 0.0, -1.5, 0.5, 2.0],  # three
        [0.0, 0.0, 4.0],  # only zero roots
        [1.0, 0.0, 0.0, 0.0, 1.0],
    ],
)
def test_find_roots_bit_identical_to_np_roots(coeffs):
    want = np.roots(coeffs[::-1]).astype(complex)
    assert find_roots(coeffs).tobytes() == want.tobytes()


def test_find_roots_bit_identical_to_np_roots_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        deg = int(rng.integers(1, 10))
        coeffs = rng.standard_normal(deg + 1)
        coeffs[: int(rng.integers(0, deg))] = 0.0
        want = np.roots(coeffs[::-1]).astype(complex)
        assert find_roots(coeffs).tobytes() == want.tobytes()


def test_find_roots_ignores_trailing_zeros():
    assert find_roots([2, 3, 1, 0, 0]).tobytes() == find_roots([2, 3, 1]).tobytes()
    with pytest.raises(ValueError):
        find_roots([4, 0, 0])


@pytest.mark.parametrize("kind", ["real", "complex", "overflow"])
def test_horner_bit_identical_to_np_polyval(kind):
    rng = np.random.default_rng(13)
    for _ in range(50):
        coeffs = rng.standard_normal(int(rng.integers(1, 10)))
        x = rng.standard_normal(40) * 10.0 ** rng.uniform(-3, 3, 40)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(40) * 10.0 ** rng.uniform(-3, 3, 40)
        elif kind == "overflow":
            x = np.concatenate([x * 1e200, [np.inf, -np.inf, 1e300j]])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _horner(coeffs, x), np.polyval(coeffs[::-1], x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

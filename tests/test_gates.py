import cmath
import math

import numpy as np
import pytest

from qsdwalk.gates import PhaseRoot, hadamard, is_unitary, rx, sigma_x, v_power, v_root

I2 = np.eye(2, dtype=complex)
TOL = 1e-12
PRODUCT_TOL = 1e-10


def product_power(t: int, d: int) -> np.ndarray:
    """d-fold matrix product of v_root(t), the drift-prone reference form."""
    acc = np.eye(2, dtype=complex)
    v = v_root(t)
    for _ in range(d):
        acc = v @ acc
    return acc


def test_sigma_x_action_and_involution():
    sx = sigma_x()
    assert np.array_equal(sx @ np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
    assert np.array_equal(sx @ sx, I2)


def test_sigma_x_is_phased_rotation():
    assert np.max(np.abs(sigma_x() - cmath.exp(1j * math.pi / 2) * rx(math.pi))) < TOL


def test_rx_basics():
    assert np.max(np.abs(rx(0.0) - I2)) < TOL
    assert np.max(np.abs(rx(math.pi) - np.array([[0, -1j], [-1j, 0]]))) < TOL


def test_rx_composes():
    third = rx(math.pi / 3)
    assert np.max(np.abs(third @ third @ third - rx(math.pi))) < TOL


def test_rx_rejects_non_finite():
    with pytest.raises(ValueError):
        rx(math.inf)
    with pytest.raises(ValueError):
        rx(math.nan)


def test_hadamard_examples():
    h = hadamard()
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(h @ np.array([1, 0]) - np.array([s, s]))) < TOL
    assert np.max(np.abs(h @ h - I2)) < TOL
    assert np.max(np.abs(h @ np.array([s, -s]) - np.array([0, 1]))) < TOL


def test_v_root_special_cases():
    assert np.max(np.abs(v_root(1) - sigma_x())) < TOL
    v2 = v_root(2)
    assert np.max(np.abs(v2 @ v2 - sigma_x())) < TOL
    assert abs(v_root(3)[0, 0] - (0.75 + 0.25j * math.sqrt(3))) < TOL


def test_v_root_rejects_zero_order():
    with pytest.raises(ValueError):
        v_root(0)
    with pytest.raises(ValueError):
        v_power(0, 1)


def test_v_root_is_built_once_and_read_only():
    v = v_root(5)
    assert v_root(5) is v
    assert np.array_equal(v, v_power(5, 1))
    with pytest.raises(ValueError):
        v[0, 0] = 0


@pytest.mark.parametrize("t", range(1, 102))
def test_v_root_identities(t):
    v = v_root(t)
    assert is_unitary(v, tol=TOL)
    # global-phase form of the same rotation
    assert np.max(np.abs(v - cmath.exp(1j * math.pi / (2 * t)) * rx(math.pi / t))) < TOL
    assert np.max(np.abs(v_power(t, t) - sigma_x())) < TOL


def test_v_power_identity_at_zero():
    for t in (1, 2, 5, 31):
        assert np.max(np.abs(v_power(t, 0) - I2)) < TOL


def test_v_power_example_modulus():
    assert abs(abs(v_power(5, 2)[0, 0]) ** 2 - math.cos(2 * math.pi / 10) ** 2) < 1e-9


@pytest.mark.parametrize("t", range(1, 33))
def test_v_power_matches_repeated_product(t):
    for d in range(0, 2 * t + 1):
        assert np.max(np.abs(v_power(t, d) - product_power(t, d))) < PRODUCT_TOL


@pytest.mark.parametrize("t", range(1, 33))
def test_probability_identities(t):
    # |(1 +- k^d)/2|^2 against the closed-form squared cosine/sine
    for d in range(0, 2 * t + 1):
        k = PhaseRoot(t, d).value
        assert abs(abs((1 + k) / 2) ** 2 - math.cos(d * math.pi / (2 * t)) ** 2) < TOL
        assert abs(abs((1 - k) / 2) ** 2 - math.sin(d * math.pi / (2 * t)) ** 2) < TOL


@pytest.mark.parametrize("mu", range(0, 65))
def test_complementary_angle_identity(mu):
    t = 2 * mu + 1
    c0 = math.cos(mu * math.pi / (2 * t))
    c1 = math.cos((mu + 1) * math.pi / (2 * t))
    assert abs(c0 * c0 + c1 * c1 - 1.0) < TOL


def test_phase_root_invariants():
    for t in (1, 2, 7, 101):
        root = PhaseRoot(t)
        assert abs(abs(root.value) - 1.0) < TOL
        assert abs(root.value ** t - (-1.0)) < TOL


def test_phase_root_moduli_match_value():
    pr = PhaseRoot(5, 2)
    assert abs(abs((1 + pr.value) / 2) - pr.diag_modulus) < TOL
    assert abs(abs((1 - pr.value) / 2) - pr.offdiag_modulus) < TOL


def test_phase_root_validation():
    with pytest.raises(ValueError):
        PhaseRoot(0)
    with pytest.raises(ValueError):
        PhaseRoot(3, -1)


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))

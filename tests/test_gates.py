"""Matrix helpers: rotation closed form vs expm, little-endian kron, inverses."""
import numpy as np
import pytest
from scipy.linalg import expm

from svgrad.gates import (
    H,
    X,
    Y,
    Z,
    invert_small_matrix,
    kron_le,
    pauli_product,
    phase_matrix,
    rotation_matrix,
)

THETAS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


@pytest.mark.parametrize("axes", ["X", "Y", "Z", "XY", "ZZ", "YX"])
@pytest.mark.parametrize("theta", THETAS)
def test_rotation_matches_expm(axes, theta):
    expected = expm(-0.5j * theta * pauli_product(axes))
    np.testing.assert_allclose(rotation_matrix(axes, theta), expected, atol=1e-12)


def test_rotation_alpha_override():
    expected = expm(0.25j * 0.9 * pauli_product("Y"))
    np.testing.assert_allclose(rotation_matrix("Y", 0.9, alpha=0.25), expected, atol=1e-13)


def test_cached_pauli_product_is_read_only():
    p = pauli_product("XY")
    assert pauli_product("XY") is p
    with pytest.raises(ValueError):
        p[0, 0] = 2.0
    np.testing.assert_array_equal(p, np.kron(Y, X))


def test_phase_matrix():
    np.testing.assert_allclose(phase_matrix(np.pi / 2), np.diag([1, 1j]), atol=1e-15)


def test_kron_le_first_factor_on_low_bit():
    # index bit 0 belongs to the first factor
    np.testing.assert_array_equal(kron_le([X, Z]), np.kron(Z, X))
    np.testing.assert_array_equal(kron_le([H, Y, Z]), np.kron(Z, np.kron(Y, H)))


def test_invert_2x2_matches_numpy():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(invert_small_matrix(m), np.linalg.inv(m), atol=1e-12)


def test_invert_2x2_singular():
    with pytest.raises(ValueError, match="singular"):
        invert_small_matrix(np.array([[1, 1], [1, 1]], dtype=complex))


def test_invert_2x2_uses_pivot_rule():
    # judged by the smallest LU pivot, as a 4x4 is, not by |det| (1e-16 here)
    np.testing.assert_allclose(
        invert_small_matrix(np.diag([1e-8, 1e-8])), np.diag([1e8, 1e8]), rtol=1e-15
    )
    with pytest.raises(ValueError, match="min pivot"):
        invert_small_matrix(np.diag([1e-15, 1e3]))


@pytest.mark.parametrize("diagonal", [[1e-15, 0], [0, 1e-15], [1, 1e-15, 1, 0]])
def test_invert_reports_smallest_pivot(diagonal):
    with pytest.raises(ValueError, match=r"min pivot = 0\.000e\+00"):
        invert_small_matrix(np.diag(diagonal))


def test_invert_4x4_matches_numpy():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(invert_small_matrix(m), np.linalg.inv(m), atol=1e-12)


def test_invert_4x4_singular():
    m = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError, match="singular"):
        invert_small_matrix(m)


def test_invert_rejects_other_shapes():
    with pytest.raises(ValueError):
        invert_small_matrix(np.eye(3))

import numpy as np
import pytest

from qndprobe.operators import (
    build_spin_operators,
    build_stokes_operators,
    commutator,
)

ALL_F = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.5]


@pytest.mark.parametrize("f", ALL_F)
def test_commutation_relations(f):
    ops = build_spin_operators(f)
    assert np.max(np.abs(commutator(ops.jz, ops.jx) - 1j * ops.jy)) < 1e-12
    assert np.max(np.abs(commutator(ops.jy, ops.jz) - 1j * ops.jx)) < 1e-12
    assert np.max(np.abs(commutator(ops.jx, ops.jy) - 1j * ops.jxy)) < 1e-12


@pytest.mark.parametrize("f", ALL_F)
def test_jxy_matrix_identity(f):
    ops = build_spin_operators(f)
    eye = np.eye(ops.dim)
    expected = ops.fz @ (f * (f + 1) * eye - ops.fz @ ops.fz - 0.5 * eye)
    assert np.max(np.abs(ops.jxy - expected)) < 1e-12


@pytest.mark.parametrize("f", ALL_F)
def test_alignment_operators_match_spin_quadratics(f):
    ops = build_spin_operators(f)
    assert np.max(np.abs(ops.jx - (ops.fx @ ops.fx - ops.fy @ ops.fy) / 2)) < 1e-12
    assert np.max(np.abs(ops.jy - (ops.fx @ ops.fy + ops.fy @ ops.fx) / 2)) < 1e-12
    assert np.max(np.abs(ops.jz - ops.fz / 2)) == 0.0


@pytest.mark.parametrize("f", ALL_F)
def test_hermiticity_and_traces(f):
    ops = build_spin_operators(f)
    for op in (ops.fx, ops.fy, ops.fz, ops.jx, ops.jy, ops.jz, ops.jxy):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
    for op in (ops.fz, ops.jz, ops.jy, ops.jx):
        assert np.trace(op) == 0.0


def test_spin_half_quadratics_vanish_identically():
    ops = build_spin_operators(0.5)
    assert not ops.jx.any()
    assert not ops.jy.any()
    assert not ops.jxy.any()


def test_spin_one_jxy_equals_jz_exactly():
    ops = build_spin_operators(1.0)
    assert np.array_equal(ops.jxy, ops.jz)


def test_spin_one_fz_eigenvalues():
    ops = build_spin_operators(1.0)
    assert np.allclose(sorted(np.linalg.eigvalsh(ops.fz)), [-1.0, 0.0, 1.0])


def test_spin_one_jxy_diagonal_from_elementwise_formula():
    # independent oracle: evaluate m*(f(f+1) - m^2 - 1/2) on each eigenvalue
    f = 1.0
    expected = np.array([m * (f * (f + 1) - m * m - 0.5) for m in (1.0, 0.0, -1.0)])
    ops = build_spin_operators(f)
    assert np.allclose(np.diag(ops.jxy).real, expected, atol=1e-15)
    assert np.allclose(expected, [0.5, 0.0, -0.5])


def test_spin_builder_rejects_bad_input():
    with pytest.raises(ValueError):
        build_spin_operators(0.7)
    with pytest.raises(ValueError):
        build_spin_operators(0.0)
    with pytest.raises(ValueError):
        build_spin_operators(15.0)  # dimension 31 > default cap


def test_stokes_single_photon_is_half_pauli():
    st = build_stokes_operators(1)
    assert np.array_equal(st.sx, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert np.allclose(st.sy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-15)
    assert np.array_equal(st.sz, np.diag([0.5, -0.5]).astype(complex))


def test_stokes_two_photon_sz_diagonal():
    # oracle: enumerate (n_plus - n_minus)/2 over the basis n_plus = 2, 1, 0
    expected = [(n_plus - (2 - n_plus)) / 2 for n_plus in (2, 1, 0)]
    st = build_stokes_operators(2)
    assert np.allclose(np.diag(st.sz).real, expected)
    assert expected == [1.0, 0.0, -1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_stokes_commutators_and_extreme_sx(n):
    st = build_stokes_operators(n)
    assert np.max(np.abs(commutator(st.sx, st.sy) - 1j * st.sz)) < 1e-12
    assert np.max(np.abs(commutator(st.sy, st.sz) - 1j * st.sx)) < 1e-12
    eig = np.linalg.eigvalsh(st.sx)
    assert abs(eig.max() - n / 2) < 1e-12
    assert abs(eig.min() + n / 2) < 1e-12


def test_stokes_rejects_bad_photon_number():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            build_stokes_operators(bad)


def test_commutator_examples():
    ops1 = build_spin_operators(1.0)
    assert np.max(np.abs(commutator(ops1.jz, ops1.jx) - 1j * ops1.jy)) < 1e-12
    eye = np.eye(3, dtype=complex)
    assert np.max(np.abs(commutator(eye, ops1.jx))) == 0.0
    ops2 = build_spin_operators(2.0)
    assert np.max(np.abs(commutator(ops2.jx, ops2.jy) - 1j * ops2.jxy)) < 1e-12


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        commutator(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        commutator(np.ones((4, 2, 3)), np.ones((4, 2, 3)))
    with pytest.raises(ValueError):
        commutator(np.ones(3), np.ones(3))


def test_commutator_of_stacks_is_the_commutator_of_each_pair():
    ops = build_spin_operators(2.0)
    left, right = np.stack([ops.jz, ops.jy, ops.fx]), np.stack([ops.jx, ops.jz, ops.fy])
    stacked = commutator(left, right)
    assert stacked.shape == (3, 5, 5)
    for got, a, b in zip(stacked, left, right):
        assert np.max(np.abs(got - commutator(a, b))) <= 1e-14

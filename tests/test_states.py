import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loccdist as L
from loccdist import (
    NonFinite,
    NotUnitary,
    ShapeMismatch,
    ZeroState,
    apply_local_unitary,
    make_state,
    schmidt_decompose,
    schmidt_number,
)
from loccdist.ensemble import haar_unitary, random_state
from loccdist.states import unit_norm_slack

S2 = 1.0 / np.sqrt(2.0)


def test_make_state_normalizes_bell_input():
    s = make_state(2, 2, [[1, 0], [0, 1]], name="A1")
    assert np.allclose(s.amplitudes, [[S2, 0], [0, S2]], atol=1e-15)
    assert s.normalization == pytest.approx(np.sqrt(2.0))


def test_make_state_keeps_normalized_input():
    s = make_state(2, 2, [[1, 0], [0, 0]])
    assert np.array_equal(s.amplitudes, np.array([[1, 0], [0, 0]], dtype=complex))
    assert s.normalization == pytest.approx(1.0)


def test_make_state_rejects_zero_and_bad_shape():
    with pytest.raises(ZeroState):
        make_state(2, 2, [[0, 0], [0, 0]])
    with pytest.raises(ShapeMismatch):
        make_state(2, 3, [[1, 0], [0, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_make_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NonFinite):
        make_state(2, 2, [[bad, 0], [0, 1]])


def test_make_state_scales_finite_entries_whose_norm_overflows():
    # 1e200 squared overflows, yet every entry is finite; the rescaling path
    # must not let numpy warn about the overflow either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = make_state(2, 2, [[1e200, 1e200], [0, 0]])
        assert np.allclose(s.amplitudes, [[1 / np.sqrt(2), 1 / np.sqrt(2)], [0, 0]])
        assert s.normalization == pytest.approx(np.sqrt(2) * 1e200)
        again = make_state(2, 2, s.amplitudes)
        assert np.array_equal(again.amplitudes, s.amplitudes)
        assert again.normalization == 1.0
        with pytest.raises(NonFinite):
            make_state(2, 2, [[1e200, np.inf], [0, 0]])


@pytest.mark.parametrize("tiny", [1e-13, 1e-200, 5e-324])
def test_make_state_scales_finite_entries_whose_norm_is_tiny(tiny):
    # unnormalized input is normalized, down to the least subnormal: a norm
    # below 1e-12 is first divided by the largest real or imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = make_state(2, 2, [[tiny, 0], [0, -tiny * 1j]])
        assert np.allclose(s.amplitudes, [[1 / np.sqrt(2), 0], [0, -1j / np.sqrt(2)]],
                           rtol=0, atol=1e-15)
        assert s.normalization == pytest.approx(np.sqrt(2) * tiny, rel=1e-15, abs=0)
        again = make_state(2, 2, s.amplitudes)
        assert np.array_equal(again.amplitudes, s.amplitudes)
        assert again.normalization == 1.0
        one = make_state(2, 2, [[0, 0], [tiny, 0]])
        assert np.array_equal(one.amplitudes, [[0, 0], [1, 0]])
        assert one.normalization == tiny
        with pytest.raises(ZeroState):
            make_state(2, 2, [[0.0, -0.0], [0j, -0j]])


def test_state_is_immutable():
    s = make_state(2, 2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        s.amplitudes[0, 0] = 5.0


def test_schmidt_bell_state():
    dec = schmidt_decompose(L.bell_states()[0])
    assert dec.schmidt_number == 2
    assert np.allclose(dec.weights, [0.5, 0.5])


def test_schmidt_product_state():
    dec = schmidt_decompose(make_state(2, 2, [[1, 0], [0, 0]]))
    assert dec.schmidt_number == 1
    assert dec.weights == (pytest.approx(1.0),)


def test_schmidt_weights_match_2x2_eigenvalue_oracle():
    # the 2x2 block of the third six4x4 state: weights are the eigenvalues of
    # (1/3) M M^T for M = [[0, 1], [1, -1]], i.e. (3 +- sqrt(5)) / 6
    m = np.array([[0.0, 1.0], [1.0, -1.0]])
    gram = m @ m.T / 3.0
    tr, det = np.trace(gram), np.linalg.det(gram)
    disc = np.sqrt(tr * tr - 4 * det)
    oracle = sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)
    assert oracle == [pytest.approx((3 + np.sqrt(5)) / 6),
                      pytest.approx((3 - np.sqrt(5)) / 6)]
    dec = schmidt_decompose(make_state(2, 2, m))
    assert dec.schmidt_number == 2
    assert np.allclose(dec.weights, oracle, atol=1e-12)


def test_schmidt_decomposition_invariants():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_state(3, 4, rng)
        dec = schmidt_decompose(s)
        assert abs(sum(dec.weights) - 1.0) <= 1e-10
        assert np.linalg.norm(dec.reconstruct() - s.amplitudes) <= 1e-10
        assert np.allclose(dec.alice_vectors @ dec.alice_vectors.conj().T,
                           np.eye(dec.schmidt_number), atol=1e-10)
        assert np.allclose(dec.bob_vectors @ dec.bob_vectors.conj().T,
                           np.eye(dec.schmidt_number), atol=1e-10)
        assert dec.schmidt_number <= 3


def test_schmidt_number_examples():
    assert schmidt_number(L.bell_states()[3]) == 2
    assert schmidt_number(L.canned_example("six4x4").state("psi4")) == 1


def test_schmidt_number_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    a1 = L.bell_states()[0]
    for _ in range(20):
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        rotated = apply_local_unitary(a1, u, v)
        # oracle: local unitaries preserve the singular values themselves
        assert np.allclose(np.linalg.svd(rotated.amplitudes, compute_uv=False),
                           np.linalg.svd(a1.amplitudes, compute_uv=False),
                           atol=1e-12)
        assert schmidt_number(rotated) == 2


def test_apply_local_unitary_identity_and_flip():
    s00 = make_state(2, 2, [[1, 0], [0, 0]], name="s")
    eye = np.eye(2)
    assert np.allclose(apply_local_unitary(s00, eye, eye).amplitudes, s00.amplitudes)
    xflip = np.array([[0, 1], [1, 0]])
    assert np.allclose(apply_local_unitary(s00, xflip, eye).amplitudes,
                       [[0, 0], [1, 0]])


def test_hadamard_pair_fixes_first_bell_state():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    a1 = L.bell_states()[0]
    expected = h @ (np.eye(2) / np.sqrt(2)) @ h.T  # explicit matrix product
    assert np.allclose(expected, a1.amplitudes, atol=1e-15)
    assert np.allclose(apply_local_unitary(a1, h, h).amplitudes, a1.amplitudes,
                       atol=1e-12)


def test_apply_local_unitary_rejects_nonunitary():
    s = L.bell_states()[0]
    with pytest.raises(NotUnitary):
        apply_local_unitary(s, np.array([[1, 1], [0, 1]]), np.eye(2))
    # a NaN deviation is not within the tolerance, so it must not pass
    with pytest.raises(NotUnitary, match=r"u_a is not unitary \(deviation nan\)"):
        apply_local_unitary(s, [[np.nan, 0], [0, 1]], np.eye(2))
    with pytest.raises(NotUnitary, match=r"u_b has shape \(3, 3\), expected \(2, 2\)"):
        apply_local_unitary(s, np.eye(2), np.eye(3))


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_schmidt_number_bounded_by_min_dim(seed, dim_a, dim_b):
    s = random_state(dim_a, dim_b, np.random.default_rng(seed))
    assert 1 <= schmidt_number(s) <= min(dim_a, dim_b)


@given(st.integers(min_value=0, max_value=10_000))
def test_renormalizing_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    once = make_state(3, 2, raw)
    twice = make_state(3, 2, once.amplitudes)
    assert twice.normalization == pytest.approx(1.0)
    assert np.allclose(once.amplitudes, twice.amplitudes)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.floats(min_value=-6.0, max_value=6.0))
def test_make_state_is_bitwise_fixed_point(seed, dim_a, dim_b, log_scale):
    rng = np.random.default_rng(seed)
    raw = 10.0 ** log_scale * (rng.standard_normal((dim_a, dim_b))
                               + 1j * rng.standard_normal((dim_a, dim_b)))
    once = make_state(dim_a, dim_b, raw)
    twice = make_state(dim_a, dim_b, once.amplitudes)
    assert np.array_equal(twice.amplitudes, once.amplitudes)
    assert twice.normalization == 1.0
    assert abs(once.norm - 1.0) <= unit_norm_slack(dim_a * dim_b)

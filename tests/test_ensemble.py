import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loccdist as L
from loccdist import (
    DimensionMismatch,
    EmptyEnsemble,
    LoccdistError,
    NonFinite,
    NotOrthogonal,
    TooManyStates,
    UnknownExample,
    canned_example,
    make_ensemble,
    make_state,
    random_ensemble,
    schmidt_number,
)
from loccdist.cli import ensemble_to_dict
from loccdist.ensemble import overlaps


def gram_deviation(e):
    """Largest ``|G - I|`` entry of the Gram matrix ``G`` of ``e``'s states:
    off the diagonal the ``overlaps``, on it the norms."""
    flat = e.amplitudes.reshape(e.m, -1)
    return max(overlaps(flat).max(), np.abs(np.linalg.norm(flat, axis=1) ** 2 - 1).max())


def test_make_ensemble_bell4():
    e = make_ensemble(L.bell_states())
    assert e.m == 4 and e.dims == (2, 2)
    assert e.labels == ("A1", "A2", "A3", "A4")
    assert e.max_overlap <= 1e-12


def test_make_ensemble_duplicate_state_rejected():
    s = make_state(2, 2, [[1, 0], [0, 0]], name="x")
    t = make_state(2, 2, [[1, 0], [0, 0]], name="y")
    with pytest.raises(NotOrthogonal) as err:
        make_ensemble([s, t])
    assert err.value.overlap == pytest.approx(1.0)
    assert err.value.pair == ("x", "y")


def test_make_ensemble_errors():
    with pytest.raises(EmptyEnsemble):
        make_ensemble([])
    with pytest.raises(DimensionMismatch):
        make_ensemble([make_state(2, 2, [[1, 0], [0, 0]]),
                       make_state(2, 3, [[0, 1, 0], [0, 0, 0]])])
    basis = [make_state(2, 2, np.eye(4)[k].reshape(2, 2)) for k in range(4)]
    extra = make_state(2, 2, [[1, 1], [1, 1]])
    with pytest.raises(TooManyStates):
        make_ensemble(basis + [extra])
    with pytest.raises(LoccdistError, match="duplicate state label 'x'"):
        make_ensemble([make_state(2, 2, [[1, 0], [0, 0]], name="x"),
                       make_state(2, 2, [[0, 1], [0, 0]], name="x")])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_ensemble_rejects_a_non_finite_member(bad):
    # a state built directly skips make_state's check; its overlaps are NaN,
    # which no "> tol" test catches, and a single state has no overlap at all
    ok = make_state(2, 2, [[1, 0], [0, 0]], name="ok")
    broken = L.BipartiteState(2, 2, np.array([[0, 0], [0, bad]]), name="broken")
    for states in ([ok, broken], [broken]):
        with pytest.raises(NonFinite, match="state 'broken' has non-finite amplitudes"):
            make_ensemble(states)


def test_six4x4_all_pairwise_overlaps_vanish_by_direct_expansion(six4x4):
    for i in range(6):
        for j in range(i + 1, 6):
            brute = 0.0 + 0.0j
            for x in range(4):
                for y in range(4):
                    brute += (np.conj(six4x4.states[i].amplitudes[x, y])
                              * six4x4.states[j].amplitudes[x, y])
            assert abs(brute) < 1e-15


def test_amplitudes_are_one_read_only_stack_of_the_states(six4x4):
    stack = six4x4.amplitudes
    assert stack is six4x4.amplitudes
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 5.0
    assert stack.dtype == np.complex128 and stack.shape == (6, 4, 4)
    assert stack.tobytes() == np.array([s.amplitudes for s in six4x4.states]).tobytes()


def test_gram_matrix_identity_cases(bell4, six4x4):
    assert gram_deviation(bell4) <= 1e-12 and bell4.max_overlap <= 1e-12
    assert gram_deviation(six4x4) <= 1e-12 and six4x4.max_overlap <= 1e-12
    single = make_ensemble([make_state(2, 2, [[1, 0], [0, 0]])])
    assert gram_deviation(single) == 0.0 and single.max_overlap == 0.0


def test_canned_example_names_and_coefficients():
    assert canned_example("bell3").m == 3
    assert canned_example("bell2").m == 2
    assert canned_example("domino9").m == 9

    six = canned_example("six4x4")
    s3 = 1 / np.sqrt(3)
    psi3 = six.state("psi3").amplitudes
    assert psi3[0, 1] == pytest.approx(s3)
    assert psi3[1, 0] == pytest.approx(s3)
    assert psi3[1, 1] == pytest.approx(-s3)
    assert six.state("psi2").normalization == pytest.approx(np.sqrt(2))
    assert six.state("psi5").normalization == pytest.approx(np.sqrt(2))
    assert six.state("psi6").normalization == pytest.approx(np.sqrt(3))

    with pytest.raises(UnknownExample):
        canned_example("nosuch")


def test_domino9_is_a_product_basis(domino9):
    assert all(schmidt_number(s) == 1 for s in domino9.states)
    assert gram_deviation(domino9) <= 1e-12


def test_random_ensemble_product_basis_has_rank_one_members():
    e = random_ensemble(2, 2, 4, seed=5, kind="product-basis")
    assert [schmidt_number(s) for s in e.states] == [1, 1, 1, 1]


def test_random_ensemble_haar_is_orthonormal():
    e = random_ensemble(2, 2, 4, seed=5, kind="haar-orthogonal")
    assert gram_deviation(e) <= 1e-10


def test_random_ensemble_unknown_kind():
    with pytest.raises(LoccdistError, match="unknown random-ensemble kind 'bogus'"):
        random_ensemble(2, 2, 2, seed=0, kind="bogus")


def test_random_ensemble_too_many():
    with pytest.raises(TooManyStates):
        random_ensemble(2, 2, 5, seed=0)


@pytest.mark.parametrize("kind", L.ensemble.RANDOM_KINDS)
@pytest.mark.parametrize("m", [0, -1])
def test_random_ensemble_too_few(kind, m):
    with pytest.raises(EmptyEnsemble):
        random_ensemble(2, 2, m, seed=0, kind=kind)


@given(st.integers(min_value=0, max_value=10_000))
def test_random_ensemble_reproducible_byte_identical(seed):
    a = random_ensemble(2, 3, 3, seed=seed, kind="haar-orthogonal")
    b = random_ensemble(2, 3, 3, seed=seed, kind="haar-orthogonal")
    assert json.dumps(ensemble_to_dict(a)) == json.dumps(ensemble_to_dict(b))


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["product-basis", "haar-orthogonal"]))
def test_random_ensemble_gram_is_identity(seed, kind):
    e = random_ensemble(2, 2, 3, seed=seed, kind=kind)
    assert gram_deviation(e) <= 1e-8

import numpy as np
import pytest

import graphevolve as ge


def test_mu_values():
    assert ge.mu(ge.constant(4.0), 0.3) == pytest.approx(2.0)
    assert ge.mu(ge.quadratic_square(1.0, 1.0), 1.0) == pytest.approx(2.0)
    assert ge.mu(ge.constant(1.0), 0.77) == pytest.approx(1.0)


def test_mu_domain_error():
    with pytest.raises(ge.DomainError):
        ge.mu(ge.quadratic_square(1.0, 1.0), 1.5)
    with pytest.raises(ge.DomainError):
        ge.mu(ge.constant(1.0), -0.1)


def test_internal_transform_identity():
    tr = ge.internal_transform(ge.constant(1.0))
    assert tr.cbar == pytest.approx(1.0)
    assert tr.phi(0.5) == pytest.approx(0.5)


def test_internal_transform_constant_four():
    tr = ge.internal_transform(ge.constant(4.0))
    assert tr.cbar == pytest.approx(2.0)
    assert tr.phi(0.8) == pytest.approx(0.4)


def test_internal_transform_log_profile():
    tr = ge.internal_transform(ge.quadratic_square(1.0, 1.0), quad_panels=64)
    assert abs(tr.phi_end - np.log(2.0)) <= 1e-8
    assert abs(tr.cbar - 1.0 / np.log(2.0)) <= 1e-8
    assert tr.phi(0.5) == pytest.approx(np.log(1.5), abs=1e-8)


def test_external_transform_examples():
    tr = ge.external_transform(ge.constant(1.0), 10.0)
    assert tr.phi(7.0) == pytest.approx(7.0)
    tr2 = ge.external_transform(ge.constant(0.25), 3.0)
    assert tr2.phi(1.5) == pytest.approx(3.0)


def test_external_epsilon_violation():
    with pytest.raises(ge.NonPositiveCoefficientError):
        ge.EdgeCoefficients((), (ge.constant(1e-12),), epsilon=1e-8)


@pytest.mark.parametrize("epsilon", [0.0, float("nan"), -1.0, 1.0, 2.0, float("inf")])
@pytest.mark.parametrize("with_lead", [True, False])
def test_epsilon_outside_unit_interval_rejected(epsilon, with_lead):
    """0 < epsilon < 1 is required, whether or not an external edge uses it."""
    external = (ge.constant(1.0),) if with_lead else ()
    with pytest.raises(ge.NonPositiveCoefficientError, match="epsilon"):
        ge.EdgeCoefficients((ge.constant(1.0),), external, epsilon=epsilon)


def test_nonpositive_profile_rejected():
    with pytest.raises(ge.NonPositiveCoefficientError):
        ge.internal_transform(ge.sampled([1.0, -0.5, 1.0]))
    with pytest.raises(ge.NonPositiveCoefficientError):
        ge.internal_transform(ge.quadratic_square(1.0, -2.0))  # mu changes sign


@pytest.mark.parametrize("profile", [
    ge.constant(float("nan")), ge.constant(float("inf")), ge.sampled([1.0, float("nan"), 1.0]),
    ge.quadratic_square(float("nan"), 0.5)], ids=["nan", "inf", "sampled-nan", "quadratic-nan"])
@pytest.mark.parametrize("external", [False, True])
def test_non_finite_profile_rejected(profile, external):
    profiles = ((profile,), ()) if not external else ((), (profile,))
    with pytest.raises(ge.NonPositiveCoefficientError, match="finite"):
        ge.EdgeCoefficients(*profiles)


def test_cbar_times_phi1_is_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        prof = ge.quadratic_square(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
        tr = ge.internal_transform(prof)
        assert tr.cbar * tr.phi_end == pytest.approx(1.0, rel=1e-15)
        assert tr.phibar(1.0) == pytest.approx(1.0, rel=1e-12)


def test_phi_monotone_random_pairs():
    rng = np.random.default_rng(9)
    tr = ge.internal_transform(ge.quadratic_square(1.3, 0.8))
    for _ in range(100):
        s1, s2 = sorted(rng.uniform(0.0, 1.0, 2))
        if s1 < s2:
            assert tr.phi(s1) < tr.phi(s2)


def test_inverse_round_trip():
    tr = ge.internal_transform(ge.quadratic_square(1.0, 1.0))
    for s in np.linspace(0.05, 0.95, 7):
        assert tr.phi_inverse(tr.phi(s)) == pytest.approx(s, abs=1e-10)


def test_simpson_fourth_order():
    exact = np.log(2.0)
    prof = ge.quadratic_square(1.0, 1.0)
    e1 = abs(ge.internal_transform(prof, quad_panels=8).phi_end - exact)
    e2 = abs(ge.internal_transform(prof, quad_panels=16).phi_end - exact)
    assert e1 / e2 >= 8.0


def test_mu_squared_matches_lambda():
    prof = ge.quadratic_square(1.1, 0.6)
    s = np.linspace(0.0, 1.0, 33)
    assert np.allclose(np.asarray(ge.mu(prof, s)) ** 2, prof(s), rtol=1e-14)


def test_length_validation():
    coeffs = ge.unit_coefficients(2, 1)
    with pytest.raises(ge.DimensionMismatchError):
        coeffs.validate_against(3, 1)


@pytest.mark.parametrize("panels", [0, 1, -3])
def test_transform_factories_refuse_too_few_panels(panels):
    with pytest.raises(ValueError, match=r"^quad_panels must be >= 2$"):
        ge.internal_transform(ge.constant(1.0), quad_panels=panels)
    with pytest.raises(ValueError, match=r"^quad_panels must be >= 2$"):
        ge.external_transform(ge.constant(1.0), 2.0, quad_panels=panels)


def test_unit_length_external_transform_equals_internal():
    prof = ge.quadratic_square(1.2, 0.7)
    internal = ge.internal_transform(prof, quad_panels=32)
    external = ge.external_transform(prof, 1.0, quad_panels=32)
    assert internal == external
    assert external.phi_inverse(0.3) == internal.phi_inverse(0.3)


def test_phi_takes_an_argument_within_its_slack_onto_the_edge():
    tr = ge.internal_transform(ge.quadratic_square(1, 0.5))
    assert tr.phi(-5e-13) == 0.0
    assert tr.phi(tr.length * (1.0 + 5e-13)) == tr.phi_end
    assert tr.phi(tr.length) == tr.phi_end
    with pytest.raises(ge.DomainError):
        tr.phi(-2e-12)

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphevolve as ge

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_out_scipy_integrate_and_special():
    code = ("import sys, graphevolve.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [5, 101, 4001])
def test_custom_samples_antiderivative_matches_scipy_bitwise(n):
    from scipy.integrate import cumulative_trapezoid

    values = np.random.default_rng(n).standard_normal(n)
    prof = ge.custom_samples(values, length=1.7)
    grid = np.linspace(0.0, 1.7, n)
    expected = cumulative_trapezoid(values, grid, initial=0.0)
    assert np.array_equal(prof.antiderivative(grid), expected)


def test_gaussian_antiderivative_matches_scipy_erf():
    from scipy.special import erf

    from graphevolve.initial import _erf

    x = np.linspace(-40.0, 40.0, 20001)
    assert np.all(np.abs(_erf(x) - erf(x)) <= 1e-15 * np.abs(erf(x)))

    prof = ge.gaussian(0.3, 0.07, amplitude=2.5)
    s = np.linspace(0.0, 1.0, 1001)
    c = 2.5 * 0.07 * np.sqrt(np.pi / 2.0)
    z = (s - 0.3) / (np.sqrt(2.0) * 0.07)
    z0 = -0.3 / (np.sqrt(2.0) * 0.07)
    expected = c * (erf(z) - erf(z0))
    # relative to the profile's scale: erf(z) - erf(z0) cancels near s = 0
    assert np.max(np.abs(prof.antiderivative(s) - expected)) <= 1e-15 * np.max(expected)


@pytest.mark.parametrize("length", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("equation", ["heat", "wave"])
def test_init_refuses_an_external_length_that_is_not_finite_and_positive(equation, length):
    g = ge.MetricGraph(3, [(0, 1), (0, 2)], [0])
    coeffs = ge.unit_coefficients(2, 1)
    zero = ge.EdgeInitial(ge.zero_profile())
    init = ge.InitialData((zero, zero), (zero,))
    with pytest.raises(ge.DomainError) as info:
        if equation == "heat":
            ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, dt=0.01,
                         external_lengths=(length,))
        else:
            ge.wave_init(g, coeffs, ge.from_standard(g, coeffs), init, dt_target=0.01, T=0.1,
                         external_lengths=(length,))
    assert str(info.value) == f"external edge 0: length {length!r} is not finite and > 0"


@pytest.mark.parametrize("value", [-0.1, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["heat dt", "wave dt_target", "wave T"])
def test_init_refuses_a_time_step_or_end_time_that_is_not_finite_and_positive(name, value):
    g = ge.MetricGraph(3, [(0, 1), (0, 2)], [0])
    coeffs = ge.unit_coefficients(2, 1)
    zero = ge.EdgeInitial(ge.zero_profile())
    init = ge.InitialData((zero, zero), (zero,))
    equation, arg = name.split()
    with pytest.raises(ge.DomainError) as info:
        if equation == "heat":
            ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, dt=value,
                         external_lengths=(1.0,))
        else:
            times = {"dt_target": 0.01, "T": 0.1, arg: value}
            ge.wave_init(g, coeffs, ge.from_standard(g, coeffs), init,
                         external_lengths=(1.0,), **times)
    assert str(info.value) == f"{arg} {value!r} is not finite and > 0"


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_wave_init_refuses_a_snap_tol_that_is_not_finite_and_non_negative(value):
    g = ge.MetricGraph(3, [(0, 1), (0, 2)], [0])
    coeffs = ge.unit_coefficients(2, 1)
    zero = ge.EdgeInitial(ge.zero_profile())
    init = ge.InitialData((zero, zero), (zero,))
    bc = ge.from_standard(g, coeffs)
    with pytest.raises(ge.DomainError) as info:
        ge.wave_init(g, coeffs, bc, init, dt_target=0.01, T=0.1, snap_tol=value,
                     external_lengths=(1.0,))
    assert str(info.value) == f"snap_tol {value!r} is not finite and >= 0"
    # 0 stays valid: these unit speeds snap exactly
    ge.wave_init(g, coeffs, bc, init, dt_target=0.01, T=0.1, snap_tol=0.0,
                 external_lengths=(1.0,))

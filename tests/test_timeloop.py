import pytest

import graphevolve as ge
import graphevolve.heat
import graphevolve.wave
from conftest import dirichlet_interval_bc


def interval_state(equation):
    g = ge.MetricGraph(2, [(0, 1)])
    init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
    if equation == "wave":
        return ge.wave_init(g, ge.unit_coefficients(1), dirichlet_interval_bc(), init,
                            dt_target=0.01, T=0.1)
    return ge.heat_init(g, ge.unit_coefficients(1), dirichlet_interval_bc(), init,
                        dt=0.01, n_per_edge=20)


@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_run_looks_up_step_and_diagnostics_at_call_time(monkeypatch, equation):
    module = getattr(graphevolve, equation)
    calls = []
    for name in (f"{equation}_step", "energy", "mass"):
        original = getattr(module, name)

        def counted(state, _original=original, _name=name):
            calls.append(_name)
            return _original(state)

        monkeypatch.setattr(module, name, counted)
    run = getattr(ge, f"{equation}_run")
    state = interval_state(equation)
    state, diag, snapshots = run(state, 7 * state.dt, record_stride=3)
    # records: step 0, 3, 6 and the last step 7
    assert calls.count(f"{equation}_step") == 7
    assert calls.count("energy") == calls.count("mass") == 4
    assert diag.times == pytest.approx([0.0, 3 * state.dt, 6 * state.dt, 7 * state.dt])
    assert [snap[0] for snap in snapshots] == diag.times
    assert len(snapshots[0]) == (3 if equation == "wave" else 2)


@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_run_refuses_time_off_the_step_grid(equation):
    run = getattr(ge, f"{equation}_run")
    state = interval_state(equation)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        run(state, 6.5 * state.dt)


import copy

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

        def counted(state, *steps, _original=original, _name=name):
            calls.append((_name, *steps))
            return _original(state, *steps)

        monkeypatch.setattr(module, name, counted)
    run = getattr(ge, f"{equation}_run")
    state = interval_state(equation)
    state, diag, snapshots = run(state, 7 * state.dt, record_stride=3)
    # records: step 0, 3, 6 and the last step 7; one step call per record interval
    advanced = [call[1] for call in calls if call[0] == f"{equation}_step"]
    assert advanced == [3, 3, 1] and state.step_count == sum(advanced) == 7
    assert calls.count(("energy",)) == calls.count(("mass",)) == 4
    assert diag.times == pytest.approx([0.0, 3 * state.dt, 6 * state.dt, 7 * state.dt])
    assert [snap[0] for snap in snapshots] == diag.times
    assert len(snapshots[0]) == (3 if equation == "wave" else 2)


@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_run_refuses_time_off_the_step_grid(equation):
    run = getattr(ge, f"{equation}_run")
    state = interval_state(equation)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        run(state, 6.5 * state.dt)


def test_run_refuses_a_record_stride_below_one():
    state = interval_state("wave")
    with pytest.raises(ValueError, match="record_stride"):
        ge.wave_run(state, 7 * state.dt, record_stride=0)


def test_heat_steps_one_after_the_other():
    state = interval_state("heat")
    single = copy.deepcopy(state)
    ge.heat_step(state, 5)
    for _ in range(5):
        ge.heat_step(single)
    assert state.u.tobytes() == single.u.tobytes()
    assert (state.step_count, state.t) == (single.step_count, single.t) == (5, 5 * state.dt)

"""The time loop shared by the wave and heat propagators.

The loop advances from record to record: one ``step(state, n)`` call moves
the state over the n steps up to the next record.  ``wave_run`` and
``heat_run`` pass their step, energy and mass functions on each call, so
rebinding those module names (as a tracer does) still takes effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    times: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)

    def record(self, t: float, e: float, m: float) -> None:
        self.times.append(t)
        self.energy.append(e)
        self.mass.append(m)


def run(state, T: float, record_stride: int, step, snapshot, energy, mass):
    """Step `state` until time T; return (state, diagnostics, snapshots).

    The initial state, every record_stride-th step and the final state are
    recorded: ``snapshot(state)`` is appended to the snapshots, then
    (t, energy, mass) to the diagnostics.  ``step(state, n)`` advances n steps.
    """
    if record_stride < 1:
        raise ValueError("record_stride must be a positive integer")
    steps = round(T / state.dt)
    if abs(steps * state.dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    diag = Diagnostics()
    snapshots = []

    def record():
        snapshots.append(snapshot(state))
        diag.record(state.t, energy(state), mass(state))

    record()
    for k in range(0, steps, record_stride):
        step(state, min(record_stride, steps - k))
        record()
    return state, diag, snapshots

"""Fixed-step RK4 trajectories of vector fields (float arithmetic).

The flow integrator is deliberately plain: classical fourth-order
Runge-Kutta with a fixed step, torus coordinates wrapped mod 1.  It feeds
the invariance harness, where the quantity of interest is a residual along
the trajectory, not a high-accuracy endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FlowEscapeError
from .fields import VectorField

# a plane trajectory past this coordinate has escaped
ESCAPE_BOUND = 1e9


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    step: float

    @property
    def endpoint(self) -> tuple[float, float]:
        return self.points[-1]


def flow_integrate(
    field: VectorField,
    p0: tuple[float, float],
    t1: float,
    h: float,
) -> Trajectory:
    """Integrate the field flow from p0 over [0, t1] with fixed step h.

    The step count is n = round(t1/h) (at least 1) and the effective step
    t1/n, so the trajectory lands exactly on t1.  Raises FlowEscapeError
    when a sample is not finite or, on the plane, leaves the square
    |x|, |y| <= ESCAPE_BOUND, and when a stage overflows.
    """
    if not 0 < h < math.inf:  # NaN fails this too
        raise ValueError(f"step must be positive and finite, not {h}")
    if t1 <= 0:
        raise ValueError("t1 must be positive; integrate -F for backward time")
    n = max(1, round(t1 / h))
    dt = t1 / n
    wrap = field.domain == "torus"
    x, y = float(p0[0]), float(p0[1])
    if wrap:
        x, y = x % 1.0, y % 1.0
    times = [0.0]
    points = [(x, y)]
    f = field.eval_float
    for k in range(1, n + 1):
        try:
            k1x, k1y = f(x, y)
            k2x, k2y = f(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
            k3x, k3y = f(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
            k4x, k4y = f(x + dt * k3x, y + dt * k3y)
        except OverflowError:  # a float power past the float range
            raise FlowEscapeError(f"trajectory escaped at t={k * dt:g}") from None
        x += dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6
        y += dt * (k1y + 2 * k2y + 2 * k3y + k4y) / 6
        if not (math.isfinite(x) and math.isfinite(y)) or not wrap and max(abs(x), abs(y)) > ESCAPE_BOUND:
            raise FlowEscapeError(f"trajectory escaped at t={k * dt:g}")
        if wrap:
            x, y = x % 1.0, y % 1.0
        times.append(k * dt)
        points.append((x, y))
    return Trajectory(tuple(times), tuple(points), dt)


def endpoint_error(
    field: VectorField,
    p0: tuple[float, float],
    t1: float,
    h: float,
    exact: tuple[float, float],
) -> float:
    traj = flow_integrate(field, p0, t1, h)
    ex, ey = traj.endpoint
    return math.hypot(ex - exact[0], ey - exact[1])


def rk4_convergence_ratio(
    field: VectorField,
    p0: tuple[float, float],
    t1: float,
    h: float,
    exact: tuple[float, float],
) -> float:
    """Endpoint error ratio under h -> h/2; close to 16 for a fourth-order
    scheme as long as both errors sit above rounding noise."""
    e1 = endpoint_error(field, p0, t1, h, exact)
    e2 = endpoint_error(field, p0, t1, h / 2, exact)
    if e2 == 0:
        raise ArithmeticError("refined error vanished; step too small for the ratio test")
    return e1 / e2

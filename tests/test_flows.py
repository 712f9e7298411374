import math

import pytest

from vfzero import (
    FlowEscapeError,
    flow_integrate,
    parse_field,
    rk4_convergence_ratio,
)


class TestFlowIntegrate:
    def test_rotation_quarter_turn(self):
        field = parse_field("(-y, x)")
        traj = flow_integrate(field, (1.0, 0.0), math.pi / 2, 1e-3)
        ex, ey = traj.endpoint
        assert math.hypot(ex - 0.0, ey - 1.0) < 1e-6

    def test_zero_field_constant(self):
        from vfzero import VectorField

        traj = flow_integrate(VectorField.zero("plane"), (0.3, -0.7), 1.0, 1e-2)
        assert all(p == (0.3, -0.7) for p in traj.points)

    def test_radial_field_exponential(self):
        field = parse_field("(x, y)")
        traj = flow_integrate(field, (1.0, 1.0), 1.0, 1e-3)
        ex, ey = traj.endpoint
        assert abs(ex - math.e) < 1e-6 and abs(ey - math.e) < 1e-6

    def test_times_strictly_increasing(self):
        field = parse_field("(-y, x)")
        traj = flow_integrate(field, (1.0, 0.0), 0.5, 1e-2)
        assert all(t1 < t2 for t1, t2 in zip(traj.times, traj.times[1:]))

    def test_steps_bounded_by_field_magnitude(self):
        # rotation has unit speed on the unit circle
        field = parse_field("(-y, x)")
        traj = flow_integrate(field, (1.0, 0.0), 1.0, 1e-2)
        for (x1, y1), (x2, y2) in zip(traj.points, traj.points[1:]):
            assert math.hypot(x2 - x1, y2 - y1) <= 1.05 * traj.step

    def test_escape_raises(self):
        field = parse_field("(x, y)")
        # x = e^t leaves the square |x|, |y| <= 1e9 near t = ln(1e9) = 20.7
        with pytest.raises(FlowEscapeError, match=r"escaped at t=20\.7"):
            flow_integrate(field, (1.0, 1.0), 30.0, 1e-2)
        # x' = x^17 blows up near t = 0.049: x^17 of an RK4 stage point
        # overflows the float range before a sample leaves the bound
        with pytest.raises(FlowEscapeError):
            flow_integrate(parse_field("(x^17, 0)"), (1.015625, 0.0), 1.0, 1e-3)

    def test_torus_wrap(self):
        field = parse_field("(1 + 0*sin2px, 0)", "torus")
        traj = flow_integrate(field, (0.9, 0.5), 0.5, 1e-2)
        ex, ey = traj.endpoint
        assert abs(ex - 0.4) < 1e-9 and ey == 0.5
        assert all(0 <= p[0] < 1 for p in traj.points)

    def test_backward_time_rejected(self):
        field = parse_field("(x, y)")
        with pytest.raises(ValueError):
            flow_integrate(field, (1.0, 0.0), -1.0, 1e-2)


class TestRk4Order:
    def test_rotation_error_ratio_near_sixteen(self):
        field = parse_field("(-y, x)")
        ratio = rk4_convergence_ratio(field, (1.0, 0.0), math.pi / 2, 0.05, (0.0, 1.0))
        assert 8.0 < ratio < 32.0

"""Projection examples and the projection-identity property suite."""

import numpy as np
import pytest

from qvi import (
    Box,
    HalfSpaceRelaxedL1Ball,
    ProjectionContext,
    project,
    project_box,
    project_relaxed_l1,
)
from qvi.geometry import relaxed_l1_step

PROP_TOL = 1e-12
HALFSPACE_TOL = 1e-10


def test_box_project_point_already_inside():
    out = project_box([0.36], [-1.0], [1.0])
    np.testing.assert_array_equal(out, [0.36])


def test_box_project_clamps_against_brute_force():
    # independent oracle: minimize |y - 4| over a fine grid of [-1, 1]
    grid = np.linspace(-1.0, 1.0, 200_001)
    oracle = grid[np.argmin(np.abs(grid - 4.0))]
    out = project_box([4.0], [-1.0], [1.0])
    assert out[0] == 1.0
    assert abs(out[0] - oracle) <= 1e-12


def test_box_project_one_sided_ray():
    out = project_box([-0.5], [0.0], [np.inf])
    assert out[0] == 0.0


def test_box_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project_box([1.0, 2.0], [0.0], [1.0])


def test_box_invalid_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


@pytest.mark.parametrize(
    "lo, hi, bound",
    [
        (np.nan, 1.0, "lo"),
        (0.0, np.nan, "hi"),
        ([0.0, np.nan], [1.0, 1.0], "lo"),
        (np.inf, np.inf, "lo"),
        (-np.inf, -np.inf, "hi"),
    ],
)
def test_box_rejects_nan_and_empty_infinite_bounds(lo, hi, bound):
    with pytest.raises(ValueError, match=f"box bound {bound} "):
        Box(lo, hi)


def test_relaxed_l1_passthrough():
    # c = -1 < 0 = <tau, anchor - x> so x is already in the halfspace
    ctx = ProjectionContext(np.zeros(2))
    out = project_relaxed_l1([0.3, -0.2], ctx, 1.0)
    np.testing.assert_array_equal(out, [0.3, -0.2])


def test_relaxed_l1_hand_values():
    ctx = ProjectionContext([2.0, 0.0])
    np.testing.assert_allclose(
        project_relaxed_l1([2.0, 0.0], ctx, 1.0), [1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        project_relaxed_l1([3.0, 1.0], ctx, 1.0), [1.0, 1.0], atol=1e-15
    )


def test_relaxed_l1_dimension_mismatch():
    with pytest.raises(ValueError):
        project_relaxed_l1([1.0], ProjectionContext([1.0, 2.0]), 1.0)


def test_relaxed_l1_zero_subgradient_guard():
    # only reachable with a negative radius: anchor 0 makes c = -omega
    anchor = np.array([0.0])
    with pytest.raises(RuntimeError, match="zero subgradient"):
        relaxed_l1_step(np.array([1.0]), anchor, np.sign(anchor), -1.0)


def test_projection_context_tau_is_sign():
    ctx = ProjectionContext([2.0, 0.0, -0.5])
    np.testing.assert_array_equal(ctx.tau, [1.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        ProjectionContext([1.0], tau=[-1.0])


def test_project_dispatch():
    assert project(Box(-1.0, 1.0), [0.0])[0] == 0.0
    assert project(Box(0.0, np.inf), [2.0])[0] == 2.0
    out = project(HalfSpaceRelaxedL1Ball(1.0), [2.0, 0.0], ProjectionContext([2.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_project_relaxed_requires_context():
    with pytest.raises(ValueError):
        project(HalfSpaceRelaxedL1Ball(1.0), [2.0, 0.0])


def _box_instances():
    return [
        (Box(-1.0, 1.0), Box(-1.0, 1.0)),
        (Box([-2.0, 0.0], [1.0, 5.0]), Box([-2.0, 0.0], [1.0, 5.0])),
        (Box(0.0, np.inf), Box(0.0, 10.0)),  # sample window for the ray
    ]


def test_box_projection_idempotent():
    rng = np.random.default_rng(7)
    for box, _ in _box_instances():
        for _ in range(200):
            x = rng.uniform(-5, 5, size=box.dim)
            once = project(box, x)
            twice = project(box, once)
            np.testing.assert_array_equal(once, twice)


def test_box_projection_nonexpansive():
    rng = np.random.default_rng(8)
    for box, _ in _box_instances():
        for _ in range(1000):
            w = rng.uniform(-6, 6, size=box.dim)
            v = rng.uniform(-6, 6, size=box.dim)
            lhs = np.linalg.norm(project(box, w) - project(box, v))
            assert lhs <= np.linalg.norm(w - v) + PROP_TOL


def test_box_projection_obtuse_angle():
    rng = np.random.default_rng(9)
    for box, window in _box_instances():
        members = window.sample(1000, rng)
        for _ in range(1000):
            w = rng.uniform(-6, 6, size=box.dim)
            pw = project(box, w)
            u = members[rng.integers(0, 1000)]
            assert np.dot(w - pw, u - pw) <= PROP_TOL


def test_box_projection_distance_form():
    rng = np.random.default_rng(10)
    for box, window in _box_instances():
        members = window.sample(1000, rng)
        for _ in range(1000):
            w = rng.uniform(-6, 6, size=box.dim)
            pw = project(box, w)
            u = members[rng.integers(0, 1000)]
            lhs = np.dot(w - pw, w - pw)
            assert lhs <= np.dot(w - pw, w - u) + PROP_TOL


def test_relaxed_halfspace_containment():
    # output satisfies the halfspace inequality c(anchor) <= <tau, anchor - out>
    rng = np.random.default_rng(11)
    omega = 2.0
    for _ in range(1000):
        anchor = rng.standard_normal(6) * 2
        x = rng.standard_normal(6) * 3
        ctx = ProjectionContext(anchor)
        out = project_relaxed_l1(x, ctx, omega)
        c = np.abs(anchor).sum() - omega
        assert c <= np.dot(ctx.tau, anchor - out) + HALFSPACE_TOL


def test_relaxation_contains_the_l1_ball():
    # every point of the l1 ball lies in the relaxed halfspace
    rng = np.random.default_rng(12)
    omega = 2.0
    for _ in range(1000):
        anchor = rng.standard_normal(6) * 2
        y = rng.standard_normal(6)
        norm1 = np.abs(y).sum()
        if norm1 > omega:
            y *= rng.uniform(0.0, 1.0) * omega / norm1
        tau = np.sign(anchor)
        c = np.abs(anchor).sum() - omega
        assert c <= np.dot(tau, anchor - y) + HALFSPACE_TOL


def test_infinite_bounds_are_noop_sides():
    out = project_box([123.0, -456.0], [-np.inf, -1.0], [np.inf, 1.0])
    np.testing.assert_array_equal(out, [123.0, -1.0])


def test_radius_validation():
    with pytest.raises(ValueError):
        HalfSpaceRelaxedL1Ball(-0.5)
    assert HalfSpaceRelaxedL1Ball(0.0).radius == 0.0

"""Projection examples and the projection-identity property suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvi import Box, HalfSpaceRelaxedL1Ball, ProjectionContext, project
from qvi.geometry import projector, relaxed_l1_step

PROP_TOL = 1e-12
HALFSPACE_TOL = 1e-10


def test_box_project_point_already_inside():
    out = project(Box(-1.0, 1.0), [0.36])
    np.testing.assert_array_equal(out, [0.36])


def test_box_project_clamps_against_brute_force():
    # independent oracle: minimize |y - 4| over a fine grid of [-1, 1]
    grid = np.linspace(-1.0, 1.0, 200_001)
    oracle = grid[np.argmin(np.abs(grid - 4.0))]
    out = project(Box(-1.0, 1.0), [4.0])
    assert out[0] == 1.0
    assert abs(out[0] - oracle) <= 1e-12


def test_box_project_one_sided_ray():
    out = project(Box(0.0, np.inf), [-0.5])
    assert out[0] == 0.0


def test_box_project_dimension_mismatch():
    with pytest.raises(ValueError, match=r"dimension mismatch: x \(2,\), box dim 1"):
        project(Box(0.0, 1.0), [1.0, 2.0])


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
    out = project(HalfSpaceRelaxedL1Ball(1.0), [0.3, -0.2], ctx)
    np.testing.assert_array_equal(out, [0.3, -0.2])


def test_relaxed_l1_hand_values():
    ball, ctx = HalfSpaceRelaxedL1Ball(1.0), ProjectionContext([2.0, 0.0])
    np.testing.assert_allclose(project(ball, [2.0, 0.0], ctx), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(project(ball, [3.0, 1.0], ctx), [1.0, 1.0], atol=1e-15)


def test_relaxed_l1_dimension_mismatch():
    with pytest.raises(ValueError, match=r"dimension mismatch: x \(1,\), anchor \(2,\)"):
        project(HalfSpaceRelaxedL1Ball(1.0), [1.0], ProjectionContext([1.0, 2.0]))


def test_relaxed_l1_zero_subgradient_guard():
    # only reachable with a negative radius: anchor 0 makes c = -omega
    with pytest.raises(RuntimeError, match="zero subgradient"):
        relaxed_l1_step(np.array([1.0]), np.array([0.0]), -1.0)


def test_projection_context_tau_is_sign():
    # tau = sign(anchor) = (1, 0, -1) and c = 2.5 - 1: x = anchor moves by
    # (0 - 1.5) / ||tau||^2 = -0.75 along tau
    ctx = ProjectionContext([2.0, 0.0, -0.5])
    out = project(HalfSpaceRelaxedL1Ball(1.0), [2.0, 0.0, -0.5], ctx)
    np.testing.assert_array_equal(out, [1.25, 0.0, 0.25])
    # the subgradient is not a field a caller could set out of step
    with pytest.raises(TypeError):
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
        out = project(HalfSpaceRelaxedL1Ball(omega), x, ProjectionContext(anchor))
        c = np.abs(anchor).sum() - omega
        assert c <= np.dot(np.sign(anchor), anchor - out) + HALFSPACE_TOL


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
    out = project(Box([-np.inf, -1.0], [np.inf, 1.0]), [123.0, -456.0])
    np.testing.assert_array_equal(out, [123.0, -1.0])


def test_radius_validation():
    with pytest.raises(ValueError):
        HalfSpaceRelaxedL1Ball(-0.5)
    assert HalfSpaceRelaxedL1Ball(0.0).radius == 0.0


def test_validated_vectors_are_private_read_only_copies():
    lo, hi, anchor = np.zeros(2), np.ones(2), np.array([1.0, -2.0])
    box, ctx = Box(lo, hi), ProjectionContext(anchor)
    lo[0], hi[0], anchor[0] = 5.0, -5.0, np.nan
    np.testing.assert_array_equal(box.lo, [0.0, 0.0])
    np.testing.assert_array_equal(box.hi, [1.0, 1.0])
    np.testing.assert_array_equal(ctx.anchor, [1.0, -2.0])
    for vector in (box.lo, box.hi, ctx.anchor):
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.5


# --- properties of the resolved projections, on drawn inputs ---------------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)
COORD = st.floats(-1e4, 1e4)
# signed zeros are drawn on purpose: the clamp's tie rule decides their sign
BOUND = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@st.composite
def _box_and_points(draw):
    """A Box, possibly with infinite or signed-zero bounds, and three points in its space."""
    dim = draw(st.integers(1, 4))
    lo, hi = [], []
    for _ in range(dim):
        a = draw(st.one_of(BOUND, st.just(-np.inf)))
        b = draw(st.one_of(BOUND, st.just(np.inf)))
        lo.append(min(a, b))
        hi.append(max(a, b))
    vectors = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    return Box(lo, hi), draw(vectors), draw(vectors), draw(vectors)


@PROPERTY_SETTINGS
@given(_box_and_points())
def test_box_projection_properties(case):
    box, x, y, v = case
    clamp = projector(box, x, None)
    px, py, pv = clamp(None, x), clamp(None, y), clamp(None, v)
    np.testing.assert_array_equal(project(box, x), px)
    # the clamp moves no coordinate, so its identities hold per coordinate
    # and without rounding slack
    assert np.all((box.lo <= pv) & (pv <= box.hi))
    np.testing.assert_array_equal(clamp(None, px), px)
    assert np.all(np.abs(px - py) <= np.abs(x - y))
    assert np.all((x - px) * (pv - px) <= 0.0)


@st.composite
def _anchor_and_points(draw):
    """A radius, an anchor, a point and that point scaled into the l1 ball."""
    dim = draw(st.integers(1, 6))
    vectors = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim).map(np.array)
    omega = draw(st.floats(0.0, 50.0))
    x = draw(vectors)
    norm1 = np.abs(x).sum()
    return omega, draw(vectors), x, x * (omega / norm1) if norm1 > omega else x


@PROPERTY_SETTINGS
@given(_anchor_and_points())
def test_relaxed_projection_properties(case):
    omega, anchor, x, y = case
    ball, tau = HalfSpaceRelaxedL1Ball(omega), np.sign(anchor)
    relaxed = projector(ball, x, anchor)
    c = np.abs(anchor).sum() - omega
    for point in (x, y):
        out = relaxed(anchor, point)
        np.testing.assert_array_equal(project(ball, point, ProjectionContext(anchor)), out)
        assert c <= tau @ (anchor - out) + HALFSPACE_TOL
        if c <= tau @ (anchor - point):
            np.testing.assert_array_equal(out, point)
    # the relaxation contains the ball, so y passes the halfspace test up to rounding
    assert c <= tau @ (anchor - y) + HALFSPACE_TOL

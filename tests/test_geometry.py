import math

import numpy as np
import pytest

from scenefactor.geometry import (
    DEFAULT_CAMERA,
    Camera,
    Pose,
    UnitQuaternion,
    apply_pose,
    backproject,
    project,
    quat_to_matrix,
    random_unit_quaternion,
    rotation_about_y,
    validate_rotation_matrix,
)


def rodrigues(axis, angle):
    """Independent axis-angle rotation matrix oracle."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


class TestUnitQuaternion:
    def test_identity_to_matrix(self):
        assert np.array_equal(quat_to_matrix(UnitQuaternion.identity()), np.eye(3))

    def test_30_degrees_about_z_matches_rodrigues(self):
        q = UnitQuaternion(math.cos(math.radians(15)), 0.0, 0.0, math.sin(math.radians(15)))
        expected = rodrigues([0, 0, 1], math.radians(30))
        assert np.allclose(quat_to_matrix(q), expected, atol=1e-12)

    def test_180_about_z_hand_expanded(self):
        R = quat_to_matrix(UnitQuaternion(0.0, 0.0, 0.0, 1.0))
        assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_matrix_invariants(self, rng):
        for _ in range(100):
            R = quat_to_matrix(random_unit_quaternion(rng))
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_axis_angle_matches_rodrigues(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            q = UnitQuaternion.from_axis_angle(axis, angle)
            assert np.allclose(quat_to_matrix(q), rodrigues(axis, angle), atol=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.0, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitQuaternion(float("nan"), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("axis", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]],
                                      [float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0]])
    def test_from_axis_angle_rejects_a_bad_axis(self, axis):
        with pytest.raises(ValueError):
            UnitQuaternion.from_axis_angle(axis, 1.0)

    def test_validate_rotation_matrix_rejects_reflection(self):
        with pytest.raises(ValueError):
            validate_rotation_matrix(np.diag([1.0, 1.0, -1.0]))


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        assert np.array_equal(apply_pose(p, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_hand_computed(self):
        p = Pose(np.array([2.0, 2.0, 2.0]), UnitQuaternion.identity(), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(apply_pose(p, np.array([0.5, 0.0, 0.0])), [1.0, 0.0, 1.0])

    def test_scale_then_rotate_then_translate(self):
        # Order matters: scaling happens in the canonical frame, before rotation.
        p = Pose(np.array([2.0, 1.0, 1.0]), rotation_about_y(math.pi / 2),
                 np.array([0.0, 0.0, 3.0]))
        # y-down right-handed: +90 deg about y maps +x to -z.
        assert np.allclose(apply_pose(p, np.array([1.0, 0.0, 0.0])), [0.0, 0.0, 1.0], atol=1e-12)

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            p = Pose(rng.uniform(0.2, 3.0, 3), random_unit_quaternion(rng), rng.normal(size=3))
            pts = rng.normal(size=(7, 3))
            back = apply_pose(p, apply_pose(p, pts), inverse=True)
            assert np.allclose(back, pts, atol=1e-9)

    def test_batch_matches_single(self, rng):
        p = Pose(rng.uniform(0.2, 3.0, 3), random_unit_quaternion(rng), rng.normal(size=3))
        pts = rng.normal(size=(5, 3))
        batch = apply_pose(p, pts)
        for i in range(5):
            assert np.allclose(batch[i], apply_pose(p, pts[i]))

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0.0, 1.0]), UnitQuaternion.identity(), np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.array([1.0, -2.0, 1.0]), UnitQuaternion.identity(), np.zeros(3))

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 1.0, 1.0]), UnitQuaternion.identity(),
                 np.array([0.0, float("inf"), 0.0]))

    def test_rotation_must_be_a_quaternion(self):
        with pytest.raises(ValueError, match="rotation must be a UnitQuaternion, got list"):
            Pose(np.ones(3), [1.0, 0.0, 0.0], np.zeros(3))

    def test_points_of_the_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"got shape \(1, 2\)"):
            apply_pose(Pose.identity(), [1.0, 2.0])
        with pytest.raises(ValueError, match=r"got shape \(4, 2\)"):
            apply_pose(Pose.identity(), np.zeros((4, 2)), inverse=True)


class TestCamera:
    def test_backproject_principal_point(self):
        cam = DEFAULT_CAMERA
        assert np.allclose(backproject(cam, cam.cx, cam.cy, 2.0), [0.0, 0.0, 2.0])

    def test_backproject_hand_computed(self):
        cam = Camera(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=640, height=480)
        assert np.allclose(backproject(cam, 132.0, 24.0, 1.0), [1.0, 0.0, 1.0])

    def test_roundtrip_random(self, rng):
        cam = DEFAULT_CAMERA
        for _ in range(100):
            u = rng.uniform(0, cam.width)
            v = rng.uniform(0, cam.height)
            z = rng.uniform(0.1, 10.0)
            uu, vv, zz = project(cam, backproject(cam, u, v, z))
            assert abs(uu - u) < 1e-9 and abs(vv - v) < 1e-9 and abs(zz - z) < 1e-9

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            backproject(DEFAULT_CAMERA, 10.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            project(DEFAULT_CAMERA, np.array([0.0, 0.0, -1.0]))

    def test_invariants(self):
        with pytest.raises(ValueError):
            Camera(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            Camera(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            Camera(fx=float("nan"), fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            Camera(fx=1.0, fy=float("inf"), cx=0.0, cy=0.0, width=10, height=10)

    @pytest.mark.parametrize("width,height", [
        (float("inf"), 10), (10, float("inf")), (float("nan"), 10), (4.5, 4), (4, 3.5), ("4", 4)])
    def test_size_must_be_a_whole_number(self, width, height):
        with pytest.raises(ValueError, match="must be a whole number"):
            Camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)

    def test_whole_float_and_numpy_sizes(self):
        cam = Camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4.0, height=np.int64(3))
        assert (cam.width, cam.height) == (4, 3)
        assert type(cam.width) is int and type(cam.height) is int

    def test_scaled_preserves_fov(self):
        cam = DEFAULT_CAMERA.scaled(64, 48)
        assert cam.fx == pytest.approx(51.9)
        assert cam.cx == pytest.approx(32.0)
        assert (cam.width, cam.height) == (64, 48)

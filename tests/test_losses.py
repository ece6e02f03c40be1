import math

import numpy as np
import pytest

from scenefactor.geometry import UnitQuaternion, random_unit_quaternion
from scenefactor.losses import (
    CLAMP_EPS,
    combined_objective,
    finite_diff_check,
    foreground_ce,
    gradient_report,
    layout_l1,
    rot_class_nll,
    rot_regression,
    trans_scale_l2,
    voxel_bce,
)
from scenefactor.scene import Layout
from scenefactor.voxels import VoxelGrid


class TestLayoutL1:
    def test_perfect(self, rng):
        img = rng.uniform(0.1, 1.0, (8, 8))
        out = layout_l1(img, img)
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_hand_computed(self):
        pred = np.array([[0.5, 1.0]])
        gt = np.array([[0.0, 1.0]])
        out = layout_l1(pred, gt)
        assert out.value == 0.5
        assert np.array_equal(out.grad, [1.0, 0.0])

    def test_accepts_layout_objects(self):
        a = Layout(np.full((4, 4), 0.5))
        b = Layout(np.full((4, 4), 0.25))
        assert layout_l1(a, b).value == pytest.approx(16 * 0.25)

    def test_finite_differences(self, rng):
        for _ in range(20):
            gt = rng.uniform(0.1, 2.0, (8, 8))
            pred = gt + rng.uniform(0.05, 0.5, (8, 8)) * rng.choice([-1, 1], (8, 8))
            err = finite_diff_check(lambda x: layout_l1(x.reshape(8, 8), gt), pred.ravel())
            assert err < 1e-5

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            layout_l1(np.zeros((2, 2)), np.zeros((3, 3)))


class TestVoxelBce:
    def test_perfect_is_clamp_floor(self):
        gt = np.array([[[1.0]]])
        out = voxel_bce(gt, gt)
        assert out.value == pytest.approx(-math.log(1.0 - CLAMP_EPS))
        assert out.value < 2e-7

    def test_half_confidence_is_ln2(self):
        out = voxel_bce(np.array([[[0.5]]]), np.array([[[1.0]]]))
        assert out.value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_mean_over_voxels(self, rng):
        gt = (rng.random((4, 4, 4)) < 0.5).astype(float)
        pred = np.full((4, 4, 4), 0.5)
        assert voxel_bce(pred, gt).value == pytest.approx(math.log(2.0))

    def test_accepts_voxelgrid(self, rng):
        occ = (rng.random((32, 32, 32)) < 0.5).astype(np.float32)
        g = VoxelGrid.canonical(occ)
        assert voxel_bce(g, g).value < 2e-7

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ValueError):
            voxel_bce(np.array([[[0.5]]]), np.array([[[0.5]]]))

    def test_finite_differences(self, rng):
        for _ in range(20):
            gt = (rng.random((3, 3, 3)) < 0.5).astype(float)
            pred = rng.uniform(0.05, 0.95, (3, 3, 3))
            err = finite_diff_check(lambda x: voxel_bce(x.reshape(3, 3, 3), gt), pred.ravel())
            assert err < 1e-5

    def test_permutation_equivariance(self, rng):
        gt = (rng.random(27) < 0.5).astype(float)
        pred = rng.uniform(0.05, 0.95, 27)
        perm = rng.permutation(27)
        a = voxel_bce(pred.reshape(3, 3, 3), gt.reshape(3, 3, 3))
        b = voxel_bce(pred[perm].reshape(3, 3, 3), gt[perm].reshape(3, 3, 3))
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert np.allclose(a.grad[perm], b.grad)


class TestRotClassNll:
    def test_certain_bin_is_zero(self):
        dist = np.zeros(24)
        dist[7] = 1.0
        assert rot_class_nll(dist, 7).value == 0.0

    def test_uniform_is_ln24(self):
        dist = np.full(24, 1.0 / 24.0)
        assert rot_class_nll(dist, 3).value == pytest.approx(math.log(24.0))

    def test_gradient_only_at_target(self):
        dist = np.full(24, 1.0 / 24.0)
        out = rot_class_nll(dist, 5)
        assert out.grad[5] == pytest.approx(-24.0)
        assert np.all(out.grad[np.arange(24) != 5] == 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rot_class_nll(np.full(24, 1.0 / 24.0), 24)

    def test_finite_differences(self, rng):
        for _ in range(20):
            dist = rng.uniform(0.2, 1.0, 24)
            dist /= dist.sum()
            k = int(rng.integers(24))
            assert finite_diff_check(lambda x: rot_class_nll(x, k), dist) < 1e-5


class TestRotRegression:
    def test_scaled_gt_is_zero(self, rng):
        g = random_unit_quaternion(rng)
        assert rot_regression(2.0 * g.as_array(), g).value == 0.0

    def test_antipodal_branch(self, rng):
        g = random_unit_quaternion(rng)
        assert rot_regression(-g.as_array(), g).value == 0.0

    def test_sign_invariance_both_arguments(self, rng):
        g = random_unit_quaternion(rng)
        p = rng.normal(size=4)
        base = rot_regression(p, g).value
        assert rot_regression(-p, g).value == pytest.approx(base, rel=1e-12)
        assert rot_regression(p, UnitQuaternion(*-g.as_array())).value == \
            pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rot_regression(np.zeros(4), UnitQuaternion.identity())

    def test_finite_differences(self, rng):
        checked = 0
        while checked < 20:
            g = random_unit_quaternion(rng)
            p = rng.normal(size=4)
            if np.linalg.norm(p) < 0.3:
                continue
            u = p / np.linalg.norm(p)
            d1 = np.linalg.norm(u - g.as_array())
            d2 = np.linalg.norm(u + g.as_array())
            if abs(d1 - d2) < 0.05 or min(d1, d2) < 0.05:
                continue
            assert finite_diff_check(lambda x: rot_regression(x, g), p) < 1e-5
            checked += 1


class TestTransScale:
    def test_perfect(self):
        t, c = trans_scale_l2(np.zeros(3), np.zeros(3), np.ones(3), np.ones(3))
        assert t.value == 0.0 and c.value == 0.0

    def test_unit_translation_offset(self):
        t, _ = trans_scale_l2(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.ones(3), np.ones(3))
        assert t.value == 1.0
        assert np.array_equal(t.grad, [2.0, 0.0, 0.0])

    def test_scale_factor_e_gives_three(self):
        c_gt = np.array([0.5, 1.0, 2.0])
        _, c = trans_scale_l2(np.zeros(3), np.zeros(3), math.e * c_gt, c_gt)
        assert c.value == pytest.approx(3.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            trans_scale_l2(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 1.0]), np.ones(3))


class TestForegroundCe:
    def test_confident_foreground_near_zero(self):
        assert foreground_ce(1.0 - CLAMP_EPS, "fg").value == pytest.approx(CLAMP_EPS, rel=1e-3)

    def test_half_is_ln2(self):
        assert foreground_ce(0.5, "fg").value == pytest.approx(math.log(2.0))
        assert foreground_ce(0.5, "bg").value == pytest.approx(math.log(2.0))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            foreground_ce(0.5, "maybe")

    def test_finite_differences(self, rng):
        for _ in range(20):
            f = float(rng.uniform(0.05, 0.95))
            label = "fg" if rng.random() < 0.5 else "bg"
            err = finite_diff_check(lambda x: foreground_ce(float(x[0]), label),
                                    np.array([f]))
            assert err < 1e-5


class TestCombinedObjective:
    def test_all_zero_terms(self):
        t, c = trans_scale_l2(np.zeros(3), np.zeros(3), np.ones(3), np.ones(3))
        assert combined_objective([t, c]).value == 0.0

    def test_single_fg_proposal_sums(self, rng):
        gt_t = rng.normal(size=3)
        gt_c = rng.uniform(0.5, 2.0, 3)
        t, c = trans_scale_l2(gt_t + 1.0, gt_t, 2.0 * gt_c, gt_c)
        f = foreground_ce(0.7, "fg")
        total = combined_objective([t, c, f])
        assert total.value == pytest.approx(t.value + c.value + f.value)
        assert len(total.grad) == 7

    def test_weight_doubles_gradient_block(self, rng):
        gt_t = rng.normal(size=3)
        t, c = trans_scale_l2(gt_t + 0.5, gt_t, np.ones(3), np.ones(3))
        base = combined_objective([t, c], [1.0, 1.0])
        heavy = combined_objective([t, c], [2.0, 1.0])
        assert np.array_equal(heavy.grad[:3], 2.0 * base.grad[:3])
        assert np.array_equal(heavy.grad[3:], base.grad[3:])

    def test_weight_count_mismatch(self):
        t, _ = trans_scale_l2(np.zeros(3), np.zeros(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            combined_objective([t], [1.0, 2.0])


class TestFiniteDiffHarness:
    def test_quadratic_near_exact(self):
        def quad(x):
            from scenefactor.losses import LossValueGrad

            return LossValueGrad(float(x @ x), 2.0 * x)

        x = np.array([0.3, -0.7, 1.1])
        assert finite_diff_check(quad, x) < 1e-10

    def test_step_sweep_u_shape(self, rng):
        gt = (rng.random((3, 3, 3)) < 0.5).astype(float)
        pred = rng.uniform(0.2, 0.8, (3, 3, 3)).ravel()

        def loss(x):
            return voxel_bce(x.reshape(3, 3, 3), gt)

        coarse = finite_diff_check(loss, pred, step=1e-2)
        sweet = finite_diff_check(loss, pred, step=1e-5)
        tiny = finite_diff_check(loss, pred, step=1e-11)
        assert sweet < coarse
        assert sweet < tiny

    def test_gradient_report_all_pass(self):
        report = gradient_report(seed=0, n_points=25)
        assert report["all_passed"]
        assert [e["kernel"] for e in report["kernels"]] == [
            "layout_l1", "voxel_bce", "rot_class_nll", "rot_regression",
            "translation_l2", "scale_log_l2", "foreground_ce", "combined_objective",
        ]
        assert all(e["n_points"] == 25 for e in report["kernels"])

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_gradient_report_needs_a_point(self, n_points):
        with pytest.raises(ValueError):
            gradient_report(n_points=n_points)

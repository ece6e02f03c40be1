import math

import numpy as np
import pytest

from scenefactor.geometry import UnitQuaternion, random_unit_quaternion, rotation_about_y
from scenefactor.rotation_bins import (
    BinSet,
    antipodal_distance,
    assign_bin,
    cluster_quaternions,
)


def cube_group_quaternions():
    """The 24 rotational symmetries of the cube: well-separated modes."""
    quats = []
    seen = []

    def push(q):
        arr = q.as_array()
        for other in seen:
            if min(np.linalg.norm(arr - other), np.linalg.norm(arr + other)) < 1e-9:
                return
        seen.append(arr)
        quats.append(q)

    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    push(UnitQuaternion.identity())
    for axis in axes:
        for angle in (math.pi / 2, math.pi, 3 * math.pi / 2):
            push(UnitQuaternion.from_axis_angle(axis, angle))
    for axis in [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]:
        push(UnitQuaternion.from_axis_angle(axis, math.pi))
    for axis in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]:
        for angle in (2 * math.pi / 3, 4 * math.pi / 3):
            push(UnitQuaternion.from_axis_angle(axis, angle))
    assert len(quats) == 24
    return quats


def perturb(q, rng, sigma=0.01):
    noise = rng.normal(scale=sigma, size=4)
    return UnitQuaternion.normalized(q.as_array() + noise)


class TestClustering:
    def test_separated_samples_become_their_own_bins(self):
        samples = cube_group_quaternions()
        bins = cluster_quaternions(samples, k=24, seed=0)
        assert len(bins) == 24
        assert bins.inertia == pytest.approx(0.0, abs=1e-18)
        for q in samples:
            d = antipodal_distance(q.as_array()[None, :], bins.representatives)
            assert d.min() < 1e-9

    def test_duplication_invariance(self):
        samples = cube_group_quaternions()
        a = cluster_quaternions(samples, k=24, seed=3)
        b = cluster_quaternions(samples + samples, k=24, seed=3)
        assert np.allclose(a.representatives, b.representatives, atol=1e-12)

    def test_mixture_recovery(self, rng):
        modes = cube_group_quaternions()
        samples = []
        labels = []
        for mode_index, q in enumerate(modes):
            for _ in range(50):
                samples.append(perturb(q, rng))
                labels.append(mode_index)
        bins = cluster_quaternions(samples, k=24, seed=0)
        # Every sample must land in the bin of its generating mode.
        mode_bins = [assign_bin(q, bins) for q in modes]
        assert len(set(mode_bins)) == 24
        for sample, label in zip(samples, labels):
            assert assign_bin(sample, bins) == mode_bins[label]

    def test_inertia_monotone(self, rng):
        samples = [random_unit_quaternion(rng) for _ in range(200)]
        bins = cluster_quaternions(samples, k=24, seed=1)
        hist = np.array(bins.inertia_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_every_bin_has_a_member(self, rng):
        samples = [random_unit_quaternion(rng) for _ in range(300)]
        bins = cluster_quaternions(samples, k=24, seed=2)
        assigned = {assign_bin(q, bins) for q in samples}
        assert assigned == set(range(24))

    def test_too_few_samples_rejected(self, rng):
        samples = [random_unit_quaternion(rng) for _ in range(10)]
        with pytest.raises(ValueError):
            cluster_quaternions(samples, k=24)

    def test_deterministic_given_seed(self, rng):
        samples = [random_unit_quaternion(rng) for _ in range(100)]
        a = cluster_quaternions(samples, k=8, seed=4)
        b = cluster_quaternions(samples, k=8, seed=4)
        assert np.array_equal(a.representatives, b.representatives)
        assert a.inertia == b.inertia


class TestAssignBin:
    def test_representative_maps_to_itself(self):
        bins = cluster_quaternions(cube_group_quaternions(), k=24, seed=0)
        for i, rep in enumerate(bins.representatives):
            q = UnitQuaternion(*rep)
            assert assign_bin(q, bins) == i

    def test_antipodal_invariance(self, rng):
        bins = cluster_quaternions(cube_group_quaternions(), k=24, seed=0)
        for _ in range(500):
            q = random_unit_quaternion(rng)
            assert assign_bin(q, bins) == assign_bin(-q, bins)

    def test_small_perturbation_keeps_assignment(self, rng):
        bins = cluster_quaternions(cube_group_quaternions(), k=24, seed=0)
        reps = bins.representatives
        # Smallest chordal separation between representatives.
        min_sep = min(antipodal_distance(reps[i][None, :], reps[j][None, :])[0]
                      for i in range(24) for j in range(i + 1, 24))
        for _ in range(100):
            i = int(rng.integers(24))
            base = UnitQuaternion(*reps[i])
            q = perturb(base, rng, sigma=min_sep / 20.0)
            if antipodal_distance(q.as_array()[None, :], reps[i][None, :])[0] < min_sep / 2.0:
                assert assign_bin(q, bins) == i


class TestBinSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinSet(representatives=np.ones((2, 4)), seed=0, inertia=0.0)
        q = UnitQuaternion.identity().as_array()
        with pytest.raises(ValueError):
            BinSet(representatives=np.stack([q, -q]), seed=0, inertia=0.0)
        with pytest.raises(ValueError):
            BinSet(representatives=np.array([[np.nan, 1.0, 0.0, 0.0]]), seed=0, inertia=0.0)

    def test_representatives_sorted_and_sign_canonical(self, rng):
        samples = [random_unit_quaternion(rng) for _ in range(100)]
        bins = cluster_quaternions(samples, k=6, seed=0)
        reps = bins.representatives
        for rep in reps:
            nonzero = rep[np.abs(rep) > 0]
            assert nonzero[0] > 0
        assert np.array_equal(reps, reps[np.lexsort(reps.T[::-1])])

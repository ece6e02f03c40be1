import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scenefactor.geometry import Pose, UnitQuaternion, rotation_about_y
from scenefactor.registration import bbox_diagonal
from scenefactor.voxels import (
    CANONICAL_SPEC,
    DEFAULT_SCENE_SPEC,
    FRAME_SPECS,
    Cuboid,
    VoxelGrid,
    boundary_centers,
    boundary_mask,
    cuboid_voxelize,
    resample_to_scene,
    voxel_centers,
    voxel_iou,
    voxel_iou_matrix,
    voxelize_posed_cuboids,
)


def brute_force_iou(a, b, tau):
    """Cell-by-cell enumeration oracle."""
    inter = union = 0
    for va, vb in zip(a.occupancy.ravel().tolist(), b.occupancy.ravel().tolist()):
        va, vb = va >= tau, vb >= tau
        inter += va and vb
        union += va or vb
    return inter / union if union else 1.0


def scene_grid(block):
    """A scene grid holding ``block`` in its low corner and empty elsewhere."""
    block = np.asarray(block, dtype=np.float32)
    occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
    occ[tuple(slice(0, n) for n in block.shape)] = block
    return VoxelGrid.scene(occ)


def random_grid(rng, frame, fill):
    spec = FRAME_SPECS[frame]
    return VoxelGrid((rng.random(spec.dims) < fill).astype(np.float32), frame)


class TestVoxelGrid:
    def test_frame_fixes_lattice(self):
        # A grid stores its frame and its mask (and a soft grid its cells),
        # never a lattice of its own.
        assert {f.name for f in dataclasses.fields(VoxelGrid)} == {
            "frame", "_bits", "_count", "_cells"}
        for frame, spec in FRAME_SPECS.items():
            g = VoxelGrid(np.zeros(spec.dims), frame)
            assert g.spec is spec
            assert (g.dims, g.origin, g.cell_size) == (spec.dims, spec.origin, spec.cell_size)
            assert all(np.array_equal(a, b) for a, b in zip(g.extent, spec.extent))
            # Whole bytes: a packed mask has no pad bits.
            assert math.prod(spec.dims) % 8 == 0

    def test_equality_is_frame_and_cells(self, rng):
        a = random_grid(rng, "canonical", 0.3)
        assert a == VoxelGrid.canonical(a.occupancy.copy())
        occ = a.occupancy.copy()
        occ[0, 0, 0] = 1.0 - occ[0, 0, 0]
        assert a != VoxelGrid.canonical(occ)
        assert VoxelGrid.scene(np.zeros(DEFAULT_SCENE_SPEC.dims)) != \
            VoxelGrid.canonical(np.zeros(CANONICAL_SPEC.dims))


class TestVoxelIou:
    def test_identical(self, rng):
        occ = (rng.random((4, 4, 4)) < 0.4).astype(np.float32)
        g = scene_grid(occ)
        assert voxel_iou(g, g) == 1.0

    def test_disjoint_single_voxels(self):
        a = np.zeros((2, 2, 2), dtype=np.float32)
        b = np.zeros((2, 2, 2), dtype=np.float32)
        a[0, 0, 0] = 1.0
        b[1, 1, 1] = 1.0
        assert voxel_iou(scene_grid(a), scene_grid(b)) == 0.0

    def test_two_three_one_shared(self):
        a = np.zeros((3, 3, 3), dtype=np.float32)
        b = np.zeros((3, 3, 3), dtype=np.float32)
        a[0, 0, 0] = a[1, 0, 0] = 1.0
        b[0, 0, 0] = b[2, 2, 2] = b[0, 2, 1] = 1.0
        ga, gb = scene_grid(a), scene_grid(b)
        assert voxel_iou(ga, gb) == 0.25
        assert voxel_iou(ga, gb) == brute_force_iou(ga, gb, 0.5)

    def test_both_empty(self):
        g = scene_grid(np.zeros((2, 2, 2)))
        assert voxel_iou(g, g) == 1.0

    def test_matches_brute_force_random(self, rng):
        for trial in range(50):
            frame = "scene" if trial % 10 == 0 else "canonical"
            fill = rng.uniform(0.0, 1.0)
            a, b = random_grid(rng, frame, fill), random_grid(rng, frame, fill)
            assert voxel_iou(a, b) == brute_force_iou(a, b, 0.5) == voxel_iou(b, a)

    def test_each_grid_packed_once(self, rng, monkeypatch):
        # A grid packs its mask when it is built; voxel_iou only reads it.
        soft = VoxelGrid.canonical(rng.random(CANONICAL_SPEC.dims))
        grids = [random_grid(rng, "canonical", 0.5) for _ in range(3)] + [soft]
        calls = []
        packbits = np.packbits
        monkeypatch.setattr(np, "packbits", lambda *a, **k: calls.append(1) or packbits(*a, **k))
        for a in grids:
            for b in grids:
                assert voxel_iou(a, b) == brute_force_iou(a, b, 0.5)
        assert calls == []

    def test_frame_mismatch_rejected(self):
        a = VoxelGrid.canonical(np.zeros(CANONICAL_SPEC.dims))
        b = VoxelGrid.scene(np.zeros(DEFAULT_SCENE_SPEC.dims))
        with pytest.raises(ValueError, match="frames differ"):
            voxel_iou(a, b)

    def test_matrix_with_no_grids_on_one_side(self, rng):
        grids = [random_grid(rng, "canonical", 0.5) for _ in range(3)]
        assert voxel_iou_matrix([], grids).shape == (0, 3)
        assert voxel_iou_matrix(grids, []).shape == (3, 0)

    def test_occupied_at_threshold(self):
        g = scene_grid(np.array([0.0, 0.4999, 0.5, 1.0]).reshape(1, 2, 2))
        assert g.occupied[:1, :2, :2].tolist() == [[[False, False], [True, True]]]
        assert g.count() == 2


class TestVoxelCenters:
    def test_empty(self):
        g = VoxelGrid.canonical(np.zeros((32, 32, 32)))
        assert voxel_centers(g).shape == (0, 3)

    def test_canonical_corner_cell(self):
        occ = np.zeros((32, 32, 32), dtype=np.float32)
        occ[0, 0, 0] = 1.0
        centers = voxel_centers(VoxelGrid.canonical(occ))
        expected = -0.5 + 1.0 / 64.0
        assert np.allclose(centers, [[expected, expected, expected]], atol=1e-15)

    def test_scene_corner_cell_offset(self):
        occ = np.zeros(DEFAULT_SCENE_SPEC.dims, dtype=np.float32)
        occ[0, 0, 0] = 1.0
        centers = voxel_centers(VoxelGrid.scene(occ))
        lo = np.array(DEFAULT_SCENE_SPEC.origin)
        assert np.allclose(centers, [lo + 0.04], atol=1e-15)


DIMS = CANONICAL_SPEC.dims
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=60)
CELLS = st.tuples(*(st.integers(0, n - 1) for n in DIMS))


@st.composite
def canonical_grids(draw):
    """Random speckle at a drawn fill, or a union of up to three boxes."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        occ = rng.random(DIMS) < draw(st.floats(0.0, 1.0))
    else:
        occ = np.zeros(DIMS, dtype=bool)
        for lo, size in draw(st.lists(st.tuples(CELLS, CELLS), min_size=1, max_size=3)):
            occ[tuple(slice(a, a + b + 1) for a, b in zip(lo, size))] = True
    return VoxelGrid.canonical(occ)


class TestBoundary:
    @EXAMPLES
    @given(canonical_grids())
    def test_mask_is_occupied_cells_with_an_empty_neighbour(self, grid):
        occ, mask = grid.occupied, boundary_mask(grid)
        assert not (mask & ~occ).any()
        # Oracle: erosion by the 6-neighbourhood, with empty cells outside.
        cross = ndimage.generate_binary_structure(3, 1)
        assert np.array_equal(mask, occ & ~ndimage.binary_erosion(occ, cross, border_value=0))

    @EXAMPLES
    @given(canonical_grids())
    def test_face_cells_are_boundary(self, grid):
        occ, mask = grid.occupied, boundary_mask(grid)
        for axis in range(3):
            for end in (0, -1):
                assert np.array_equal(np.take(mask, end, axis), np.take(occ, end, axis))

    @EXAMPLES
    @given(canonical_grids())
    def test_points_are_the_boundary_rows_of_voxel_centers(self, grid):
        points = boundary_centers(grid)
        expected = voxel_centers(grid)[boundary_mask(grid)[grid.occupied]]
        assert points.shape == expected.shape
        assert points.tobytes() == expected.tobytes()

    @EXAMPLES
    @given(canonical_grids())
    def test_bbox_diagonal_is_that_of_all_centers(self, grid):
        assume(grid.count() > 0)
        assert bbox_diagonal(boundary_centers(grid)) == bbox_diagonal(voxel_centers(grid))

    def test_empty_grid(self):
        grid = VoxelGrid.canonical(np.zeros(DIMS))
        assert not boundary_mask(grid).any()
        assert boundary_centers(grid).shape == (0, 3)

    @EXAMPLES
    @given(CELLS)
    def test_single_cell_is_its_own_boundary(self, cell):
        occ = np.zeros(DIMS, dtype=bool)
        occ[cell] = True
        grid = VoxelGrid.canonical(occ)
        assert np.array_equal(boundary_mask(grid), occ)
        assert boundary_centers(grid).tobytes() == voxel_centers(grid).tobytes()

    @EXAMPLES
    @given(st.integers(2, 32), st.data())
    def test_solid_cube_keeps_its_shell(self, k, data):
        corner = data.draw(st.tuples(*(st.integers(0, n - k) for n in DIMS)))
        occ = np.zeros(DIMS, dtype=bool)
        occ[tuple(slice(c, c + k) for c in corner)] = True
        assert boundary_mask(VoxelGrid.canonical(occ)).sum() == k**3 - (k - 2) ** 3

    def test_full_grid(self):
        assert boundary_mask(VoxelGrid.canonical(np.ones(DIMS))).sum() == 32**3 - 30**3


class TestCuboidVoxelize:
    def test_full_extent_all_ones(self):
        g = cuboid_voxelize([Cuboid((0, 0, 0), (0.5, 0.5, 0.5))])
        assert g.count() == 32 ** 3

    def test_half_cube_exact_count(self):
        # Count oracle: centers with every coordinate in [-0.5, 0].
        cub = Cuboid((-0.25, -0.25, -0.25), (0.25, 0.25, 0.25))
        g = cuboid_voxelize([cub])
        expected = 0
        axis = CANONICAL_SPEC.origin[0] + (np.arange(32) + 0.5) * CANONICAL_SPEC.cell_size
        inside = (axis >= -0.5) & (axis <= 0.0)
        expected = inside.sum() ** 3
        assert expected == 16 ** 3 == 4096
        assert g.count() == 4096

    def test_empty_shape_list(self):
        g = cuboid_voxelize([])
        assert g.count() == 0

    def test_monotone_under_growth(self, rng):
        for _ in range(20):
            center = rng.uniform(-0.2, 0.2, 3)
            half = rng.uniform(0.05, 0.2, 3)
            small = cuboid_voxelize([Cuboid(center, half)])
            grown = cuboid_voxelize([Cuboid(center, half * rng.uniform(1.0, 1.5))])
            assert grown.count() >= small.count()
            assert np.all(grown.occupancy >= small.occupancy)

    def test_invariants_on_construction(self):
        with pytest.raises(ValueError):
            VoxelGrid.canonical(np.zeros((16, 16, 16)))
        with pytest.raises(ValueError):
            VoxelGrid.scene(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            VoxelGrid.scene(np.zeros(CANONICAL_SPEC.dims))
        with pytest.raises(ValueError):
            VoxelGrid(np.zeros(CANONICAL_SPEC.dims), "world")
        with pytest.raises(ValueError):
            VoxelGrid.canonical(np.full((32, 32, 32), 1.5))


class TestResampleToScene:
    def test_unit_cube_at_scene_center(self):
        obj = VoxelGrid.canonical(np.ones((32, 32, 32)))
        pose = Pose(np.ones(3), UnitQuaternion.identity(), np.array([0.0, 0.0, 2.56]))
        placed = resample_to_scene(obj, pose)
        # Expected region: cells whose centers fall inside the 1 m cube,
        # within one voxel at each face.
        exact = voxelize_posed_cuboids([Cuboid((0, 0, 0), (0.5, 0.5, 0.5))], pose)
        inner = voxelize_posed_cuboids([Cuboid((0, 0, 0), (0.5 - 0.08, 0.5 - 0.08, 0.5 - 0.08))], pose)
        outer = voxelize_posed_cuboids([Cuboid((0, 0, 0), (0.5 + 0.08, 0.5 + 0.08, 0.5 + 0.08))], pose)
        occ = placed.occupancy.astype(bool)
        assert np.all(occ[inner.occupancy.astype(bool)])
        assert not np.any(occ & ~outer.occupancy.astype(bool))
        assert abs(placed.count() - exact.count()) <= exact.count() * 0.25

    def test_empty_object(self):
        obj = VoxelGrid.canonical(np.zeros((32, 32, 32)))
        pose = Pose(np.ones(3), UnitQuaternion.identity(), np.array([0.0, 0.0, 2.0]))
        assert resample_to_scene(obj, pose).count() == 0

    def test_full_turn_rotation_identical(self, rng):
        occ = (rng.random((32, 32, 32)) < 0.3).astype(np.float32)
        obj = VoxelGrid.canonical(occ)
        theta = rng.uniform(0, 2 * math.pi)
        base = Pose(np.array([1.2, 0.8, 1.0]), rotation_about_y(theta),
                    np.array([0.3, 0.2, 2.5]))
        full_turn = Pose(base.scale,
                         rotation_about_y(theta + 2 * math.pi),
                         base.translation)
        a = resample_to_scene(obj, base)
        b = resample_to_scene(obj, full_turn)
        assert a == b

    def test_against_exact_voxelization_axis_aligned(self, rng):
        # Mismatches between resampling and the analytic oracle stay within
        # half a voxel diagonal of the cuboid surface.
        for trial in range(5):
            half = rng.uniform(0.15, 0.45, 3)
            cub = Cuboid((0.0, 0.0, 0.0), half)
            obj = cuboid_voxelize([cub])
            pose = Pose(rng.uniform(0.8, 1.8, 3), UnitQuaternion.identity(),
                        np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4),
                                  rng.uniform(1.5, 3.5)]))
            resampled = resample_to_scene(obj, pose)
            exact = voxelize_posed_cuboids([cub], pose)
            mismatch = resampled.occupancy.astype(bool) ^ exact.occupancy.astype(bool)
            if not mismatch.any():
                continue
            centers = voxel_centers(VoxelGrid.scene(mismatch))
            local = (centers - pose.translation) / pose.scale
            # Distance from the cuboid surface along each axis, in world units.
            gap = (np.abs(local) - half) * pose.scale
            dist = np.abs(gap).min(axis=1)
            assert dist.max() <= 0.08 * math.sqrt(3) / 2

    def test_wrong_frame_rejected(self):
        g = VoxelGrid.scene(np.zeros(DEFAULT_SCENE_SPEC.dims))
        with pytest.raises(ValueError):
            resample_to_scene(g, Pose.identity())


class TestGridSpec:
    def test_extent(self):
        lo, hi = DEFAULT_SCENE_SPEC.extent
        assert np.allclose(lo, [-2.56, -1.28, 0.0])
        assert np.allclose(hi, [2.56, 1.28, 5.12])

    def test_canonical_constants(self):
        assert CANONICAL_SPEC.dims == (32, 32, 32)
        lo, hi = CANONICAL_SPEC.extent
        assert np.allclose(lo, -0.5) and np.allclose(hi, 0.5)


class TestCuboid:
    def test_contains_inclusive(self):
        c = Cuboid((0, 0, 0), (1, 1, 1))
        assert c.contains(np.array([1.0, 1.0, 1.0]))
        assert not c.contains(np.array([1.0 + 1e-12, 0.0, 0.0]))

    def test_corners(self):
        c = Cuboid((0, 0, 0), (1, 2, 3))
        corners = c.corners()
        assert corners.shape == (8, 3)
        assert np.allclose(np.abs(corners), [1, 2, 3] * np.ones((8, 3)))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Cuboid((0, 0, 0), (1, 0, 1))

"""Rigid point-cloud alignment and the shared nearest-neighbor index.

The index is exact: distances come from a kd-tree and equidistant
candidates resolve to the lowest point index.  ICP alternates exact
nearest-neighbor correspondence with a closed-form least-squares fit from
identity initialization; its fitness (mean squared residual divided by the
squared object size) never increases across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import validate_rotation_matrix

__all__ = [
    "IcpResult",
    "NNIndex",
    "RigidTransform",
    "bbox_diagonal",
    "icp",
    "kabsch_align",
]

# ICP stops once an iteration improves the fitness by less than this
# fraction of its previous value, or after ICP_MAX_ITER iterations.
ICP_REL_TOL = 1e-6
ICP_MAX_ITER = 50


class NNIndex:
    """Exact Euclidean nearest-neighbor lookup over a fixed point set."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("index needs a non-empty (N, 3) point array")
        self.points = pts
        self._tree = cKDTree(pts)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest indexed point per row of an (N, 3) query array; returns
        (distances, indices), each of length N.

        Ties break to the lowest index.  The second-nearest distance from
        the tree tells us when a tie is possible; only those queries pay
        for the exhaustive ball lookup.  The kd-tree search runs on every
        visible CPU; each query's answer is independent of that split, so
        results do not depend on scheduling.
        """
        q = np.asarray(queries, dtype=float)
        k = min(2, len(self.points))
        dist, idx = self._tree.query(q, k=k, workers=-1)
        if k == 1:
            dist = dist[:, None] if dist.ndim == 1 else dist
            idx = idx[:, None] if idx.ndim == 1 else idx
        best_d = dist[:, 0]
        best_i = idx[:, 0].astype(int)
        if k == 2:
            tied = dist[:, 1] <= best_d
            for row in np.flatnonzero(tied):
                ball = self._tree.query_ball_point(q[row], r=best_d[row], p=2.0)
                if not ball:
                    # The ball test squares the rounded radius and can miss
                    # every tied point; rank a slightly wider ball by the
                    # tree's own distances instead.
                    near = self._tree.query_ball_point(q[row], r=best_d[row] * (1 + 1e-9))
                    near_d, near_i = self._tree.query(q[row], k=len(near))
                    ball = near_i[near_d == best_d[row]]
                best_i[row] = min(ball)
        return best_d, best_i


def bbox_diagonal(points: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box of a point set,
    the package-wide convention for "object size"."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("cannot size an empty point set")
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


@dataclass(frozen=True)
class RigidTransform:
    """Rotation followed by translation: p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = validate_rotation_matrix(self.rotation, tol=1e-6)
        t = np.array(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 3-vector")
        R = np.array(R)
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)


def _kabsch(src_centered: np.ndarray, src_mean: np.ndarray,
            dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares (R, t) mapping a source cloud, passed as its centred
    points and its mean, onto ``dst``; ValueError if under-determined."""
    if len(dst) < 3:
        raise ValueError("need at least 3 correspondence pairs")
    dst_mean = dst.mean(axis=0)
    cov = src_centered.T @ (dst - dst_mean)
    U, s, Vt = np.linalg.svd(cov)
    # Collinear or coincident configurations leave the rotation
    # under-determined.
    scale = max(s[0], 1.0)
    if s[1] <= 1e-12 * scale:
        raise ValueError("degenerate correspondences (collinear or coincident)")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return R, dst_mean - R @ src_mean


def kabsch_align(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping src points onto dst points.

    ``src`` and ``dst`` are paired by position and must contain at least 3
    non-collinear correspondences.  Reflections are excluded through the
    usual determinant correction.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("src and dst must be matching (N, 3) arrays")
    src_mean = src.mean(axis=0)
    return RigidTransform(*_kabsch(src - src_mean, src_mean, dst))


@dataclass(frozen=True)
class IcpResult:
    """Alignment outcome; fitness is mean squared residual / size_norm^2.

    A run that did not converge stopped on degenerate correspondences
    (``degenerate``) or else at ``ICP_MAX_ITER``; :attr:`stop` names which.
    """

    transform: RigidTransform
    fitness: float
    iterations: int
    converged: bool
    fitness_history: tuple[float, ...]
    degenerate: bool = False

    @property
    def stop(self) -> str:
        """Why the run stopped: "converged", "degenerate" or "max_iter"."""
        if self.converged:
            return "converged"
        return "degenerate" if self.degenerate else "max_iter"


def icp(src: np.ndarray, dst: np.ndarray, size_norm: float) -> IcpResult:
    """Point-to-point ICP from identity initialization.

    Alternates exact nearest-neighbor correspondence against ``dst`` with a
    full Kabsch refit of the global transform applied to the original
    ``src``.  Stops after ``ICP_MAX_ITER`` iterations (read at each call)
    or when the relative fitness improvement drops below ``ICP_REL_TOL``
    (relative, so the trajectory does not depend on the normalization).
    ``size_norm`` (meters) is the object size used to normalize the
    fitness; the bounding-box diagonal of the ground-truth object is the
    package convention (:func:`bbox_diagonal`).
    Each nearest-neighbor query runs on every visible CPU; the result does
    not depend on how the work is scheduled.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[1] != 3 or len(src) == 0:
        raise ValueError("src must be a non-empty (N, 3) array")
    if dst.ndim != 2 or dst.shape[1] != 3 or len(dst) == 0:
        raise ValueError("dst must be a non-empty (N, 3) array")
    if not size_norm > 0:
        raise ValueError("size_norm must be positive")

    index = NNIndex(dst)
    norm2 = size_norm * size_norm
    src_mean = src.mean(axis=0)
    src_centered = src - src_mean
    # The loop carries the bare (R, t); a Kabsch fit is a rotation by
    # construction, so only the returned transform is validated.
    rotation, translation = np.eye(3), np.zeros(3)

    def fitness_of(R: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        d, i = index.query(src @ R.T + t)
        return float(np.mean(d * d)) / norm2, dst[i]

    fitness, corr = fitness_of(rotation, translation)
    history = [fitness]
    converged = degenerate = False
    iterations = 0
    for _ in range(ICP_MAX_ITER):
        iterations += 1
        try:
            R, t = _kabsch(src_centered, src_mean, corr)
        except ValueError:
            # Degenerate inner alignment: keep the best transform so far.
            degenerate = True
            break
        new_fitness, new_corr = fitness_of(R, t)
        if new_fitness > fitness:
            # Cannot happen in exact arithmetic; guards float round-off.
            converged = True
            break
        improvement = (fitness - new_fitness) / max(fitness, 1e-300)
        rotation, translation, fitness, corr = R, t, new_fitness, new_corr
        history.append(fitness)
        if improvement < ICP_REL_TOL:
            converged = True
            break
    return IcpResult(transform=RigidTransform(rotation, translation), fitness=fitness,
                     iterations=iterations, converged=converged,
                     fitness_history=tuple(history), degenerate=degenerate)

"""Rigid point-cloud alignment and the shared nearest-neighbor index.

The index is exact: distances come from a kd-tree and equidistant
candidates resolve to the lowest point index.  ICP alternates exact
nearest-neighbor correspondence with a closed-form least-squares fit from
identity initialization; its fitness (mean squared residual divided by the
squared object size) never increases across iterations.

ICP asks the index again only for the source points whose nearest neighbor
can have changed since their last query: the exact form of cached
correspondence search (Nuechter, Lingemann & Hertzberg, "Cached k-d tree
search for ICP algorithms", 3DIM 2007), with the distance to the cached
neighbors carried from one iteration to the next as in Greenspan & Godin
("A nearest neighbor method for efficient ICP", 3DIM 2001).  Each query
keeps the two nearest destination points and the third-nearest distance
d3.  Every destination point other than those two lies at least d3 from
where the point was queried, so by the triangle inequality at least
d3 - m once it has moved m.  While the nearer of the two cached points is
closer than that, it is the nearest neighbor.  Distances to the cached
points are recomputed as ``sqrt(dx*dx + dy*dy + dz*dz)`` in x, y, z order,
which is bit for bit what the kd-tree computes; a test pins that
assumption.  So the correspondences, the fitness and every ICP result are
exactly those of querying every point on every iteration.
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
# Relative slack of ICP's reuse test, far above the ~1e-15 relative
# rounding of a distance or a movement (see ``icp``).
_SLACK = 1e-9


class NNIndex:
    """Exact Euclidean nearest-neighbor lookup over a fixed point set."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("index needs a non-empty (N, 3) point array")
        self.points = pts
        self._tree = cKDTree(pts)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest indexed points per row of an (N, 3) query array; returns
        (distances, candidates, third).

        ``distances`` holds the nearest distance per row.  ``candidates`` is
        (N, 2): column 0 the nearest index, ties broken to the lowest index,
        and column 1 another point no farther than every point but those
        two (the nearest one again when the index holds one point).
        ``third`` is the third-nearest distance, inf when the index holds
        fewer than 3 points.  Only three-way ties (``third <= distances``)
        pay for the exhaustive ball lookup.  The kd-tree search runs on the
        calling thread (``workers=1``): a query starts no threads, and
        callers that want parallelism run whole queries concurrently, as
        :func:`~scenefactor.compare.compare_representations` does.
        """
        q = np.asarray(queries, dtype=float)
        dist, idx = self._tree.query(q, k=3, workers=1)
        best_d, third = dist[:, 0], dist[:, 2]
        first = idx[:, 0]
        # A one-point index pads the missing neighbours with index 1.
        second = idx[:, 1] if len(self.points) > 1 else first
        nearest = np.where((dist[:, 1] <= best_d) & (second < first), second, first)
        for row in np.flatnonzero(third <= best_d):
            ball = self._tree.query_ball_point(q[row], r=best_d[row], p=2.0)
            if not ball:
                # The ball test squares the rounded radius and can miss
                # every tied point; rank a slightly wider ball by the
                # tree's own distances instead.
                near = self._tree.query_ball_point(q[row], r=best_d[row] * (1 + 1e-9))
                near_d, near_i = self._tree.query(q[row], k=len(near))
                ball = near_i[near_d == best_d[row]]
            nearest[row] = min(ball)
        runner_up = np.where(first == nearest, second, first)
        return best_d, np.stack([nearest, runner_up], axis=1), third


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

    ``stop`` says why the run stopped: "converged", "degenerate" (on
    degenerate correspondences) or "max_iter" (at ``ICP_MAX_ITER``).
    """

    transform: RigidTransform
    fitness: float
    iterations: int
    stop: str
    fitness_history: tuple[float, ...]

    def __post_init__(self):
        if self.stop not in ("converged", "degenerate", "max_iter"):
            raise ValueError(f"unknown ICP stop {self.stop!r}")

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths along the last axis of an (..., 3) array, summed in x, y, z
    order: the kd-tree's own distance arithmetic, bit for bit."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


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

    A source point is queried again only when its nearest neighbor can
    have changed.  Each point keeps where it was last queried, its two
    candidates and the third-nearest distance d3 there (see
    :meth:`NNIndex.query`).  On every iteration the distances to both
    candidates are recomputed; the nearer one wins, a tie going to the
    lower index.  Once the point has moved m from where it was queried,
    every other point is at least d3 - m away, so the winner is exact when
    it is closer than that, with a slack of ``_SLACK`` times d3 and its
    distance for rounding.  Points that fail the test are queried again;
    a point in a three-way tie always fails it, so the lowest-index tie
    rule holds.  The results are bit-identical to querying every point on
    every iteration, as long as the kd-tree computes each distance as
    ``sqrt(dx*dx + dy*dy + dz*dz)`` summed in x, y, z order.  Every
    nearest-neighbor query runs on the calling thread.
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
    # Per source point: where it was last queried, its two candidate dst
    # indices and their points, and the third-nearest distance there.  A
    # third distance of -inf fails the test below, so every point is
    # queried first.
    anchor = np.zeros_like(src)
    candidates = np.zeros((2, len(src)), dtype=int)
    near = np.zeros((2, *src.shape))
    third = np.full(len(src), -np.inf)

    def fitness_of(R: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        moved = src @ R.T + t
        d = _norms(near - moved)
        swap = (d[1] < d[0]) | ((d[1] == d[0]) & (candidates[1] < candidates[0]))
        dist = np.minimum(d[0], d[1])
        # dist + m < d3 with rounding slack, written so that the inf and
        # -inf third distances compare without a NaN.
        kept = _norms(moved - anchor) + (1.0 + _SLACK) * dist < (1.0 - _SLACK) * third
        stale = np.flatnonzero(~kept)
        if len(stale):
            queried = moved[stale]
            dist[stale], found, third[stale] = index.query(queried)
            candidates[:, stale] = found.T
            near[:, stale] = dst[found.T]
            anchor[stale] = queried
            swap[stale] = False
        return float(np.mean(dist * dist)) / norm2, np.where(swap[:, None], near[1], near[0])

    fitness, corr = fitness_of(rotation, translation)
    history = [fitness]
    stop = "max_iter"
    iterations = 0
    for _ in range(ICP_MAX_ITER):
        iterations += 1
        try:
            R, t = _kabsch(src_centered, src_mean, corr)
        except ValueError:
            # Degenerate inner alignment: keep the best transform so far.
            stop = "degenerate"
            break
        new_fitness, new_corr = fitness_of(R, t)
        if new_fitness > fitness:
            # Cannot happen in exact arithmetic; guards float round-off.
            stop = "converged"
            break
        improvement = (fitness - new_fitness) / max(fitness, 1e-300)
        rotation, translation, fitness, corr = R, t, new_fitness, new_corr
        history.append(fitness)
        if improvement < ICP_REL_TOL:
            stop = "converged"
            break
    return IcpResult(transform=RigidTransform(rotation, translation), fitness=fitness,
                     iterations=iterations, stop=stop, fitness_history=tuple(history))

"""Quaternion clustering into rotation bins and bin assignment.

Rotations are clustered with k-means under the antipodal-aware chordal
distance ``d(a, b) = min(|a - b|, |a + b|)``, the same distance the
antipodal regression loss uses.  Before averaging, every member is
sign-flipped toward its centroid, and centroids are renormalized to the
unit sphere after each update, which keeps the update step the exact
minimizer.  Seeding is k-means++ style under the same distance, so a seed
fully determines the result.  Representatives are stored sign-canonical
(first nonzero component positive) and sorted, making bin sets comparable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UnitQuaternion

__all__ = [
    "BinSet",
    "antipodal_distance",
    "assign_bin",
    "cluster_quaternions",
]

DEFAULT_BIN_COUNT = 24
# Lloyd iterations stop here even if assignments still change.
_MAX_LLOYD_ITER = 100


def _as_quat_array(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] == 4:
        arr = np.asarray(samples, dtype=float)
    else:
        arr = np.array([q.as_array() if isinstance(q, UnitQuaternion) else np.asarray(q, float)
                        for q in samples], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("samples must be unit quaternions (N, 4)")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("samples must be unit-normalized quaternions")
    return arr


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    for v in q:
        if v > 0.0:
            return q
        if v < 0.0:
            return -q
    return q


def antipodal_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chordal quaternion distance folded over the q ~ -q symmetry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.minimum(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


@dataclass(frozen=True)
class BinSet:
    """Representative rotations from clustering, plus provenance.

    ``inertia_history`` records the objective after every Lloyd update;
    it never increases.
    """

    representatives: np.ndarray
    seed: int
    inertia: float
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self):
        reps = np.array(self.representatives, dtype=float)
        if reps.ndim != 2 or reps.shape[1] != 4 or len(reps) == 0:
            raise ValueError("representatives must be a non-empty (K, 4) array")
        norms = np.linalg.norm(reps, axis=1)
        if not np.all(np.isfinite(reps)) or np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("representatives must be unit quaternions")
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if antipodal_distance(reps[i], reps[j]) < 1e-9:
                    raise ValueError("representatives must be pairwise distinct rotations")
        reps.setflags(write=False)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "inertia_history", tuple(float(v) for v in self.inertia_history))

    def __len__(self) -> int:
        return len(self.representatives)


def _seed_centers(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style D^2 seeding under the antipodal metric."""
    n = len(samples)
    centers = np.empty((k, 4))
    first = int(rng.integers(n))
    centers[0] = samples[first]
    d2 = antipodal_distance(samples, centers[0][None, :]) ** 2
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a center; any pick works.
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[i] = samples[pick]
        d2 = np.minimum(d2, antipodal_distance(samples, centers[i][None, :]) ** 2)
    return centers


def cluster_quaternions(samples, k: int = DEFAULT_BIN_COUNT, seed: int = 0) -> BinSet:
    """Cluster rotations into ``k`` bins; deterministic given the seed.

    Lloyd iterations stop when assignments no longer change (or after
    100 updates).  An empty cluster is reseeded to the sample farthest
    from its current centroid.
    """
    arr = _as_quat_array(samples)
    if len(arr) < k:
        raise ValueError(f"need at least {k} samples, got {len(arr)}")
    rng = np.random.default_rng(seed)
    centers = _seed_centers(arr, k, rng)

    assignment = np.full(len(arr), -1)
    history = []
    for _ in range(_MAX_LLOYD_ITER):
        dists = antipodal_distance(arr[:, None, :], centers[None, :, :])
        new_assignment = np.argmin(dists, axis=1)

        for cluster in range(k):
            members = arr[new_assignment == cluster]
            if len(members) == 0:
                worst = int(np.argmax(dists[np.arange(len(arr)), new_assignment]))
                centers[cluster] = arr[worst]
                new_assignment[worst] = cluster
                members = arr[worst:worst + 1]
            signs = np.where(members @ centers[cluster] < 0.0, -1.0, 1.0)
            mean = (members * signs[:, None]).mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                centers[cluster] = mean / norm

        dists = antipodal_distance(arr[:, None, :], centers[None, :, :])
        history.append(float((dists[np.arange(len(arr)), new_assignment] ** 2).sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    dists = antipodal_distance(arr[:, None, :], centers[None, :, :])
    final = np.argmin(dists, axis=1)
    inertia = float((dists[np.arange(len(arr)), final] ** 2).sum())

    canonical = np.array([_canonical_sign(c / np.linalg.norm(c)) for c in centers])
    order = np.lexsort(canonical.T[::-1])
    return BinSet(representatives=canonical[order], seed=int(seed), inertia=inertia,
                  inertia_history=tuple(history))


def assign_bin(q: UnitQuaternion, bins: BinSet) -> int:
    """Index of the nearest representative under the antipodal distance;
    ties resolve to the lowest index."""
    d = antipodal_distance(q.as_array()[None, :], bins.representatives)
    return int(np.argmin(d))

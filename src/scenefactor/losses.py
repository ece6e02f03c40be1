"""Training objectives as pure value-and-gradient functions.

Every kernel returns a :class:`LossValueGrad`: a non-negative scalar and
the analytic gradient with respect to the prediction, flattened to match
the prediction layout.  All are minimized losses; the voxel cross-entropy
and the background foreground term are sign-normalized accordingly.
Logarithms clamp their arguments to [eps, 1 - eps] with eps = 1e-7, and
the gradient is defined as 0 where the clamp is active.

The rotation terms follow the paper's two heads: ``rot_class_nll`` scores
a distribution over ``DEFAULT_BIN_COUNT`` rotation bins by bin index, and
``rot_regression`` regresses the quaternion directly.  Nothing is trained
here, so no bin centres exist; ``gradient_report`` needs only the count.

``finite_diff_check`` verifies any kernel against central differences.
``gradient_report``, what the grad-check command emits, is one loop over
the seeded ``(kernel, loss, point)`` probes of ``_probes``: it checks each
probe once and groups the errors by kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import UnitQuaternion, random_unit_quaternion

__all__ = [
    "CLAMP_EPS",
    "LossValueGrad",
    "combined_objective",
    "finite_diff_check",
    "foreground_ce",
    "gradient_report",
    "layout_l1",
    "rot_class_nll",
    "rot_regression",
    "trans_scale_l2",
    "voxel_bce",
]

CLAMP_EPS = 1e-7
# Central-difference step, and the largest relative gradient error that
# gradient_report passes.
FD_STEP = 1e-5
GRAD_TOLERANCE = 1e-5
# Rotation bins of the classification head (the paper's k-means bins).
DEFAULT_BIN_COUNT = 24


@dataclass(frozen=True, eq=False)
class LossValueGrad:
    """A loss value and its gradient with respect to the prediction."""

    value: float
    grad: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("loss value must be finite")
        grad = np.asarray(self.grad, dtype=float).ravel()
        if not np.all(np.isfinite(grad)):
            raise ValueError("gradient must be finite")
        grad = np.array(grad)
        grad.setflags(write=False)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "value", float(self.value))


def _image(arr, name: str) -> np.ndarray:
    a = getattr(arr, "disparity", arr)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2D image, got shape {a.shape}")
    return a


def layout_l1(pred, gt) -> LossValueGrad:
    """Sum of absolute per-pixel differences between disparity images.

    The subgradient at exact ties is 0 so results are deterministic.
    """
    p = _image(pred, "pred")
    g = _image(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"image shapes differ: {p.shape} vs {g.shape}")
    diff = p - g
    return LossValueGrad(float(np.abs(diff).sum()), np.sign(diff))


def _occupancy(arr, name: str) -> np.ndarray:
    a = getattr(arr, "occupancy", arr)
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        raise ValueError(f"{name} must be an array of voxel values")
    return a


def voxel_bce(pred, gt) -> LossValueGrad:
    """Mean per-voxel cross-entropy between predicted occupancy
    probabilities and a binary target grid."""
    p = _occupancy(pred, "pred")
    g = _occupancy(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"grid shapes differ: {p.shape} vs {g.shape}")
    if not np.all((g == 0.0) | (g == 1.0)):
        raise ValueError("target occupancy must be binary (0 or 1)")
    clamped = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    n = p.size
    value = -float(np.sum(g * np.log(clamped) + (1.0 - g) * np.log(1.0 - clamped))) / n
    grad = ((1.0 - g) / (1.0 - clamped) - g / clamped) / n
    grad = np.where((p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS), grad, 0.0)
    return LossValueGrad(value, grad)


def rot_class_nll(dist, k: int) -> LossValueGrad:
    """Negative log-likelihood of the target rotation bin.

    ``k`` indexes the bins of ``dist``.  Accepts any positive probability
    vector so the finite-difference harness can probe it off the simplex.
    """
    p = np.asarray(dist, dtype=float).ravel()
    k = int(k)
    if not 0 <= k < len(p):
        raise ValueError(f"bin index {k} out of range for {len(p)} bins")
    pk = float(p[k])
    clamped = min(max(pk, CLAMP_EPS), 1.0)
    grad = np.zeros_like(p)
    if CLAMP_EPS < pk:
        grad[k] = -1.0 / clamped
    return LossValueGrad(-math.log(clamped), grad)


def rot_regression(pred_raw, gt: UnitQuaternion) -> LossValueGrad:
    """Antipodal quaternion regression: normalize the raw 4-vector and take
    the smaller Euclidean distance to +-gt.

    The gradient flows through the normalization (projection onto the
    tangent space).  Non-smooth exactly at the antipodal decision boundary
    and at a perfect match; the gradient is 0 at the latter.
    """
    p = np.asarray(pred_raw, dtype=float).ravel()
    if p.shape != (4,):
        raise ValueError(f"prediction must be a 4-vector, got shape {p.shape}")
    norm = float(np.linalg.norm(p))
    if norm < 1e-12:
        raise ValueError("prediction quaternion must be nonzero")
    u = p / norm
    g = gt.as_array()
    d_plus = float(np.linalg.norm(u - g))
    d_minus = float(np.linalg.norm(u + g))
    sign = 1.0 if d_plus <= d_minus else -1.0
    value = min(d_plus, d_minus)
    if value < 1e-12:
        return LossValueGrad(value, np.zeros(4))
    residual = (u - sign * g) / value
    grad = (residual - u * float(u @ residual)) / norm
    return LossValueGrad(value, grad)


def trans_scale_l2(pred_t, gt_t, pred_c, gt_c) -> tuple[LossValueGrad, LossValueGrad]:
    """Squared Euclidean losses for translation and log-space scale.

    Returns (translation_loss, scale_loss); gradients are with respect to
    the predicted translation and the predicted scale.  Scale uses the
    natural logarithm.
    """
    pt = np.asarray(pred_t, dtype=float).ravel()
    gt_t = np.asarray(gt_t, dtype=float).ravel()
    pc = np.asarray(pred_c, dtype=float).ravel()
    gc = np.asarray(gt_c, dtype=float).ravel()
    if pt.shape != (3,) or gt_t.shape != (3,) or pc.shape != (3,) or gc.shape != (3,):
        raise ValueError("translations and scales must be 3-vectors")
    if np.any(pc <= 0.0) or np.any(gc <= 0.0):
        raise ValueError("scales must be strictly positive")
    dt = pt - gt_t
    trans = LossValueGrad(float(dt @ dt), 2.0 * dt)
    dlog = np.log(pc) - np.log(gc)
    scale = LossValueGrad(float(dlog @ dlog), 2.0 * dlog / pc)
    return trans, scale


def foreground_ce(f: float, label: str) -> LossValueGrad:
    """Cross-entropy of the foreground probability for one proposal:
    -ln(f) for foreground, -ln(1 - f) for background."""
    if label not in ("fg", "bg"):
        raise ValueError(f"label must be 'fg' or 'bg', got {label!r}")
    f = float(f)
    clamped = min(max(f, CLAMP_EPS), 1.0 - CLAMP_EPS)
    active = CLAMP_EPS < f < 1.0 - CLAMP_EPS
    if label == "fg":
        value = -math.log(clamped)
        grad = -1.0 / clamped if active else 0.0
    else:
        value = -math.log(1.0 - clamped)
        grad = 1.0 / (1.0 - clamped) if active else 0.0
    return LossValueGrad(value, np.array([grad]))


def combined_objective(terms: Sequence[LossValueGrad],
                       weights: Sequence[float] | None = None) -> LossValueGrad:
    """Weighted sum of loss terms; the gradient is the weighted
    concatenation of the term gradients (default weights are all 1)."""
    terms = list(terms)
    if weights is None:
        weights = [1.0] * len(terms)
    weights = [float(w) for w in weights]
    if len(weights) != len(terms):
        raise ValueError("need one weight per term")
    value = sum(w * t.value for w, t in zip(weights, terms))
    if terms:
        grad = np.concatenate([w * t.grad for w, t in zip(weights, terms)])
    else:
        grad = np.zeros(0)
    return LossValueGrad(value, grad)


def finite_diff_check(loss: Callable[[np.ndarray], LossValueGrad],
                      point: np.ndarray, step: float = FD_STEP) -> float:
    """Max componentwise relative error between the analytic gradient and
    central finite differences.

    The relative denominator is floored at 1 so near-zero components are
    compared absolutely.  The caller is responsible for probing away from
    documented kinks (ties, clamps, antipodal boundaries).
    """
    x = np.asarray(point, dtype=float).ravel()
    analytic = loss(x).grad
    if analytic.shape != x.shape:
        raise ValueError(f"gradient shape {analytic.shape} does not match point {x.shape}")
    worst = 0.0
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        fd = (loss(hi).value - loss(lo).value) / (2.0 * step)
        denom = max(1.0, abs(analytic[i]), abs(fd))
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def _probes(rng: np.random.Generator, n: int):
    """Yield ``(kernel, loss, point)`` for ``n`` seeded points per kernel,
    in report order and clear of each kernel's documented kinks.

    One ``trans_scale_l2`` draw yields a ``translation_l2`` and a
    ``scale_log_l2`` probe.  Each loss closes over this generator's loop
    variables, so the caller must check it before drawing the next probe.
    """
    for _ in range(n):
        gt = rng.uniform(0.1, 2.0, size=(4, 4))
        offset = rng.uniform(0.05, 0.5, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
        yield "layout_l1", lambda x: layout_l1(x.reshape(4, 4), gt), (gt + offset).ravel()
    for _ in range(n):
        target = (rng.random(size=(3, 3, 3)) < 0.5).astype(float)
        pred = rng.uniform(0.05, 0.95, size=(3, 3, 3))
        yield "voxel_bce", lambda x: voxel_bce(x.reshape(3, 3, 3), target), pred.ravel()
    for _ in range(n):
        dist = rng.uniform(0.2, 1.0, size=DEFAULT_BIN_COUNT)
        k = int(rng.integers(DEFAULT_BIN_COUNT))
        yield "rot_class_nll", lambda x: rot_class_nll(x, k), dist / dist.sum()
    count = 0
    while count < n:
        q = random_unit_quaternion(rng)
        p = rng.normal(size=4)
        if np.linalg.norm(p) < 0.3:
            continue
        u = p / np.linalg.norm(p)
        g = q.as_array()
        d_plus, d_minus = np.linalg.norm(u - g), np.linalg.norm(u + g)
        # Stay away from the antipodal decision boundary and a perfect match.
        if abs(d_plus - d_minus) < 0.05 or min(d_plus, d_minus) < 0.05:
            continue
        yield "rot_regression", lambda x: rot_regression(x, q), p
        count += 1
    for _ in range(n):
        gt_t = rng.normal(size=3)
        gt_c = rng.uniform(0.3, 3.0, size=3)
        pred_t = gt_t + rng.normal(size=3)
        pred_c = rng.uniform(0.3, 3.0, size=3)
        yield "translation_l2", lambda x: trans_scale_l2(x, gt_t, pred_c, gt_c)[0], pred_t
        yield "scale_log_l2", lambda x: trans_scale_l2(pred_t, gt_t, x, gt_c)[1], pred_c
    for _ in range(n):
        f = float(rng.uniform(0.05, 0.95))
        label = "fg" if rng.random() < 0.5 else "bg"
        yield "foreground_ce", lambda x: foreground_ce(float(x[0]), label), np.array([f])
    for _ in range(n):
        gt_t = rng.normal(size=3)
        gt_c = rng.uniform(0.3, 3.0, size=3)
        label = "fg" if rng.random() < 0.5 else "bg"
        weights = rng.uniform(0.5, 2.0, size=3)

        def combined(x):
            t, c = trans_scale_l2(x[:3], gt_t, x[3:6], gt_c)
            return combined_objective([t, c, foreground_ce(float(x[6]), label)], weights)

        yield "combined_objective", combined, np.concatenate([
            gt_t + rng.normal(size=3), rng.uniform(0.3, 3.0, size=3), [rng.uniform(0.05, 0.95)]])


def gradient_report(seed: int = 0, n_points: int = 100) -> dict:
    """Run central-difference checks (step ``FD_STEP``, pass below
    ``GRAD_TOLERANCE``) for every kernel at ``n_points`` seeded probes."""
    if n_points < 1:
        raise ValueError(f"n_points must be positive, got {n_points}")
    errs: dict[str, list[float]] = {}
    for kernel, loss, point in _probes(np.random.default_rng(seed), n_points):
        errs.setdefault(kernel, []).append(finite_diff_check(loss, point))
    entries = [{"kernel": kernel, "max_rel_err": max(e), "n_points": len(e),
                "tolerance": GRAD_TOLERANCE, "passed": bool(max(e) < GRAD_TOLERANCE)}
               for kernel, e in errs.items()]
    return {"format_version": 1, "seed": int(seed), "step": FD_STEP,
            "points_per_kernel": int(n_points), "kernels": entries,
            "all_passed": bool(all(e["passed"] for e in entries))}

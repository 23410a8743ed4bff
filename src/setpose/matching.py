"""Bipartite matching between ground-truth hands and queries, plus the
set-prediction loss, both over a whole batch.

Class-index convention used everywhere (logit column order):
    0 = left hand, 1 = right hand, 2 = no-hand

A training step makes one build_cost_matrix call on the batch's
predictions, class_logits (B, n_queries, 3) and joints_norm
(B, n_queries, 63): one softmax for the batch, then for every image b the
(n_gts_b, n_queries) matrix of per-pair costs

    cost(gt, q) = lam_cls * (-p_q(gt side)) + lam_l1 * mean|joints_q - joints_gt|

One batched hungarian call then picks every image's minimum-cost injective
gt->query map, and one set_loss call turns the matched queries into the
batch loss. The class term uses probabilities (not log-probabilities),
while the training loss uses cross-entropy on the same logits - the usual
set-prediction asymmetry, kept deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentAssignment, NonFinite, ShapeError
from .geometry import HandSide
from .nn_core.tensor import Tensor, log_softmax

CLASS_LEFT = 0
CLASS_RIGHT = 1
CLASS_NO_HAND = 2
N_CLASSES = 3

# Relative tolerance for "same total cost" when breaking ties
# lexicographically; covers float re-association, sits far below real cost gaps.
_TIE_RTOL = 1e-9


def class_index(side: HandSide) -> int:
    return CLASS_LEFT if side is HandSide.LEFT else CLASS_RIGHT


def hungarian(costs: list[np.ndarray]) -> np.ndarray:
    """Minimum-cost injective ground-truth -> query map of every image of a
    batch, for the per-image (n_gts, n_queries) matrices build_cost_matrix
    returns.

    An image holds at most one hand per side, so n_gts <= 2, and every image
    has the same n_queries >= 2. Each image's Q * (Q - 1) ordered query pairs
    are enumerated exactly; a missing ground truth is a zero row, which adds
    nothing to any pair. Among pairs within _TIE_RTOL of the image's minimum
    the first in row-major order wins: the lexicographically smallest query
    tuple (row 0 first), so results are deterministic under ties.

    Returns the matched query of every ground truth, in image then row
    order (the order _flatten_gts uses), as one np.intp array. The name
    stays from the general solver this replaced, because the benchmark's
    tracer times matching.hungarian by name.
    """
    mats = [np.asarray(c, dtype=np.float64) for c in costs]
    n_q = mats[0].shape[-1]
    padded = np.zeros((len(mats), 2, n_q))
    for b, m in enumerate(mats):
        if m.ndim != 2 or len(m) > 2 or m.shape[1] != n_q or n_q < 2:
            raise ShapeError(f"image {b}: need an (n_gts <= 2, n_queries >= 2) cost "
                             f"matrix with image 0's {n_q} queries, got {m.shape}")
        padded[b, :len(m)] = m
    if not np.all(np.isfinite(padded)):
        raise NonFinite("cost matrix contains NaN or infinity")

    pair = padded[:, 0, :, None] + padded[:, 1, None, :]  # (B, Q, Q)
    pair[:, np.arange(n_q), np.arange(n_q)] = np.inf
    pair = pair.reshape(len(mats), n_q * n_q)
    best = pair.min(axis=1, keepdims=True)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(best))
    first = np.argmax(pair <= best + tol, axis=1)
    chosen = np.stack(np.divmod(first, n_q), axis=1)  # (B, 2): rows 0 and 1
    n_gts = np.array([len(m) for m in mats])
    return chosen[np.arange(2) < n_gts[:, None]]


def class_probabilities(class_logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis of numpy logits."""
    shifted = class_logits - class_logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _flatten_gts(gts: list[list[tuple[HandSide, np.ndarray]]], n_values: int):
    """Every image's ground truths in one list, in image then row order:
    (image index, class column, (n_gts, n_values) normalized joints)."""
    image = np.array([b for b, g in enumerate(gts) for _ in g], dtype=np.intp)
    cls = np.array([class_index(side) for g in gts for side, _ in g], dtype=np.intp)
    joints = np.array([np.asarray(j, dtype=np.float64) for g in gts for _, j in g],
                      dtype=np.float64).reshape(len(image), n_values)
    return image, cls, joints


def build_cost_matrix(
    class_logits: np.ndarray,
    joints_norm: np.ndarray,
    gts: list[list[tuple[HandSide, np.ndarray]]],
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
) -> list[np.ndarray]:
    """Per image b, the (len(gts[b]), n_queries) matrix of match costs.

    class_logits is (B, n_queries, 3), joints_norm (B, n_queries, 63) and
    gts[b] the (side, 63 normalized values) list of image b.
    """
    n_images = class_logits.shape[0]
    if len(gts) != n_images:
        raise ShapeError(f"{len(gts)} ground-truth lists for {n_images} images")
    image, cls, gt_joints = _flatten_gts(gts, joints_norm.shape[-1])
    p_side = class_probabilities(class_logits)[image, :, cls]  # (n_gts, n_queries)
    l1 = np.abs(joints_norm[image] - gt_joints[:, None, :]).mean(axis=-1)
    costs = lam_cls * -p_side + lam_l1 * l1
    return np.split(costs, np.cumsum([len(g) for g in gts])[:-1])


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss terms as graph tensors: total = lam_cls*cls + lam_l1*l1."""

    cls_loss: Tensor
    l1_loss: Tensor
    total: Tensor


def set_loss(
    class_logits: Tensor,
    joints_norm: Tensor,
    gts: list[list[tuple[HandSide, np.ndarray]]],
    query: np.ndarray,
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
    w_noobj: float = 0.1,
) -> LossBreakdown:
    """Set-prediction loss of a batch: the mean over images of each
    image's terms, with class_logits (B, n_queries, 3), joints_norm
    (B, n_queries, 63), gts[b] the ground truths of image b and query the
    matched query of every ground truth in image then row order (what
    hungarian returns).

    Classification: cross-entropy over every query, target = matched hand
    side for matched queries and no-hand for the rest; terms are combined
    as a weighted mean with weight 1 on matched queries and w_noobj on
    unmatched ones (sum of weighted terms / sum of weights).

    Regression: per matched query the mean absolute error over the 63
    normalized joint values, averaged over matched queries; zero when
    nothing is matched.
    """
    if len(class_logits.shape) != 3 or class_logits.shape[-1] != N_CLASSES:
        raise ShapeError(f"class_logits must be (B, n_queries, {N_CLASSES}), "
                         f"got {class_logits.shape}")
    n_images, n_queries = class_logits.shape[:2]
    if len(gts) != n_images:
        raise InconsistentAssignment(f"{len(gts)} ground-truth lists for {n_images} images")
    n_gts = np.array([len(g) for g in gts])
    image, cls, gt_joints = _flatten_gts(gts, joints_norm.shape[-1])
    query = np.asarray(query)
    if query.shape != image.shape:
        raise InconsistentAssignment(
            f"{query.shape} matched queries for {len(image)} ground truths")
    if np.any((query < 0) | (query >= n_queries)):
        raise InconsistentAssignment("matched query out of range")
    if np.unique(image * n_queries + query).size != query.size:
        raise InconsistentAssignment("a query is matched twice within one image")

    targets = np.full((n_images, n_queries), CLASS_NO_HAND, dtype=np.intp)
    weights = np.full((n_images, n_queries), w_noobj, dtype=np.float64)
    targets[image, query] = cls
    weights[image, query] = 1.0

    log_probs = log_softmax(class_logits, axis=-1)
    picked = log_probs[np.arange(n_images)[:, None], np.arange(n_queries), targets]
    cls_per_image = (picked * (-weights)).sum(axis=1) / weights.sum(axis=1)
    cls_loss = cls_per_image.sum() * (1.0 / n_images)

    # every matched value weighs 1 / (63 * its image's matched queries), so
    # each image contributes its mean and an image without hands adds 0
    per_value = 1.0 / (n_gts[image] * float(joints_norm.shape[-1]))
    residual = (joints_norm[image, query] - gt_joints).abs()
    l1_loss = (residual * per_value[:, None]).sum() * (1.0 / n_images)

    total = cls_loss * lam_cls + l1_loss * lam_l1
    return LossBreakdown(cls_loss=cls_loss, l1_loss=l1_loss, total=total)

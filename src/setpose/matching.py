"""Bipartite matching between ground-truth hands and queries, plus the
set-prediction loss, both over a whole batch.

Class logit columns: 0 = left hand, 1 = right hand (HandSide.code),
2 = no-hand (CLASS_NO_HAND).

A batch's ground truth is the packed slot layout of data.pack_hands, the
rows of hands.npy, in which slot k of an image holds its hand of side k:
present (B, 2) says which slots hold a hand and gt_joints (B, 2, 63) holds
their normalized joints (model.encode_targets). The class target of slot
k is therefore k. A training step makes one build_cost_matrix call on the
batch's predictions, class_logits (B, n_queries, 3) and joints_norm
(B, n_queries, 63): one softmax for the batch, then the (B, 2, n_queries)
array of per-pair costs, 0 in an empty slot's row,

    cost(k, q) = lam_cls * (-p_q(side k)) + lam_l1 * mean|joints_q - joints_k|

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
from .nn_core.tensor import Tensor, log_softmax

CLASS_NO_HAND = 2
N_CLASSES = 3

# Relative tolerance for "same total cost" when breaking ties
# lexicographically; covers float re-association, sits far below real cost gaps.
_TIE_RTOL = 1e-9


def hungarian(costs: np.ndarray) -> np.ndarray:
    """Minimum-cost injective ground-truth -> query map of every image of a
    batch, for the (B, 2, n_queries >= 2) costs build_cost_matrix returns.

    Each image's Q * (Q - 1) ordered query pairs are enumerated exactly; an
    empty slot is a zero row, which adds nothing to any pair. Among pairs
    within _TIE_RTOL of the image's minimum the first in row-major order
    wins: the lexicographically smallest query tuple (row 0 first), so
    results are deterministic under ties.

    Returns the (B, 2) np.intp matched query of every slot; an empty slot's
    entry means nothing. The name stays from the general solver this
    replaced, because the benchmark's tracer times matching.hungarian by
    name.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 3 or costs.shape[1] != 2 or costs.shape[2] < 2:
        raise ShapeError(f"need (B, 2, n_queries >= 2) costs, got {costs.shape}")
    if not np.all(np.isfinite(costs)):
        raise NonFinite("cost matrix contains NaN or infinity")
    n_images, _, n_q = costs.shape
    pair = costs[:, 0, :, None] + costs[:, 1, None, :]  # (B, Q, Q)
    pair[:, np.arange(n_q), np.arange(n_q)] = np.inf
    pair = pair.reshape(n_images, n_q * n_q)
    best = pair.min(axis=1, keepdims=True)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(best))
    first = np.argmax(pair <= best + tol, axis=1)
    return np.stack(np.divmod(first, n_q), axis=1)


def class_probabilities(class_logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis of numpy logits."""
    shifted = class_logits - class_logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _present_slots(present: np.ndarray, gt_joints: np.ndarray, n_images: int,
                   n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, row) of every filled slot, in image then row order, once the
    ground truth has the packed (B, 2) layout."""
    if present.shape != (n_images, 2) or gt_joints.shape != (n_images, 2, n_values):
        raise ShapeError(f"need (B, 2) present flags and (B, 2, {n_values}) joints for "
                         f"{n_images} images, got {present.shape} and {gt_joints.shape}")
    return np.nonzero(present)


def build_cost_matrix(
    class_logits: np.ndarray,
    joints_norm: np.ndarray,
    present: np.ndarray,
    gt_joints: np.ndarray,
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
) -> np.ndarray:
    """The (B, 2, n_queries) match costs of every slot, 0 in an empty one,
    for class_logits (B, n_queries, 3), joints_norm (B, n_queries, 63) and
    the packed present (B, 2) and gt_joints (B, 2, 63)."""
    n_images, n_queries = class_logits.shape[:2]
    image, row = _present_slots(present, gt_joints, n_images, joints_norm.shape[-1])
    p_side = class_probabilities(class_logits)[image, :, row]  # (n_gts, Q)
    l1 = np.abs(joints_norm[image] - gt_joints[image, row][:, None, :]).mean(axis=-1)
    costs = np.zeros((n_images, 2, n_queries))
    costs[image, row] = lam_cls * -p_side + lam_l1 * l1
    return costs


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss terms as graph tensors: total = lam_cls*cls + lam_l1*l1."""

    cls_loss: Tensor
    l1_loss: Tensor
    total: Tensor


def set_loss(
    class_logits: Tensor,
    joints_norm: Tensor,
    present: np.ndarray,
    gt_joints: np.ndarray,
    query: np.ndarray,
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
    w_noobj: float = 0.1,
) -> LossBreakdown:
    """Set-prediction loss of a batch: the mean over images of each
    image's terms, with class_logits (B, n_queries, 3), joints_norm
    (B, n_queries, 63), the packed present (B, 2) and gt_joints (B, 2, 63)
    and query the (B, 2) matched query of every slot (what hungarian
    returns); empty slots' queries are ignored.

    Classification: cross-entropy over every query, target = the matched
    slot's side for matched queries and no-hand for the rest; terms are
    combined as a weighted mean with weight 1 on matched queries and
    w_noobj on unmatched ones (sum of weighted terms / sum of weights).

    Regression: per matched query the mean absolute error over the 63
    normalized joint values, averaged over matched queries; zero when
    nothing is matched.
    """
    if len(class_logits.shape) != 3 or class_logits.shape[-1] != N_CLASSES:
        raise ShapeError(f"class_logits must be (B, n_queries, {N_CLASSES}), "
                         f"got {class_logits.shape}")
    n_images, n_queries = class_logits.shape[:2]
    image, row = _present_slots(present, gt_joints, n_images, joints_norm.shape[-1])
    query = np.asarray(query)
    if query.shape != (n_images, 2):
        raise InconsistentAssignment(
            f"{query.shape} matched queries for {n_images} images of 2 slots")
    query = query[image, row]
    if np.any((query < 0) | (query >= n_queries)):
        raise InconsistentAssignment("matched query out of range")
    if np.unique(image * n_queries + query).size != query.size:
        raise InconsistentAssignment("a query is matched twice within one image")

    targets = np.full((n_images, n_queries), CLASS_NO_HAND, dtype=np.intp)
    weights = np.full((n_images, n_queries), w_noobj, dtype=np.float64)
    targets[image, query] = row
    weights[image, query] = 1.0

    log_probs = log_softmax(class_logits, axis=-1)
    picked = log_probs[np.arange(n_images)[:, None], np.arange(n_queries), targets]
    cls_per_image = (picked * (-weights)).sum(axis=1) / weights.sum(axis=1)
    cls_loss = cls_per_image.sum() * (1.0 / n_images)

    # every matched value weighs 1 / (63 * its image's matched queries), so
    # each image contributes its mean and an image without hands adds 0
    n_gts = np.count_nonzero(present, axis=1)
    per_value = 1.0 / (n_gts[image] * float(joints_norm.shape[-1]))
    residual = (joints_norm[image, query] - gt_joints[image, row]).abs()
    l1_loss = (residual * per_value[:, None]).sum() * (1.0 / n_images)

    total = cls_loss * lam_cls + l1_loss * lam_l1
    return LossBreakdown(cls_loss=cls_loss, l1_loss=l1_loss, total=total)

"""Bipartite matching between ground-truth hands and queries, plus the
set-prediction loss, both over a whole batch.

Class-index convention used everywhere (logit column order):
    0 = left hand, 1 = right hand, 2 = no-hand

A training step makes one build_cost_matrix call on the batch's
predictions, class_logits (B, n_queries, 3) and joints_norm
(B, n_queries, 63): one softmax for the batch, then for every image b the
(n_gts_b, n_queries) matrix of per-pair costs

    cost(gt, q) = lam_cls * (-p_q(gt side)) + lam_l1 * mean|joints_q - joints_gt|

hungarian then solves each image's matrix on its own (minimizing over
injective gt->query maps), and one set_loss call turns the B assignments
into the batch loss. The class term uses probabilities (not
log-probabilities), while the training loss uses cross-entropy on the same
logits - the usual set-prediction asymmetry, kept deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InconsistentAssignment, NonFinite, ShapeError
from .geometry import HandSide
from .nn_core.tensor import Tensor, log_softmax

CLASS_LEFT = 0
CLASS_RIGHT = 1
CLASS_NO_HAND = 2
N_CLASSES = 3

# Relative tolerance for "same total cost" during lexicographic tie
# refinement; covers float re-association, sits far below real cost gaps.
_TIE_RTOL = 1e-9


def class_index(side: HandSide) -> int:
    return CLASS_LEFT if side is HandSide.LEFT else CLASS_RIGHT


@dataclass(frozen=True)
class Assignment:
    """Injective ground-truth-row -> query-column map with its total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def __post_init__(self):
        cols = [c for _, c in self.pairs]
        if len(set(cols)) != len(cols):
            raise InconsistentAssignment(f"columns not distinct: {cols}")


def _solve_min_cost(costs: np.ndarray) -> tuple[np.ndarray, float]:
    rows, cols = linear_sum_assignment(costs)
    return cols, float(costs[rows, cols].sum())


def hungarian(costs: np.ndarray) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Requires rows <= cols and finite entries. Among equally cheap optima
    the lexicographically smallest column tuple (row 0 first) is returned,
    so results are deterministic under ties.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ShapeError(f"cost matrix must be 2-D, got shape {costs.shape}")
    n_rows, n_cols = costs.shape
    if n_rows > n_cols:
        raise ShapeError(f"need rows <= cols, got {n_rows}x{n_cols}")
    if n_rows == 0:
        return Assignment(pairs=(), total_cost=0.0)
    if not np.all(np.isfinite(costs)):
        raise NonFinite("cost matrix contains NaN or infinity")

    base_cols, best = _solve_min_cost(costs)
    tol = _TIE_RTOL * max(1.0, abs(best))

    # Lexicographic refinement: fix rows in ascending order, each time
    # taking the smallest available column that still admits an optimal
    # completion. The running `completion` is a known-optimal assignment
    # of the remaining rows, so its head column is feasible without a
    # sub-solve and only strictly smaller candidates need testing.
    chosen: list[int] = []
    fixed_cost = 0.0
    avail = list(range(n_cols))
    completion = list(base_cols)  # completion[i] = column for row (len(chosen)+i)
    for row in range(n_rows):
        pick = completion[0]
        for cand in sorted(avail):
            if cand >= pick:
                break
            sub_avail = [c for c in avail if c != cand]
            remaining = costs[row + 1:][:, sub_avail]
            if remaining.shape[0] == 0:
                sub_cols, sub_cost = [], 0.0
            else:
                sub_idx, sub_cost = _solve_min_cost(remaining)
                sub_cols = [sub_avail[i] for i in sub_idx]
            if fixed_cost + costs[row, cand] + sub_cost <= best + tol:
                pick = cand
                completion = [cand] + sub_cols
                break
        chosen.append(pick)
        fixed_cost += costs[row, pick]
        avail.remove(pick)
        completion = completion[1:]

    total = float(costs[np.arange(n_rows), np.array(chosen)].sum())
    return Assignment(pairs=tuple((r, c) for r, c in enumerate(chosen)),
                      total_cost=total)


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
    assignments: list[Assignment],
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
    w_noobj: float = 0.1,
) -> LossBreakdown:
    """Set-prediction loss of a batch: the mean over images of each
    image's terms, with class_logits (B, n_queries, 3), joints_norm
    (B, n_queries, 63) and gts[b], assignments[b] for image b.

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
    if len(gts) != n_images or len(assignments) != n_images:
        raise InconsistentAssignment(
            f"{len(gts)} ground-truth lists and {len(assignments)} assignments "
            f"for {n_images} images")
    # every ground truth is matched, so query[k] is the one matched to the
    # k-th flattened ground truth
    query = []
    for b, (g, assignment) in enumerate(zip(gts, assignments)):
        pairs = sorted(assignment.pairs)
        rows = [r for r, _ in pairs]
        if rows != list(range(len(g))):
            raise InconsistentAssignment(
                f"image {b}: assignment rows {rows} != ground truths 0..{len(g) - 1}")
        query += [c for _, c in pairs]
    query = np.array(query, dtype=np.intp)
    if np.any((query < 0) | (query >= n_queries)):
        raise InconsistentAssignment("assignment column out of range")
    n_gts = np.array([len(g) for g in gts])
    image, cls, gt_joints = _flatten_gts(gts, joints_norm.shape[-1])

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

"""Bipartite matching between ground-truth hands and queries, plus the
set-prediction loss.

Class-index convention used everywhere (logit column order):
    0 = left hand, 1 = right hand, 2 = no-hand

Matching minimizes, over injective gt->query maps, the per-pair cost

    cost(gt, q) = lam_cls * (-p_q(gt side)) + lam_l1 * mean|joints_q - joints_gt|

with probabilities (not log-probabilities) on the class term, while the
training loss uses cross-entropy on the same logits - the usual
set-prediction asymmetry, kept deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InconsistentAssignment, NonFinite, ShapeError
from .geometry import HandSide
from .nn_core.tensor import Tensor, concatenate, log_softmax, stack

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


def match_cost(
    gt_side: HandSide,
    gt_joints_norm: np.ndarray,
    pred_class_logits: np.ndarray,
    pred_joints_norm: np.ndarray,
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
) -> float:
    """Match cost of one (ground truth, query) pair; see module docstring."""
    logits = np.asarray(pred_class_logits, dtype=np.float64)
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    l1 = float(np.mean(np.abs(np.asarray(pred_joints_norm, dtype=np.float64)
                              - np.asarray(gt_joints_norm, dtype=np.float64))))
    return lam_cls * (-float(probs[class_index(gt_side)])) + lam_l1 * l1


def build_cost_matrix(
    class_logits: np.ndarray,
    joints_norm: np.ndarray,
    gts: list[tuple[HandSide, np.ndarray]],
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
) -> np.ndarray:
    """(n_gts, n_queries) matrix of match costs."""
    n_queries = class_logits.shape[0]
    out = np.empty((len(gts), n_queries), dtype=np.float64)
    for g, (side, gt_joints) in enumerate(gts):
        for q in range(n_queries):
            out[g, q] = match_cost(side, gt_joints, class_logits[q],
                                   joints_norm[q], lam_cls, lam_l1)
    return out


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss terms as graph tensors: total = lam_cls*cls + lam_l1*l1."""

    cls_loss: Tensor
    l1_loss: Tensor
    total: Tensor
    lam_cls: float
    lam_l1: float
    w_noobj: float

    def values(self) -> dict[str, float]:
        return {
            "cls_loss": self.cls_loss.item(),
            "l1_loss": self.l1_loss.item(),
            "total": self.total.item(),
        }


def set_loss(
    class_logits: Tensor,
    joints_norm: Tensor,
    gts: list[tuple[HandSide, np.ndarray]],
    assignment: Assignment,
    lam_cls: float = 1.0,
    lam_l1: float = 5.0,
    w_noobj: float = 0.1,
) -> LossBreakdown:
    """Set-prediction loss for one image.

    Classification: cross-entropy over every query, target = matched hand
    side for matched queries and no-hand for the rest; terms are combined
    as a weighted mean with weight 1 on matched queries and w_noobj on
    unmatched ones (sum of weighted terms / sum of weights).

    Regression: per matched query the mean absolute error over the 63
    normalized joint values, averaged over matched queries; zero when
    nothing is matched.
    """
    n_queries = class_logits.shape[0]
    if class_logits.shape != (n_queries, N_CLASSES):
        raise ShapeError(f"class_logits must be ({n_queries}, {N_CLASSES})")
    pairs = dict(assignment.pairs)
    if sorted(pairs) != list(range(len(gts))):
        raise InconsistentAssignment(
            f"assignment rows {sorted(pairs)} != ground truths 0..{len(gts) - 1}")
    if any(not 0 <= c < n_queries for c in pairs.values()):
        raise InconsistentAssignment("assignment column out of range")

    targets = np.full(n_queries, CLASS_NO_HAND, dtype=np.intp)
    weights = np.full(n_queries, w_noobj, dtype=np.float64)
    for row, col in pairs.items():
        targets[col] = class_index(gts[row][0])
        weights[col] = 1.0

    log_probs = log_softmax(class_logits, axis=-1)
    picked = log_probs[np.arange(n_queries), targets]  # (n_queries,)
    cls_loss = (picked * (-weights)).sum() / float(weights.sum())

    if pairs:
        rows = sorted(pairs)
        matched = stack([joints_norm[pairs[r]] for r in rows], axis=0)
        gt_mat = np.stack([np.asarray(gts[r][1], dtype=np.float64) for r in rows])
        l1_loss = (matched - gt_mat).abs().mean()
    else:
        l1_loss = Tensor(0.0)

    total = cls_loss * lam_cls + l1_loss * lam_l1
    return LossBreakdown(cls_loss=cls_loss, l1_loss=l1_loss, total=total,
                         lam_cls=lam_cls, lam_l1=lam_l1, w_noobj=w_noobj)

from __future__ import annotations

import itertools

import numpy as np
import pytest

from setpose.errors import InconsistentAssignment, NonFinite, ShapeError
from setpose.geometry import HandSide
from setpose.matching import (
    Assignment,
    CLASS_NO_HAND,
    build_cost_matrix,
    class_index,
    hungarian,
    set_loss,
)
from setpose.nn_core.tensor import Tensor
from setpose.rng import PortableRng


def brute_force_min(costs: np.ndarray) -> float:
    """Enumerate every injective rows->cols map; row-order summation."""
    n_rows, n_cols = costs.shape
    best = np.inf
    for perm in itertools.permutations(range(n_cols), n_rows):
        total = costs[np.arange(n_rows), list(perm)].sum()
        if total < best:
            best = total
    return best


def random_costs(rng: PortableRng, n_rows: int, n_cols: int) -> np.ndarray:
    return np.array(rng.uniform_list(n_rows * n_cols, -10.0, 10.0)).reshape(
        n_rows, n_cols)


# -- hungarian -----------------------------------------------------------------

def test_hungarian_diagonal_optimum():
    a = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 0.0


def test_hungarian_2x2_enumerated():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    a = hungarian(costs)
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 2.0 == brute_force_min(costs)


def test_hungarian_3x3_enumerated():
    costs = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    a = hungarian(costs)
    assert a.pairs == ((0, 1), (1, 0), (2, 2))
    assert a.total_cost == 5.0 == brute_force_min(costs)


def test_hungarian_random_vs_enumeration():
    rng = PortableRng(40)
    for _ in range(200):
        n_rows = 1 + rng.next_u64() % 5
        n_cols = n_rows + rng.next_u64() % (9 - n_rows)
        costs = random_costs(rng, n_rows, n_cols)
        assert hungarian(costs).total_cost == brute_force_min(costs)


def test_hungarian_row_shift_keeps_argmin():
    rng = PortableRng(41)
    for _ in range(50):
        costs = random_costs(rng, 3, 5)
        shifted = costs.copy()
        shifted[1] += 7.25
        assert hungarian(costs).pairs == hungarian(shifted).pairs


def test_hungarian_lexicographic_ties():
    # every assignment costs 0 -> identity is the lexicographically smallest
    assert hungarian(np.zeros((3, 5))).pairs == ((0, 0), (1, 1), (2, 2))
    # both diagonals cost 4 -> prefer column 0 for row 0
    a = hungarian(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 4.0


def test_hungarian_tie_needs_subsolve():
    # row 0 alone prefers column 0, but the only optimal completions force
    # it elsewhere: [[0,0],[0,inf->big]] with col 0 needed by row 1
    costs = np.array([[0.0, 0.0], [0.0, 100.0]])
    a = hungarian(costs)
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 0.0


def test_hungarian_empty_and_single():
    assert hungarian(np.zeros((0, 4))).pairs == ()
    a = hungarian(np.array([[3.0, 1.0, 2.0]]))
    assert a.pairs == ((0, 1),)


def test_hungarian_shape_and_finite_errors():
    with pytest.raises(ShapeError):
        hungarian(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        hungarian(np.zeros(4))
    bad = np.zeros((2, 3))
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        hungarian(bad)
    bad[0, 1] = np.inf
    with pytest.raises(NonFinite):
        hungarian(bad)


def test_assignment_rejects_duplicate_columns():
    with pytest.raises(InconsistentAssignment):
        Assignment(pairs=((0, 1), (1, 1)), total_cost=0.0)


# -- build_cost_matrix -------------------------------------------------------------

def match_cost(side: HandSide, gt: np.ndarray, logits: np.ndarray,
               pred_joints: np.ndarray, lam_cls: float, lam_l1: float) -> float:
    """The cost of one (ground truth, query) pair, as a batch of one image
    with one query and one ground truth."""
    costs = build_cost_matrix(logits[None, None], pred_joints[None, None],
                              [[(side, gt)]], lam_cls=lam_cls, lam_l1=lam_l1)
    assert len(costs) == 1 and costs[0].shape == (1, 1)
    return costs[0][0, 0]


def test_match_cost_perfect_prediction():
    gt = np.full(63, 0.5)
    logits = np.array([50.0, 0.0, 0.0])  # p(left) ~= 1
    cost = match_cost(HandSide.LEFT, gt, logits, gt, lam_cls=1.0, lam_l1=5.0)
    assert abs(cost - (-1.0)) < 1e-12


def test_match_cost_uniform_class():
    gt = np.full(63, 0.25)
    cost = match_cost(HandSide.RIGHT, gt, np.zeros(3), gt, lam_cls=1.0, lam_l1=5.0)
    assert abs(cost - (-1.0 / 3.0)) < 1e-12


def test_match_cost_hand_evaluated():
    # p(side) = 0.5, mean |dj| = 0.1: cost = 1*(-0.5) + 5*0.1 = 0
    gt = np.full(63, 0.4)
    pred_joints = np.full(63, 0.5)
    logits = np.array([np.log(0.5), np.log(0.5), -1e9])
    cost = match_cost(HandSide.LEFT, gt, logits, pred_joints, lam_cls=1.0, lam_l1=5.0)
    assert abs(cost) < 1e-12


def test_cost_matrix_of_a_ragged_batch_matches_a_per_pair_loop():
    rng = PortableRng(56)
    logits, joints = (t.data for t in make_preds(rng, 4, n_images=3))
    gts = [make_gts(rng, [HandSide.RIGHT, HandSide.LEFT]), [], make_gts(rng, [HandSide.LEFT])]
    costs = build_cost_matrix(logits, joints, gts, lam_cls=0.5, lam_l1=3.0)
    assert [c.shape for c in costs] == [(2, 4), (0, 4), (1, 4)]
    for b, image_gts in enumerate(gts):
        for g, (side, gt) in enumerate(image_gts):
            for q in range(4):
                # same arithmetic one pair at a time, so equal to the last bit
                z = logits[b, q] - logits[b, q].max()
                p = np.exp(z) / np.exp(z).sum()
                expected = 0.5 * -p[class_index(side)] + 3.0 * np.abs(joints[b, q] - gt).mean()
                assert costs[b][g, q] == expected
    with pytest.raises(ShapeError):
        build_cost_matrix(logits, joints, gts[:2])


# -- set_loss ------------------------------------------------------------------

def make_preds(rng: PortableRng, n_queries: int, n_images: int = 1) -> tuple[Tensor, Tensor]:
    shape = (n_images, n_queries)
    logits = Tensor(np.array(rng.uniform_list(n_images * n_queries * 3, -2, 2)).reshape(
        *shape, 3), requires_grad=True)
    joints = Tensor(np.array(rng.uniform_list(n_images * n_queries * 63, 0, 1)).reshape(
        *shape, 63), requires_grad=True)
    return logits, joints


def make_gts(rng: PortableRng, sides):
    return [(side, np.array(rng.uniform_list(63, 0, 1))) for side in sides]


def test_set_loss_zero_l1_on_exact_match():
    rng = PortableRng(50)
    gts = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    logits = Tensor(np.zeros((1, 4, 3)), requires_grad=True)
    joints = np.array(rng.uniform_list(4 * 63, 0, 1)).reshape(1, 4, 63)
    joints[0, 2] = gts[0][1]
    joints[0, 0] = gts[1][1]
    assignment = Assignment(pairs=((0, 2), (1, 0)), total_cost=0.0)
    loss = set_loss(logits, Tensor(joints, requires_grad=True), [gts], [assignment])
    assert loss.l1_loss.item() == 0.0


def test_set_loss_confident_correct_ce_is_zero():
    gts = [(HandSide.LEFT, np.full(63, 0.5))]
    logits = np.zeros((3, 3))
    logits[1] = [200.0, 0.0, 0.0]   # matched query, p(left) = 1 to double precision
    logits[0, CLASS_NO_HAND] = 200.0  # unmatched queries confident no-hand
    logits[2, CLASS_NO_HAND] = 200.0
    joints = np.tile(gts[0][1], (3, 1))
    assignment = Assignment(pairs=((0, 1),), total_cost=0.0)
    loss = set_loss(Tensor(logits[None]), Tensor(joints[None]), [gts], [assignment])
    assert loss.cls_loss.item() < 1e-12
    assert loss.total.item() < 1e-11


def scalar_image_loss(logits, joints, gts, pairs, lam_cls, lam_l1, w_noobj):
    """Straight-line re-evaluation of the documented per-image formula."""
    n_queries = len(logits)
    targets = [CLASS_NO_HAND] * n_queries
    weights = [w_noobj] * n_queries
    for row, col in pairs:
        targets[col] = class_index(gts[row][0])
        weights[col] = 1.0
    ce_terms = []
    for q in range(n_queries):
        z = logits[q] - logits[q].max()
        log_probs = z - np.log(np.exp(z).sum())
        ce_terms.append(-log_probs[targets[q]])
    cls_ref = sum(w * ce for w, ce in zip(weights, ce_terms)) / sum(weights)
    l1_terms = [np.abs(joints[col] - gts[row][1]).mean() for row, col in pairs]
    l1_ref = sum(l1_terms) / len(l1_terms) if l1_terms else 0.0
    return cls_ref, l1_ref, lam_cls * cls_ref + lam_l1 * l1_ref


def test_set_loss_matches_scalar_recomputation():
    rng = PortableRng(51)
    n_queries = 4
    logits_t, joints_t = make_preds(rng, n_queries, n_images=3)
    gts = [make_gts(rng, [HandSide.RIGHT, HandSide.LEFT]), make_gts(rng, [HandSide.LEFT]), []]
    pairs = [((0, 3), (1, 1)), ((0, 2),), ()]
    lam_cls, lam_l1, w_noobj = 1.0, 5.0, 0.1
    loss = set_loss(logits_t, joints_t, gts,
                    [Assignment(pairs=p, total_cost=0.0) for p in pairs],
                    lam_cls, lam_l1, w_noobj)

    per_image = [scalar_image_loss(logits_t.data[b], joints_t.data[b], gts[b], pairs[b],
                                   lam_cls, lam_l1, w_noobj) for b in range(3)]
    assert per_image[2][1] == 0.0  # the image without hands adds no L1
    cls_ref, l1_ref, total_ref = (sum(terms) / 3 for terms in zip(*per_image))
    assert abs(loss.cls_loss.item() - cls_ref) < 1e-12
    assert abs(loss.l1_loss.item() - l1_ref) < 1e-12
    assert abs(loss.total.item() - total_ref) < 1e-12


def test_set_loss_permutation_invariant():
    rng = PortableRng(52)
    n_queries = 5
    logits_t, joints_t = make_preds(rng, n_queries)
    gts = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    assignment = Assignment(pairs=((0, 0), (1, 4)), total_cost=0.0)
    base = set_loss(logits_t, joints_t, [gts], [assignment])

    perm = [3, 0, 4, 1, 2]  # query q moves to position perm.index(q)
    inv = np.argsort(perm)
    logits_p = Tensor(logits_t.data[:, perm])
    joints_p = Tensor(joints_t.data[:, perm])
    relabeled = Assignment(pairs=((0, int(inv[0])), (1, int(inv[4]))), total_cost=0.0)
    permuted = set_loss(logits_p, joints_p, [gts], [relabeled])
    assert abs(base.total.item() - permuted.total.item()) < 1e-12


def test_set_loss_strictly_decreases_toward_gt():
    rng = PortableRng(53)
    logits_t, joints_t = make_preds(rng, 3)
    gts = make_gts(rng, [HandSide.LEFT])
    assignment = Assignment(pairs=((0, 1),), total_cost=0.0)
    base = set_loss(logits_t, joints_t, [gts], [assignment]).total.item()
    moved = joints_t.data.copy()
    moved[0, 1, 10] += 0.5 * (gts[0][1][10] - moved[0, 1, 10])  # halve one residual
    better = set_loss(logits_t, Tensor(moved), [gts], [assignment]).total.item()
    assert better < base


def test_matched_cost_is_optimal_over_enumeration():
    # hungarian's assignment never loses to any other injective map on the
    # matching cost (the -p/L1 objective), checked exhaustively at n <= 3
    rng = PortableRng(54)
    for n_gt in (1, 2, 3):
        for _ in range(20):
            logits = np.array(rng.uniform_list(4 * 3, -3, 3)).reshape(1, 4, 3)
            joints = np.array(rng.uniform_list(4 * 63, 0, 1)).reshape(1, 4, 63)
            sides = [HandSide.LEFT if rng.bernoulli(0.5) else HandSide.RIGHT
                     for _ in range(n_gt)]
            gts = make_gts(rng, sides)
            (costs,) = build_cost_matrix(logits, joints, [gts])
            chosen = hungarian(costs)
            for perm in itertools.permutations(range(4), n_gt):
                alt = sum(costs[g, q] for g, q in enumerate(perm))
                assert chosen.total_cost <= alt + 1e-12


def test_set_loss_inconsistent_assignment():
    rng = PortableRng(55)
    logits_t, joints_t = make_preds(rng, 3)
    gts = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], [Assignment(pairs=((0, 1),), total_cost=0.0)])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts],
                 [Assignment(pairs=((0, 1), (1, 7)), total_cost=0.0)])
    # one ground-truth list and one assignment per image
    good = Assignment(pairs=((0, 1), (1, 2)), total_cost=0.0)
    set_loss(logits_t, joints_t, [gts], [good])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], [good, good])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], [])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts, []], [good])
    with pytest.raises(ShapeError):  # one image without its batch axis
        set_loss(logits_t[0], joints_t[0], [gts], [good])

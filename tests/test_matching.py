from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from setpose.errors import InconsistentAssignment, NonFinite, ShapeError
from setpose.geometry import HandSide
from setpose.matching import (
    _TIE_RTOL,
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
    """A (2, n_cols) slot cost matrix whose first n_rows rows are filled."""
    costs = np.zeros((2, n_cols))
    costs[:n_rows] = np.array(rng.uniform_list(n_rows * n_cols, -10.0, 10.0)).reshape(
        n_rows, n_cols)
    return costs


def total_cost(costs: np.ndarray, queries) -> float:
    return costs[np.arange(len(costs)), list(queries)].sum()


# -- hungarian -----------------------------------------------------------------

def test_hungarian_diagonal_optimum():
    query = hungarian(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert query.dtype == np.intp
    assert query.tolist() == [[0, 1]]


def test_hungarian_2x2_enumerated():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    (queries,) = hungarian(costs[None])
    assert queries.tolist() == [0, 1]
    assert total_cost(costs, queries) == 2.0 == brute_force_min(costs)


def test_hungarian_ragged_batch_enumerated():
    # every image is solved on its own, so one query may serve two images;
    # in the first image row 0 gives up its cheapest query to row 1. Empty
    # slots are zero rows.
    costs = np.array([[[4.0, 1.0, 3.0], [5.0, 0.0, 5.0]],
                      [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                      [[3.0, 2.0, 2.0], [0.0, 0.0, 0.0]],
                      [[5.0, 0.0, 5.0], [4.0, 1.0, 3.0]]])
    n_gts = [2, 0, 1, 2]
    query = hungarian(costs)
    assert query.tolist() == [[2, 1], [0, 1], [1, 0], [1, 2]]
    chosen = [q[:n].tolist() for q, n in zip(query, n_gts)]
    assert chosen == [[2, 1], [], [1], [1, 2]]
    totals = [total_cost(c[:n], q) for c, q, n in zip(costs, chosen, n_gts)]
    assert totals == [3.0, 0.0, 2.0, 3.0] == [brute_force_min(c[:n])
                                              for c, n in zip(costs, n_gts)]


def test_hungarian_random_vs_enumeration():
    rng = PortableRng(40)
    for _ in range(50):
        n_queries = 2 + rng.next_u64() % 7
        n_gts = [rng.next_u64() % 3 for _ in range(5)]
        costs = np.stack([random_costs(rng, n, n_queries) for n in n_gts])
        for c, q, n in zip(costs, hungarian(costs), n_gts):
            assert total_cost(c[:n], q[:n]) == brute_force_min(c[:n])


def test_hungarian_row_shift_keeps_argmin():
    rng = PortableRng(41)
    costs = np.stack([random_costs(rng, 2, 5) for _ in range(50)])
    shifted = costs.copy()
    for b, c in enumerate(shifted):
        c[b % 2] += 7.25
    assert hungarian(costs).tolist() == hungarian(shifted).tolist()


def test_hungarian_lexicographic_ties():
    # every assignment costs 0 -> (0, 1) is the lexicographically smallest
    assert hungarian(np.zeros((1, 2, 5))).tolist() == [[0, 1]]
    # both diagonals cost 4 -> prefer query 0 for row 0
    costs = np.array([[1.0, 2.0], [2.0, 3.0]])
    (queries,) = hungarian(costs[None])
    assert queries.tolist() == [0, 1]
    assert total_cost(costs, queries) == 4.0


def test_hungarian_tie_needs_subsolve():
    # row 0 alone prefers query 0, but the only optimal pair needs query 0
    # for row 1
    costs = np.array([[0.0, 0.0], [0.0, 100.0]])
    (queries,) = hungarian(costs[None])
    assert queries.tolist() == [1, 0]
    assert total_cost(costs, queries) == 0.0


def test_hungarian_empty_and_single():
    empty = hungarian(np.zeros((0, 2, 4)))
    assert empty.dtype == np.intp and empty.shape == (0, 2)
    # one filled slot takes its cheapest query, the empty one the first other
    assert hungarian(np.array([[[3.0, 1.0, 2.0], [0.0, 0.0, 0.0]]])).tolist() == [[1, 0]]


def test_hungarian_shape_and_finite_errors():
    with pytest.raises(ShapeError):  # three slots in one image
        hungarian(np.zeros((1, 3, 4)))
    with pytest.raises(ShapeError):  # one query
        hungarian(np.zeros((1, 2, 1)))
    with pytest.raises(ShapeError):
        hungarian(np.zeros((0, 2, 1)))
    with pytest.raises(ShapeError):  # one image without its batch axis
        hungarian(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        hungarian(np.zeros(4))
    bad = np.zeros((2, 2, 3))
    bad[1, 0, 1] = np.nan
    with pytest.raises(NonFinite):
        hungarian(bad)
    bad[1, 0, 1] = np.inf
    with pytest.raises(NonFinite):
        hungarian(bad)


FLOAT_COSTS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
SMALL_INT_COSTS = st.integers(-3, 3).map(float)  # ties often, sums stay exact


@st.composite
def cost_batches(draw, values=None) -> tuple[np.ndarray, list[int]]:
    """(B, 2, Q) costs of 1-4 images, each with 0-2 filled slots (its
    n_gts) and 2-6 queries, and the n_gts list; float or small-integer
    costs unless `values` is given, 0 in an empty slot's row."""
    n_queries = draw(st.integers(2, 6))
    if values is None:
        values = draw(st.sampled_from([FLOAT_COSTS, SMALL_INT_COSTS]))
    n_gts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    costs = draw(arrays(np.float64, (len(n_gts), 2, n_queries), elements=values))
    costs[np.arange(2) >= np.array(n_gts)[:, None]] = 0.0
    return costs, n_gts


@settings(derandomize=True, database=None, deadline=None)
@given(cost_batches())
def test_hungarian_is_the_first_optimum_in_lexicographic_order(batch):
    costs, n_gts = batch
    for c, q, n in zip(costs, hungarian(costs), n_gts):
        c, queries = c[:n], tuple(q[:n].tolist())  # the filled slots only
        perms = list(itertools.permutations(range(c.shape[1]), n))
        totals = [total_cost(c, p) for p in perms]  # lexicographic order
        best = min(totals)
        tol = _TIE_RTOL * max(1.0, abs(best))
        assert best == brute_force_min(c)
        assert queries == next(p for p, t in zip(perms, totals) if t <= best + tol)
        assert total_cost(c, queries) <= best + tol
        rows, cols = linear_sum_assignment(c)
        assert abs(total_cost(c, queries) - c[rows, cols].sum()) <= tol


@settings(derandomize=True, database=None, deadline=None)
@given(cost_batches(SMALL_INT_COSTS), st.integers(0, 3), st.integers(0, 1),
       st.integers(-20, 20))
def test_hungarian_ignores_a_constant_added_to_one_row(batch, image, row, shift):
    costs, _ = batch
    shifted = costs.copy()
    shifted[image % len(costs), row] += shift
    assert hungarian(shifted).tolist() == hungarian(costs).tolist()


# -- build_cost_matrix -------------------------------------------------------------

def match_cost(side: HandSide, gt: np.ndarray, logits: np.ndarray,
               pred_joints: np.ndarray, lam_cls: float, lam_l1: float) -> float:
    """The cost of one (ground truth, query) pair, as a batch of one image
    with one query, one filled slot and one empty one."""
    costs = build_cost_matrix(logits[None, None], pred_joints[None, None],
                              np.array([[class_index(side), -1]]),
                              np.stack([gt, np.ones_like(gt)])[None],
                              lam_cls=lam_cls, lam_l1=lam_l1)
    assert costs.shape == (1, 2, 1) and costs[0, 1, 0] == 0.0
    return costs[0, 0, 0]


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
    sides = [[HandSide.RIGHT, HandSide.LEFT], [], [HandSide.LEFT]]
    gt_cls, gt_joints = make_gts(rng, *sides)
    costs = build_cost_matrix(logits, joints, gt_cls, gt_joints, lam_cls=0.5, lam_l1=3.0)
    assert costs.shape == (3, 2, 4)
    for b, image_sides in enumerate(sides):
        assert not costs[b, len(image_sides):].any()  # empty slots cost 0
        for g, side in enumerate(image_sides):
            for q in range(4):
                # same arithmetic one pair at a time, so equal to the last bit
                z = logits[b, q] - logits[b, q].max()
                p = np.exp(z) / np.exp(z).sum()
                expected = (0.5 * -p[class_index(side)]
                            + 3.0 * np.abs(joints[b, q] - gt_joints[b, g]).mean())
                assert costs[b, g, q] == expected
    with pytest.raises(ShapeError):
        build_cost_matrix(logits, joints, gt_cls[:2], gt_joints[:2])


# -- set_loss ------------------------------------------------------------------

def make_preds(rng: PortableRng, n_queries: int, n_images: int = 1) -> tuple[Tensor, Tensor]:
    shape = (n_images, n_queries)
    logits = Tensor(np.array(rng.uniform_list(n_images * n_queries * 3, -2, 2)).reshape(
        *shape, 3), requires_grad=True)
    joints = Tensor(np.array(rng.uniform_list(n_images * n_queries * 63, 0, 1)).reshape(
        *shape, 63), requires_grad=True)
    return logits, joints


def make_gts(rng: PortableRng, *images) -> tuple[np.ndarray, np.ndarray]:
    """The packed ground truth of one image per list of sides: (B, 2) side
    codes, -1 in an empty slot, and (B, 2, 63) joints, random in a filled
    slot and 0 in an empty one."""
    gt_cls = np.full((len(images), 2), -1, dtype=np.int8)
    gt_joints = np.zeros((len(images), 2, 63))
    for b, sides in enumerate(images):
        for k, side in enumerate(sides):
            gt_cls[b, k] = class_index(side)
            gt_joints[b, k] = rng.uniform_list(63, 0, 1)
    return gt_cls, gt_joints


def test_set_loss_zero_l1_on_exact_match():
    rng = PortableRng(50)
    gt_cls, gt_joints = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    logits = Tensor(np.zeros((1, 4, 3)), requires_grad=True)
    joints = np.array(rng.uniform_list(4 * 63, 0, 1)).reshape(1, 4, 63)
    joints[0, 2] = gt_joints[0, 0]
    joints[0, 0] = gt_joints[0, 1]
    loss = set_loss(logits, Tensor(joints, requires_grad=True), gt_cls, gt_joints,
                    np.array([[2, 0]]))
    assert loss.l1_loss.item() == 0.0


def test_set_loss_confident_correct_ce_is_zero():
    gt_cls = np.array([[class_index(HandSide.LEFT), -1]])
    gt_joints = np.zeros((1, 2, 63))
    gt_joints[0, 0] = 0.5
    logits = np.zeros((3, 3))
    logits[1] = [200.0, 0.0, 0.0]   # matched query, p(left) = 1 to double precision
    logits[0, CLASS_NO_HAND] = 200.0  # unmatched queries confident no-hand
    logits[2, CLASS_NO_HAND] = 200.0
    joints = np.tile(gt_joints[0, 0], (3, 1))
    loss = set_loss(Tensor(logits[None]), Tensor(joints[None]), gt_cls, gt_joints,
                    np.array([[1, 0]]))
    assert loss.cls_loss.item() < 1e-12
    assert loss.total.item() < 1e-11


def scalar_image_loss(logits, joints, gts, pairs, lam_cls, lam_l1, w_noobj):
    """Straight-line re-evaluation of the documented per-image formula, for
    gts the image's (side, 63 joints) list and pairs its (row, query) list."""
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
    sides = [[HandSide.RIGHT, HandSide.LEFT], [HandSide.LEFT], []]
    gt_cls, gt_joints = make_gts(rng, *sides)
    pairs = [((0, 3), (1, 1)), ((0, 2),), ()]
    lam_cls, lam_l1, w_noobj = 1.0, 5.0, 0.1
    query = np.zeros((3, 2), dtype=np.intp)  # empty slots keep query 0
    for b, image_pairs in enumerate(pairs):
        for row, col in image_pairs:
            query[b, row] = col
    loss = set_loss(logits_t, joints_t, gt_cls, gt_joints, query, lam_cls, lam_l1, w_noobj)

    image_terms = [scalar_image_loss(logits_t.data[b], joints_t.data[b],
                                     [(side, gt_joints[b, k]) for k, side in enumerate(s)],
                                     pairs[b], lam_cls, lam_l1, w_noobj)
                   for b, s in enumerate(sides)]
    assert image_terms[2][1] == 0.0  # the image without hands adds no L1
    cls_ref, l1_ref, total_ref = (sum(terms) / 3 for terms in zip(*image_terms))
    assert abs(loss.cls_loss.item() - cls_ref) < 1e-12
    assert abs(loss.l1_loss.item() - l1_ref) < 1e-12
    assert abs(loss.total.item() - total_ref) < 1e-12


def test_set_loss_permutation_invariant():
    rng = PortableRng(52)
    n_queries = 5
    logits_t, joints_t = make_preds(rng, n_queries)
    gt_cls, gt_joints = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    query = np.array([[0, 4]])
    base = set_loss(logits_t, joints_t, gt_cls, gt_joints, query)

    perm = [3, 0, 4, 1, 2]  # query q moves to position perm.index(q)
    inv = np.argsort(perm)
    logits_p = Tensor(logits_t.data[:, perm])
    joints_p = Tensor(joints_t.data[:, perm])
    permuted = set_loss(logits_p, joints_p, gt_cls, gt_joints, inv[query])
    assert abs(base.total.item() - permuted.total.item()) < 1e-12


def test_set_loss_strictly_decreases_toward_gt():
    rng = PortableRng(53)
    logits_t, joints_t = make_preds(rng, 3)
    gt_cls, gt_joints = make_gts(rng, [HandSide.LEFT])
    query = np.array([[1, 0]])
    base = set_loss(logits_t, joints_t, gt_cls, gt_joints, query).total.item()
    moved = joints_t.data.copy()
    moved[0, 1, 10] += 0.5 * (gt_joints[0, 0, 10] - moved[0, 1, 10])  # halve one residual
    better = set_loss(logits_t, Tensor(moved), gt_cls, gt_joints, query).total.item()
    assert better < base


def test_matched_cost_is_optimal_over_enumeration():
    # hungarian's assignment never loses to any other injective map on the
    # matching cost (the -p/L1 objective), checked exhaustively per image
    rng = PortableRng(54)
    for _ in range(20):
        logits = np.array(rng.uniform_list(3 * 4 * 3, -3, 3)).reshape(3, 4, 3)
        joints = np.array(rng.uniform_list(3 * 4 * 63, 0, 1)).reshape(3, 4, 63)
        sides = ([HandSide.LEFT], [HandSide.RIGHT, HandSide.LEFT], [])
        costs = build_cost_matrix(logits, joints, *make_gts(rng, *sides))
        for c, q, image_sides in zip(costs, hungarian(costs), sides):
            c, queries = c[:len(image_sides)], q[:len(image_sides)]
            for perm in itertools.permutations(range(4), len(c)):
                assert total_cost(c, queries) <= total_cost(c, perm) + 1e-12


def test_set_loss_inconsistent_assignment():
    rng = PortableRng(55)
    logits_t, joints_t = make_preds(rng, 3)
    gt_cls, gt_joints = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    with pytest.raises(InconsistentAssignment):  # not one query per slot
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([1, 2]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([[1, 7]]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([[1, -1]]))
    # one (B, 2) ground truth and one query per slot
    good = np.array([[1, 2]])
    set_loss(logits_t, joints_t, gt_cls, gt_joints, good)
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([[1, 2], [1, 2]]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.zeros((0, 2), dtype=np.intp))
    with pytest.raises(ShapeError):  # two images' ground truth for one image
        set_loss(logits_t, joints_t, np.concatenate([gt_cls, gt_cls]),
                 np.concatenate([gt_joints, gt_joints]), good)
    with pytest.raises(ShapeError):  # one image without its batch axis
        set_loss(logits_t[0], joints_t[0], gt_cls, gt_joints, good)
    # an empty slot's query is never read, so it may be anything
    one_hand = gt_cls.copy()
    one_hand[0, 1] = -1
    set_loss(logits_t, joints_t, one_hand, gt_joints, np.array([[1, 7]]))


def test_set_loss_rejects_a_query_matched_twice_in_one_image():
    rng = PortableRng(57)
    logits_t, joints_t = make_preds(rng, 3, n_images=2)
    gt_cls, gt_joints = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT], [HandSide.LEFT])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([[1, 1], [0, 2]]))
    # query 1 of image 0 and query 1 of image 1 are different predictions;
    # image 1's empty slot repeating its query 1 is never read
    set_loss(logits_t, joints_t, gt_cls, gt_joints, np.array([[1, 0], [1, 1]]))

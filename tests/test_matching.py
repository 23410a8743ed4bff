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
    return np.array(rng.uniform_list(n_rows * n_cols, -10.0, 10.0)).reshape(
        n_rows, n_cols)


def per_image(costs: list[np.ndarray], query: np.ndarray) -> list[tuple[int, ...]]:
    """hungarian's flat result cut into one query tuple per image."""
    cuts = np.cumsum([len(c) for c in costs])[:-1]
    return [tuple(int(q) for q in part) for part in np.split(query, cuts)]


def total_cost(costs: np.ndarray, queries: tuple[int, ...]) -> float:
    return costs[np.arange(len(costs)), list(queries)].sum()


# -- hungarian -----------------------------------------------------------------

def test_hungarian_diagonal_optimum():
    query = hungarian([np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert query.dtype == np.intp
    assert query.tolist() == [0, 1]


def test_hungarian_2x2_enumerated():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    (queries,) = per_image([costs], hungarian([costs]))
    assert queries == (0, 1)
    assert total_cost(costs, queries) == 2.0 == brute_force_min(costs)


def test_hungarian_ragged_batch_enumerated():
    # every image is solved on its own, so one query may serve two images;
    # in the first image row 0 gives up its cheapest query to row 1
    costs = [np.array([[4.0, 1.0, 3.0], [5.0, 0.0, 5.0]]),
             np.zeros((0, 3)),
             np.array([[3.0, 2.0, 2.0]]),
             np.array([[5.0, 0.0, 5.0], [4.0, 1.0, 3.0]])]
    query = hungarian(costs)
    assert query.tolist() == [2, 1, 1, 1, 2]
    chosen = per_image(costs, query)
    assert chosen == [(2, 1), (), (1,), (1, 2)]
    totals = [total_cost(c, q) for c, q in zip(costs, chosen)]
    assert totals == [3.0, 0.0, 2.0, 3.0] == [brute_force_min(c) for c in costs]


def test_hungarian_random_vs_enumeration():
    rng = PortableRng(40)
    for _ in range(50):
        n_queries = 2 + rng.next_u64() % 7
        costs = [random_costs(rng, rng.next_u64() % 3, n_queries) for _ in range(5)]
        for c, queries in zip(costs, per_image(costs, hungarian(costs))):
            assert total_cost(c, queries) == brute_force_min(c)


def test_hungarian_row_shift_keeps_argmin():
    rng = PortableRng(41)
    costs = [random_costs(rng, 2, 5) for _ in range(50)]
    shifted = [c.copy() for c in costs]
    for b, c in enumerate(shifted):
        c[b % 2] += 7.25
    assert hungarian(costs).tolist() == hungarian(shifted).tolist()


def test_hungarian_lexicographic_ties():
    # every assignment costs 0 -> (0, 1) is the lexicographically smallest
    assert hungarian([np.zeros((2, 5))]).tolist() == [0, 1]
    # both diagonals cost 4 -> prefer query 0 for row 0
    costs = np.array([[1.0, 2.0], [2.0, 3.0]])
    (queries,) = per_image([costs], hungarian([costs]))
    assert queries == (0, 1)
    assert total_cost(costs, queries) == 4.0


def test_hungarian_tie_needs_subsolve():
    # row 0 alone prefers query 0, but the only optimal pair needs query 0
    # for row 1
    costs = np.array([[0.0, 0.0], [0.0, 100.0]])
    (queries,) = per_image([costs], hungarian([costs]))
    assert queries == (1, 0)
    assert total_cost(costs, queries) == 0.0


def test_hungarian_empty_and_single():
    empty = hungarian([np.zeros((0, 4)), np.zeros((0, 4))])
    assert empty.dtype == np.intp and empty.shape == (0,)
    assert hungarian([np.array([[3.0, 1.0, 2.0]])]).tolist() == [1]


def test_hungarian_shape_and_finite_errors():
    with pytest.raises(ShapeError):  # three ground truths in one image
        hungarian([np.zeros((3, 4))])
    with pytest.raises(ShapeError):  # one query
        hungarian([np.zeros((1, 1))])
    with pytest.raises(ShapeError):
        hungarian([np.zeros((0, 1))])
    with pytest.raises(ShapeError):
        hungarian([np.zeros(4)])
    with pytest.raises(ShapeError):  # images disagree on n_queries
        hungarian([np.zeros((1, 3)), np.zeros((1, 4))])
    bad = np.zeros((2, 3))
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        hungarian([np.zeros((1, 3)), bad])
    bad[0, 1] = np.inf
    with pytest.raises(NonFinite):
        hungarian([bad])


FLOAT_COSTS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
SMALL_INT_COSTS = st.integers(-3, 3).map(float)  # ties often, sums stay exact


@st.composite
def cost_batches(draw, values=None) -> list[np.ndarray]:
    """1-4 images of 0-2 ground truths and 2-6 queries; float or
    small-integer costs unless `values` is given."""
    n_queries = draw(st.integers(2, 6))
    if values is None:
        values = draw(st.sampled_from([FLOAT_COSTS, SMALL_INT_COSTS]))
    return [draw(arrays(np.float64, (n_gts, n_queries), elements=values))
            for n_gts in draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))]


@settings(derandomize=True, database=None, deadline=None)
@given(cost_batches())
def test_hungarian_is_the_first_optimum_in_lexicographic_order(costs):
    for c, queries in zip(costs, per_image(costs, hungarian(costs))):
        perms = list(itertools.permutations(range(c.shape[1]), len(c)))
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
def test_hungarian_ignores_a_constant_added_to_one_row(costs, image, row, shift):
    shifted = [c.copy() for c in costs]
    shifted[image % len(costs)][row:row + 1] += shift
    assert hungarian(shifted).tolist() == hungarian(costs).tolist()


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
    loss = set_loss(logits, Tensor(joints, requires_grad=True), [gts], np.array([2, 0]))
    assert loss.l1_loss.item() == 0.0


def test_set_loss_confident_correct_ce_is_zero():
    gts = [(HandSide.LEFT, np.full(63, 0.5))]
    logits = np.zeros((3, 3))
    logits[1] = [200.0, 0.0, 0.0]   # matched query, p(left) = 1 to double precision
    logits[0, CLASS_NO_HAND] = 200.0  # unmatched queries confident no-hand
    logits[2, CLASS_NO_HAND] = 200.0
    joints = np.tile(gts[0][1], (3, 1))
    loss = set_loss(Tensor(logits[None]), Tensor(joints[None]), [gts], np.array([1]))
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
    query = np.array([col for p in pairs for _, col in p])
    loss = set_loss(logits_t, joints_t, gts, query, lam_cls, lam_l1, w_noobj)

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
    base = set_loss(logits_t, joints_t, [gts], np.array([0, 4]))

    perm = [3, 0, 4, 1, 2]  # query q moves to position perm.index(q)
    inv = np.argsort(perm)
    logits_p = Tensor(logits_t.data[:, perm])
    joints_p = Tensor(joints_t.data[:, perm])
    permuted = set_loss(logits_p, joints_p, [gts], inv[[0, 4]])
    assert abs(base.total.item() - permuted.total.item()) < 1e-12


def test_set_loss_strictly_decreases_toward_gt():
    rng = PortableRng(53)
    logits_t, joints_t = make_preds(rng, 3)
    gts = make_gts(rng, [HandSide.LEFT])
    query = np.array([1])
    base = set_loss(logits_t, joints_t, [gts], query).total.item()
    moved = joints_t.data.copy()
    moved[0, 1, 10] += 0.5 * (gts[0][1][10] - moved[0, 1, 10])  # halve one residual
    better = set_loss(logits_t, Tensor(moved), [gts], query).total.item()
    assert better < base


def test_matched_cost_is_optimal_over_enumeration():
    # hungarian's assignment never loses to any other injective map on the
    # matching cost (the -p/L1 objective), checked exhaustively per image
    rng = PortableRng(54)
    for _ in range(20):
        logits = np.array(rng.uniform_list(3 * 4 * 3, -3, 3)).reshape(3, 4, 3)
        joints = np.array(rng.uniform_list(3 * 4 * 63, 0, 1)).reshape(3, 4, 63)
        gts = [make_gts(rng, sides) for sides in
               ([HandSide.LEFT], [HandSide.RIGHT, HandSide.LEFT], [])]
        costs = build_cost_matrix(logits, joints, gts)
        for c, queries in zip(costs, per_image(costs, hungarian(costs))):
            for perm in itertools.permutations(range(4), len(c)):
                assert total_cost(c, queries) <= total_cost(c, perm) + 1e-12


def test_set_loss_inconsistent_assignment():
    rng = PortableRng(55)
    logits_t, joints_t = make_preds(rng, 3)
    gts = make_gts(rng, [HandSide.LEFT, HandSide.RIGHT])
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], np.array([1]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], np.array([1, 7]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], np.array([1, -1]))
    # one ground-truth list per image and one query per ground truth
    good = np.array([1, 2])
    set_loss(logits_t, joints_t, [gts], good)
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], np.array([1, 2, 1, 2]))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts], np.array([], dtype=np.intp))
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, [gts, []], good)
    with pytest.raises(ShapeError):  # one image without its batch axis
        set_loss(logits_t[0], joints_t[0], [gts], good)


def test_set_loss_rejects_a_query_matched_twice_in_one_image():
    rng = PortableRng(57)
    logits_t, joints_t = make_preds(rng, 3, n_images=2)
    gts = [make_gts(rng, [HandSide.LEFT, HandSide.RIGHT]), make_gts(rng, [HandSide.LEFT])]
    with pytest.raises(InconsistentAssignment):
        set_loss(logits_t, joints_t, gts, np.array([1, 1, 0]))
    # query 1 of image 0 and query 1 of image 1 are different predictions
    set_loss(logits_t, joints_t, gts, np.array([1, 0, 1]))

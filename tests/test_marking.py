import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracadapt.driver import MARKING_SLACK, doerfler_mark
from fracadapt.fem import ParametricState


class _FakeScheme:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.N = len(a)


def _states(indicator_lists):
    out = []
    for l, ind in enumerate(indicator_lists):
        out.append(
            ParametricState(
                index=l,
                mesh=None,
                solution=None,
                indicators=np.asarray(ind, dtype=float),
                dirty=False,
            )
        )
    return out


def _exhaustive_minimum(weighted_sq, theta):
    """Smallest number of (problem, cell) picks whose squared sum reaches the
    bulk fraction; brute force over all subsets."""
    flat = [v for row in weighted_sq for v in row]
    total = sum(flat)
    if total == 0.0:
        return 0
    for size in range(len(flat) + 1):
        for combo in itertools.combinations(flat, size):
            if sum(combo) >= theta * total - MARKING_SLACK * total:
                return size
    return len(flat)


def test_single_dominant_cell():
    scheme = _FakeScheme([1.0, 1.0])
    states = _states([[10.0, 0.1], [0.1, 0.1]])
    marks = doerfler_mark(states, scheme, 0.5)
    assert marks == [{0}, set()]


def test_theta_one_marks_all_positive_cells():
    scheme = _FakeScheme([1.0])
    states = _states([[1.0, 2.0, 0.0, 3.0]])
    marks = doerfler_mark(states, scheme, 1.0)
    assert marks[0] == {0, 1, 3}


def test_weights_reorder_priority():
    # identical raw indicators, but the a_l weight makes problem 1 dominant
    scheme = _FakeScheme([1.0, 100.0])
    states = _states([[1.0, 1.0], [1.0, 1.0]])
    marks = doerfler_mark(states, scheme, 0.4)
    assert marks[0] == set()
    assert len(marks[1]) == 1


def test_all_zero_indicators():
    scheme = _FakeScheme([1.0, 1.0])
    states = _states([[0.0, 0.0], [0.0, 0.0]])
    assert doerfler_mark(states, scheme, 0.5) == [set(), set()]


def test_dirty_state_rejected():
    scheme = _FakeScheme([1.0])
    states = _states([[1.0]])
    states[0].dirty = True
    with pytest.raises(ValueError):
        doerfler_mark(states, scheme, 0.5)


def test_deterministic_tie_break():
    # equal values: the earliest (problem, cell) pair wins
    scheme = _FakeScheme([1.0, 1.0])
    states = _states([[1.0, 1.0], [1.0, 1.0]])
    marks = doerfler_mark(states, scheme, 0.25)
    assert marks == [{0}, set()]


def test_oracle_shares_marking_slack():
    # a remainder between 1e-14 and 1e-12 of the total: theta = 1 needs both
    scheme = _FakeScheme([1.0, 1.0])
    inds = [[np.sqrt(1.196e-10)], [12.0]]
    marks = doerfler_mark(_states(inds), scheme, 1.0)
    weighted_sq = [[v**2 for v in row] for row in inds]
    assert marks == [{0}, {0}]
    assert _exhaustive_minimum(weighted_sq, 1.0) == 2


def test_underflowing_bulk_target_needs_no_mark():
    # (0.5 * 9.67e-162)^2 is subnormal and 0.0625 times it rounds to zero,
    # so the empty set already reaches the bulk target
    inds = [[9.666352358710097e-162]]
    marks = doerfler_mark(_states(inds), _FakeScheme([0.5]), 0.0625)
    assert marks == [set()]
    assert _exhaustive_minimum([[(0.5 * inds[0][0]) ** 2]], 0.0625) == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_minimal_cardinality_against_exhaustive_oracle(data):
    n_problems = data.draw(st.integers(1, 3))
    sizes = [data.draw(st.integers(1, 4)) for _ in range(n_problems)]
    while sum(sizes) > 12:
        sizes[sizes.index(max(sizes))] -= 1
    inds = [
        [data.draw(st.floats(0.0, 10.0)) for _ in range(sz)] for sz in sizes
    ]
    a = [data.draw(st.floats(0.1, 10.0)) for _ in range(n_problems)]
    theta = data.draw(st.floats(0.05, 1.0))
    scheme = _FakeScheme(a)
    states = _states(inds)
    marks = doerfler_mark(states, scheme, theta)

    weighted_sq = [
        [(a[l] * v) ** 2 for v in inds[l]] for l in range(n_problems)
    ]
    total = sum(v for row in weighted_sq for v in row)
    picked = sum(
        weighted_sq[l][k] for l in range(n_problems) for k in marks[l]
    )
    # bulk criterion
    assert picked >= theta * total - 1e-9 * max(total, 1.0)
    # minimal cardinality
    card = sum(len(m) for m in marks)
    assert card == _exhaustive_minimum(weighted_sq, theta)


def test_thousand_random_trials_against_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_problems = rng.integers(1, 4)
        sizes = rng.integers(1, 5, size=n_problems)
        while sizes.sum() > 12:
            sizes[np.argmax(sizes)] -= 1
        inds = [rng.uniform(0.0, 10.0, size=sz) for sz in sizes]
        a = rng.uniform(0.1, 10.0, size=n_problems)
        theta = rng.uniform(0.05, 1.0)
        scheme = _FakeScheme(a)
        marks = doerfler_mark(_states(inds), scheme, theta)
        weighted_sq = [list((a[l] * inds[l]) ** 2) for l in range(n_problems)]
        total = sum(v for row in weighted_sq for v in row)
        picked = sum(weighted_sq[l][k] for l in range(n_problems) for k in marks[l])
        assert picked >= theta * total - 1e-9 * total
        assert sum(len(m) for m in marks) == _exhaustive_minimum(weighted_sq, theta)

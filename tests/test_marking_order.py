import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import marking_reference
from fracadapt import driver
from fracadapt.driver import doerfler_mark
from fracadapt.fem import ParametricState


class _FakeScheme:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.N = len(a)


# Integer indicators and weights make every square, partial sum and total
# exact, so both implementations see the same bulk target whatever order the
# states come in, and ties occur within and across problems.  The subnormal
# scale puts every square on the subnormal grid, where sums are exact too.
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_marks_equal_lexsort_reference(data):
    n_problems = data.draw(st.integers(1, 5))
    inds = [
        data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
        for _ in range(n_problems)
    ]
    a = data.draw(st.lists(st.integers(1, 3), min_size=n_problems, max_size=n_problems))
    scale = data.draw(st.sampled_from([1.0, 1e-162]))
    theta = data.draw(st.sampled_from([0.05, 0.25, 0.5, 0.7, 1.0]))
    states = [
        ParametricState(
            index=l,
            mesh=None,
            solution=None,
            indicators=scale * np.asarray(ind, dtype=float),
            dirty=False,
        )
        for l, ind in enumerate(inds)
    ]
    states = data.draw(st.permutations(states))
    scheme = _FakeScheme(a)
    assert doerfler_mark(states, scheme, theta) == marking_reference.doerfler_mark(
        states, scheme, theta
    )


def _states(inds):
    return [
        ParametricState(index=l, mesh=None, solution=None, indicators=ind, dirty=False)
        for l, ind in enumerate(inds)
    ]


def test_prefix_that_outgrows_the_first_partition(monkeypatch):
    # the 18th largest of 600 values is a 3 shared by problems 0 and 1; their
    # 200 threes hold 1800 of 2800, short of the 2240 target, so the selection
    # grows to the 400th largest, a 2 shared by problems 0 and 2, and marks
    # 110 of the twos by (l, cell id)
    inds = [np.r_[np.full(100, 3.0), np.full(100, 2.0)], np.full(100, 3.0),
            np.r_[np.full(100, 2.0), np.full(200, 1.0)]]
    states, scheme = _states(inds), _FakeScheme([1, 1, 1])
    real, calls = driver._partition_at, []

    def spy(vals, kth):
        calls.append(kth)
        return real(vals, kth)

    monkeypatch.setattr(driver, "_partition_at", spy)
    marks = doerfler_mark(states, scheme, 0.8)
    assert calls == [600 - 18, 600 - 400]
    assert marks == marking_reference.doerfler_mark(states, scheme, 0.8)
    assert [len(m) for m in marks] == [200, 100, 10]


@pytest.mark.parametrize("seed", range(30))
def test_marks_equal_reference_on_large_tied_pools(seed):
    # hundreds of pairs with few distinct values: the k-th largest is tied
    # within and across problems, and most thetas need more than one round
    rng = np.random.default_rng(seed)
    n_problems = int(rng.integers(2, 6))
    inds = [rng.integers(0, 7, size=int(rng.integers(50, 300))).astype(float)
            for _ in range(n_problems)]
    states = _states(inds)
    scheme = _FakeScheme(rng.integers(1, 4, size=n_problems))
    for theta in (0.05, 0.3, 0.5, 0.9, 1.0):
        assert doerfler_mark(states, scheme, theta) == marking_reference.doerfler_mark(
            states, scheme, theta
        )


def test_marking_holds_one_pool():
    # 64 problems of 20,000 cells whose bulk lies in a few percent of them,
    # so that the marks stay small: the call's working set is the pooled
    # array of (a_l eta)^2, its mask and the selected ids, not two pools
    rng = np.random.default_rng(0)
    states = _states([np.exp(-20.0 * rng.random(20_000)) for _ in range(64)])
    scheme = _FakeScheme(rng.uniform(0.5, 2.0, size=64))
    pool_bytes = 64 * 20_000 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        marks = doerfler_mark(states, scheme, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < sum(len(m) for m in marks) < 0.05 * 64 * 20_000
    assert peak < 1.3 * pool_bytes

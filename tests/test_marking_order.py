import numpy as np
from hypothesis import given, settings, strategies as st

import marking_reference
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

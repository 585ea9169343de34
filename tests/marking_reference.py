"""Loop reference for ``fracadapt.driver.doerfler_mark``.

This is the marking the one-sort version replaced, kept unchanged as the
reference the tests compare against: every (problem, cell) pair is pooled
with its problem index and cell id, ``np.lexsort`` orders them by decreasing
(a_l * eta_{l,K})^2 with ties broken by ascending (l, cell id), and a Python
loop hands each marked pair to its state.
"""

import numpy as np

from fracadapt.driver import MARKING_SLACK


def doerfler_mark(states, scheme, theta):
    ls = []
    ks = []
    vals = []
    for st in states:
        if st.dirty:
            raise ValueError(f"state {st.index} has stale indicators")
        n = len(st.indicators)
        ls.append(np.full(n, st.index))
        ks.append(np.arange(n))
        vals.append((scheme.a[st.index] * st.indicators) ** 2)
    ls = np.concatenate(ls)
    ks = np.concatenate(ks)
    vals = np.concatenate(vals)
    total = vals.sum()
    target = theta * total - MARKING_SLACK * total
    marks = [set() for _ in states]
    if target <= 0.0:  # the empty prefix reaches it, also when it underflows
        return marks
    order = np.lexsort((ks, ls, -vals))
    cum = np.cumsum(vals[order])
    take = int(np.searchsorted(cum, target) + 1)
    take = min(take, len(order))
    pos = {st.index: i for i, st in enumerate(states)}
    for idx in order[:take]:
        marks[pos[int(ls[idx])]].add(int(ks[idx]))
    return marks

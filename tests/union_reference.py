"""Per-problem reference for the union pass in ``fracadapt.estimators``.

This is ``global_union_estimate`` as it was before the pass summed a large
coarser source group's solutions per (lam, |K|) class: every group runs the
estimator kernel ``_modal_coeffs`` once per block of up to ``_BLOCK``
problems on every union cell.  The tests compare the pass against it: bit
for bit where every group takes the kernel, within rounding where a group
takes the weighted sums.
"""

import numpy as np

from fracadapt import mesh as meshmod
from fracadapt.estimators import (
    _BLOCK,
    _cell_matvec,
    _columns,
    _corner_values,
    _edge_jumps,
    _geometry,
    _jump_sides,
    _modal_coeffs,
)
from fracadapt.fem import FeFunction, _mesh_groups


def global_union_estimate(scheme, states, union, f):
    """``(eta, solution)`` of the union pass, one kernel pass per block;
    unlike the pass it leaves every state's indicators alone."""
    area, columns = _geometry(union)["area"], _columns(union, f)
    combined = np.zeros((3, union.num_cells))
    corner_sum = np.zeros((1, 3, union.num_cells))
    for src, group in _mesh_groups(states):
        if src.same_mesh(union):
            corners, lam, sides = union.cells, None, _jump_sides(union)
        else:
            parents = meshmod.ancestor_cell_map(union, src)
            corners = src.cells[parents]
            lam = meshmod.nested_barycentric(union.cell_key, src.cell_key[parents])
            lam = np.ascontiguousarray(lam.transpose(1, 2, 0))
            sides = _jump_sides(union, parents)
        partial = np.zeros(src.num_vertices)
        for start in range(0, len(group), _BLOCK):
            block = group[start : start + _BLOCK]
            l = np.array([st.index for st in block])
            nodal = np.stack([st.solution.nodal_values for st in block], axis=1)
            vals, grads = _corner_values(src, nodal)
            if lam is not None:
                vals = _cell_matvec(lam, np.take(nodal.T, corners.T, axis=1))
            jump = _edge_jumps(union, grads, sides)
            y = _modal_coeffs(union, columns, vals, jump, scheme.b[l], scheme.c[l])
            combined += (scheme.a[l] @ y.reshape(len(l), -1)).reshape(combined.shape)
            partial += nodal @ scheme.a[l]
        partial = np.take(partial[None], corners.T, axis=1)
        corner_sum += partial if lam is None else _cell_matvec(lam, partial)
    solution = np.empty(union.num_vertices)
    solution[union.cells] = scheme.C * corner_sum[0].T
    eta = scheme.C * float(np.sqrt(np.sum(area * np.sum(combined**2, axis=0))))
    return eta, FeFunction(union, solution)

"""Per-problem reference for the union pass in ``fracadapt.estimators``.

This is ``global_union_estimate`` as it was before the pass summed a large
coarser source group's solutions per (lam, |K|) class: every group runs the
estimator kernel ``_modal_coeffs`` once per block of up to ``_BLOCK``
problems on every union cell.  A coarser group's corner values come from a
per-cell barycentric table, its gradients from its own cells, and its jumps
only on union edges between two source cells, with exact zeros inside one.
The tests compare the pass against it: bit for bit where every group takes
the kernel, within rounding where a group takes the weighted sums.
"""

import numpy as np

from fracadapt import mesh as meshmod
from fracadapt.estimators import (
    _BLOCK,
    _cell_matvec,
    _columns,
    _corner_values,
    _modal_coeffs,
)
from fracadapt.fem import FeFunction, _mesh_groups


def _jump_sides(mesh, labels=None):
    """(mask, side-1 cells, side-2 cells) of the interior edges; with per-cell
    ``labels`` the sides are labels, and edges inside one label are left out
    (on the union mesh, edges inside a source cell have no jump)."""
    c1, c2 = mesh.edge_cells.T
    sel = c2 >= 0
    if labels is not None:
        c1, c2 = labels[c1], labels[c2]  # boundary edges stay out through sel
        sel &= c1 != c2
    return sel, c1[sel], c2[sel]


def _edge_jumps(mesh, normal, grads, sides):
    """Flux-jump scalar (gradient jump dotted with the fixed ``normal``) per
    edge, shape (L, e), for gradients (L, 2, k) per side of ``sides``; edges
    left out get an exact zero."""
    sel, s1, s2 = sides
    normal = normal[sel].T
    dg = np.take(grads, s1, axis=2) - np.take(grads, s2, axis=2)
    j = np.zeros((len(grads), len(mesh.edges)))
    j[:, sel] = dg[:, 0] * normal[0] + dg[:, 1] * normal[1]
    return j


def global_union_estimate(scheme, states, union, f):
    """``(eta, solution)`` of the union pass, one kernel pass per block;
    unlike the pass it leaves every state's indicators alone."""
    columns = _columns(union, f)
    area = columns[4]
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
        partial, dphi = np.zeros(src.num_vertices), _columns(src, f)[5]
        for start in range(0, len(group), _BLOCK):
            block = group[start : start + _BLOCK]
            l = np.array([st.index for st in block])
            nodal = np.stack([st.solution.nodal_values for st in block], axis=1)
            vals, grads = _corner_values(src, dphi, nodal)
            if lam is not None:
                vals = _cell_matvec(lam, np.take(nodal.T, corners.T, axis=1))
            jump = _edge_jumps(union, columns[6], grads, sides)
            y = _modal_coeffs(union, columns, vals, jump, scheme.b[l], scheme.c[l])
            combined += (scheme.a[l] @ y.reshape(len(l), -1)).reshape(combined.shape)
            partial += nodal @ scheme.a[l]
        partial = np.take(partial[None], corners.T, axis=1)
        corner_sum += partial if lam is None else _cell_matvec(lam, partial)
    solution = np.empty(union.num_vertices)
    solution[union.cells] = scheme.C * corner_sum[0].T
    eta = scheme.C * float(np.sqrt(np.sum(area * np.sum(combined**2, axis=0))))
    return eta, FeFunction(union, solution)

"""Per-problem reference for the union pass in ``fracadapt.estimators``.

This is ``global_union_estimate`` as it was before the pass summed a large
coarser source group's solutions per (lam, |K|) class: every group runs the
estimator kernel ``_modal_coeffs`` once per block of up to ``_BLOCK``
problems on every union cell.  A coarser group's corner values come from a
per-cell barycentric table, its gradients from its own cells, and its jumps
only on union edges between two source cells, with exact zeros inside one.
The tests compare the pass against it within rounding.

The barycentric table is the exact path table (``path_table``,
``nested_barycentric``) that the pass and ``fem.transfer_p1`` used before
they swept hierarchical surpluses over the union's vertices, and
``vertex_transfer``/``at_vertices`` are that transfer: each target vertex
takes its values from the source cell holding the last target cell that
lists it.
"""

import functools

import numpy as np

from fracadapt import mesh as meshmod
from fracadapt.mesh import _LEVEL_MASK, _ROOT_SHIFT
from fracadapt.estimators import (
    _BLOCK,
    _cell_matvec,
    _columns,
    _corner_values,
    _modal_coeffs,
)
from fracadapt.fem import FeFunction, _mesh_groups

PATH_DEPTH = 10  # deepest gap of the path table (2^11 maps, 147 KB)


@functools.cache
def path_table(depth):
    """Barycentric coordinates (2 << depth, 3, 3) of a node's corners (rows)
    in the corners of its ancestor d <= depth levels up (columns), at index
    (1 << d) + the d choices below the ancestor.  Bisection maps the corners
    (v0, v1, v2) to (v2, v0, m) or (v1, v2, m), so every entry is an exact
    dyadic."""
    if depth == 0:
        return np.stack([np.zeros((3, 3)), np.eye(3)])
    prev = path_table(depth - 1)
    P = prev[1 << (depth - 1) :]  # the maps of depth - 1, by path
    m = (P[:, 0] + P[:, 1]) / 2.0
    children = np.stack([P[:, 2], P[:, 0], m, P[:, 1], P[:, 2], m], axis=1)
    return np.concatenate([prev, children.reshape(-1, 3, 3)])


def nested_barycentric(keys, ancestors):
    """Barycentric coordinates (n, 3, 3) of the corners of the nodes ``keys``
    (rows) in the corners of their ancestors ``ancestors`` (columns), exactly:
    looked up by relative path, in chained lookups for gaps deeper than
    ``PATH_DEPTH``."""
    level = keys & _LEVEL_MASK
    gap = level - (ancestors & _LEVEL_MASK)
    path = (keys >> (_ROOT_SHIFT - level)) & ((1 << gap) - 1)
    table = path_table(min(int(gap.max(initial=0)), PATH_DEPTH))
    step = np.minimum(gap, PATH_DEPTH)
    lam = table[(1 << step) + (path & ((1 << step) - 1))]
    while (gap := gap - step).any():
        path >>= step
        step = np.minimum(gap, PATH_DEPTH)
        lam = lam @ table[(1 << step) + (path & ((1 << step) - 1))]
    return lam


def vertex_transfer(src, target):
    """Per vertex of ``target``, a refinement of ``src``: the corners (n, 3)
    of the ``src`` cell that holds the last ``target`` cell listing the
    vertex, and the vertex's barycentric coordinates (n, 3) there."""
    slot = np.empty(target.num_vertices, dtype=np.intp)
    slot[target.cells] = np.arange(3 * target.num_cells).reshape(-1, 3)
    cell, corner = np.divmod(slot, 3)
    parents = meshmod.ancestor_cell_map(target, src)[cell]
    bary = nested_barycentric(target.cell_key[cell], src.cell_key[parents])
    return np.take(src.cells, parents, axis=0), bary[np.arange(len(cell)), corner]


def at_vertices(transfer, nodal):
    """Values (n, ...) at the target's vertices of P1 functions with nodal
    values ``nodal`` (n_src, ...) on the source mesh of ``transfer``
    (``vertex_transfer``), summed term by term in the order of
    ``fem._matvec``: (w0 t0 + w1 t1) + w2 t2."""
    corners, bary = transfer
    w = bary.T.reshape((3, -1) + (1,) * (nodal.ndim - 1))
    c = corners.T
    return (w[0] * nodal[c[0]] + w[1] * nodal[c[1]]) + w[2] * nodal[c[2]]


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
            lam = nested_barycentric(union.cell_key, src.cell_key[parents])
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

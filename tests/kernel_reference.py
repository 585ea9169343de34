"""Frozen copy of the estimator kernel in ``fracadapt.estimators``.

This is the kernel as it was before it wrote into buffers of its own:
``_corner_values``, ``_edge_jumps`` and ``_modal_coeffs`` form every term as
a fresh array, in the order of the plain formula

    y = (alpha - c B v - (b / 4) W' j) / (lam b + |K| c),

and ``_class_sums`` forms the corner values, gradients and jumps of each
class's weighted sums on the whole union.  The package's kernel and class
sums must match these bit for bit (``tests/test_kernel_bits.py``), and
``union_reference`` runs its per-problem pass on them.
"""

import numpy as np


def _cell_matvec(A, v):
    """A (p, 3, m) times v (L, 3, m) cell by cell, shape (L, p, m), summed
    term by term in the order of ``fem._matvec``."""
    out = A[:, 0] * v[:, None, 0] + A[:, 1] * v[:, None, 1]
    out += A[:, 2] * v[:, None, 2]
    return out


def _corner_values(mesh, dphi, nodal):
    """Corner values (L, 3, m) and cell gradients (L, 2, m) of nodal values
    (n, L) on ``mesh``, from its hat-function gradients ``dphi`` (2, 3, m)."""
    vals = np.take(nodal.T, mesh.cells.T, axis=1)
    return vals, _cell_matvec(dphi, vals)


def _edge_jumps(mesh, normal, grads):
    """Flux-jump scalar per edge, shape (L, e), for cell gradients (L, 2, m);
    boundary edges get an exact zero."""
    c1, c2 = mesh.edge_cells.T
    sel = c2 >= 0
    normal = normal[sel].T
    dg = np.take(grads, c1[sel], axis=2) - np.take(grads, c2[sel], axis=2)
    j = np.zeros((len(grads), len(mesh.edges)))
    j[:, sel] = dg[:, 0] * normal[0] + dg[:, 1] * normal[1]
    return j


def _modal_coeffs(target, columns, corner_vals, jump, b, c):
    """Modal coefficients y (L, 3, m) on ``target`` of L stacked P1 functions
    with corner values (L, 3, m) and flux jumps (L, e), one b and c each."""
    Wp, B, lam, alpha, area, _, _, length = columns
    b, c = np.reshape(b, (-1, 1, 1)), np.reshape(c, (-1, 1, 1))
    j = np.take(jump * length, target.cell_edge.T, axis=1)
    # the mirror pairs edges 1 and 2, and corners 0 and 1: each pair is added first
    wj = Wp[:, 1] * j[:, None, 1] + Wp[:, 2] * j[:, None, 2]
    wj += Wp[:, 0] * j[:, None, 0]
    d = lam * b + area * c
    return (alpha - c * _cell_matvec(B, corner_vals) - b / 4.0 * wj) / d


def modal_coeffs(mesh, columns, nodal, b, c):
    """The kernel on nodal values (n, L): ``_modal_coeffs`` of their corner
    values and jumps."""
    vals, grads = _corner_values(mesh, columns[5], nodal)
    return _modal_coeffs(mesh, columns, vals, _edge_jumps(mesh, columns[6], grads), b, c)


def class_sums(union, columns, cls, Z, S):
    """sum_l a_l y_l (3, m) from the weighted sums Z (n, 6 x classes), with
    every class's gradients and jumps formed over the whole union."""
    (Wp, B, lam, alpha, _, dphi, normal, length), classes = columns, len(S)
    col = 3 * cls + np.arange(3)[:, None]  # per mode, the column of each cell's class
    v = Z[union.cells.T, col[:, None]]
    j = np.empty_like(v)
    for k in range(classes):
        at, zb = cls == k, Z[:, 3 * (classes + k) : 3 * (classes + k + 1)]
        jump = _edge_jumps(union, normal, _corner_values(union, dphi, zb)[1]) * length
        j[:, :, at] = np.take(jump, union.cell_edge[at].T, axis=1)
    Bv = B[:, 0] * v[:, 0] + B[:, 1] * v[:, 1]  # the mirror pairs are added first
    wj = Wp[:, 1] * j[:, 1] + Wp[:, 2] * j[:, 2]
    Bv, wj = Bv + B[:, 2] * v[:, 2], wj + Wp[:, 0] * j[:, 0]
    return alpha * S[cls].T - Bv - wj / 4.0

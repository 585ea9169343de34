"""Independent references for checking benchmark results.

Nothing here calls into ``fracadapt``: the checks compare the program's
output against these computations.

Fractional solution for f = 1 on the square (-1, 1)^2.  The Dirichlet
eigenpairs of -Laplace on the square are

    psi_ij(x, y) = sin(i pi (x + 1) / 2) sin(j pi (y + 1) / 2),
    lambda_ij = pi^2 (i^2 + j^2) / 4,

orthonormal in L2, and <1, psi_ij> = 16 / (pi^2 i j) for odd i and j (zero
otherwise), so u = sum over odd i, j of lambda_ij^-s 16 / (pi^2 i j) psi_ij.
The series is kept for odd i, j <= n; ``tail_bound`` bounds the L2 norm of
the modes left out.
"""

import math

import numpy as np

# conical-product (collapsed Gauss) rule on the reference triangle
# (0,0), (1,0), (0,1): exact for polynomials of degree 2 * _ORDER - 1
_ORDER = 4
_G, _GW = np.polynomial.legendre.leggauss(_ORDER)
_G = 0.5 * (_G + 1.0)
_GW = 0.5 * _GW
_U, _V = np.meshgrid(_G, _G, indexing="ij")
_REF_PTS = np.column_stack([_U.ravel(), (_V * (1.0 - _U)).ravel()])
_REF_WTS = (np.outer(_GW, _GW) * (1.0 - _U)).ravel()  # sums to 1/2


class SquareSeries:
    """Truncated eigen-series of (-Laplace)^s u = 1 on (-1, 1)^2."""

    def __init__(self, s, n):
        if n % 2 == 0:
            raise ValueError("the truncation index n must be odd")
        self.s = float(s)
        self.n = n
        self.k = np.arange(1, n + 1, 2, dtype=float)
        kk = self.k[:, None] ** 2 + self.k[None, :] ** 2
        lam = math.pi**2 * kk / 4.0
        f_coef = 16.0 / (math.pi**2 * np.outer(self.k, self.k))
        self.u_coef = lam ** (-self.s) * f_coef

    def tail_bound(self):
        """Upper bound on the L2 norm of the modes with i > n or j > n.

        The omitted set lies in {i > n} and its mirror image.  For i > n,
        lambda_ij >= pi^2 i^2 / 4 and sum over odd j of (4 / (pi j))^2 = 2, so
        tail^2 <= (64 / pi^2) (4 / pi^2)^(2s) sum_{odd i > n} i^-p with
        p = 2 + 4s, and that sum is at most n^(1-p) / (2 (p - 1)).
        """
        p = 2.0 + 4.0 * self.s
        odd_sum = self.n ** (1.0 - p) / (2.0 * (p - 1.0))
        tail2 = 64.0 / math.pi**2 * (4.0 / math.pi**2) ** (2.0 * self.s) * odd_sum
        return math.sqrt(tail2)

    def norm(self):
        """L2 norm of the truncated series (Parseval)."""
        return float(np.sqrt(np.sum(self.u_coef**2)))

    def eval(self, x, y):
        """Truncated series at points (x, y), evaluated in blocks."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        out = np.empty(len(x))
        w = 0.5 * math.pi * self.k
        for lo in range(0, len(x), 8192):
            sx = np.sin(np.outer(x[lo : lo + 8192] + 1.0, w))
            sy = np.sin(np.outer(y[lo : lo + 8192] + 1.0, w))
            out[lo : lo + 8192] = np.einsum("pi,pi->p", sx @ self.u_coef, sy)
        return out

    def l2_error(self, vertices, cells, nodal_values):
        """|| u_n - u_h ||_L2 for a P1 function u_h, by a degree-7 rule per cell."""
        X = vertices[cells]  # (m, 3, 2)
        e1 = X[:, 1] - X[:, 0]
        e2 = X[:, 2] - X[:, 0]
        jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        pts = (
            X[:, 0, None, :]
            + _REF_PTS[None, :, 0, None] * e1[:, None, :]
            + _REF_PTS[None, :, 1, None] * e2[:, None, :]
        )
        vals = nodal_values[cells]  # (m, 3)
        uh = (
            vals[:, 0, None] * (1.0 - _REF_PTS[:, 0] - _REF_PTS[:, 1])[None]
            + vals[:, 1, None] * _REF_PTS[None, :, 0]
            + vals[:, 2, None] * _REF_PTS[None, :, 1]
        )
        u = self.eval(pts[..., 0], pts[..., 1]).reshape(uh.shape)
        return float(np.sqrt(np.sum(jac[:, None] * _REF_WTS[None] * (u - uh) ** 2)))


def p1_eval(vertices, cells, nodal_values, points, tol=1e-12):
    """Evaluate a P1 function at points by a brute-force search over cells."""
    A = vertices[cells[:, 0]]
    e1 = vertices[cells[:, 1]] - A
    e2 = vertices[cells[:, 2]] - A
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    out = np.empty(len(points))
    for p, pt in enumerate(points):
        d = pt - A
        l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        l0 = 1.0 - l1 - l2
        hit = np.flatnonzero(np.minimum(np.minimum(l0, l1), l2) >= -tol)
        if len(hit) == 0:
            raise ValueError(f"point {pt} lies outside the mesh")
        k = hit[0]
        v = nodal_values[cells[k]]
        out[p] = l0[k] * v[0] + l1[k] * v[1] + l2[k] * v[2]
    return out

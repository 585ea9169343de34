"""Analytic spectral-series references on rectangles, L2 errors, effectivity.

On a rectangle (x0,x1) x (y0,y1) the Dirichlet Laplacian eigenpairs are

    psi_ij = 2/sqrt(Lx Ly) sin(i pi (x-x0)/Lx) sin(j pi (y-y0)/Ly),
    lam_ij = pi^2 (i^2/Lx^2 + j^2/Ly^2),

so the fractional solution for a right-hand side f is the series
sum lam^{-s} <f, psi> psi, truncated at a requested number of modes (ordered
by increasing eigenvalue).

``l2_error`` reads the reference values at a cell's six quadrature points
from a per-node column of the mesh forest, keyed by the reference object, so
a run evaluates the series once per forest node, not once per checkpoint.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem import TRI_QP, TRI_QW, FeFunction, _matvec

__all__ = [
    "SpectralSolution",
    "spectral_reference",
    "eigenfunction_reference",
    "l2_error",
    "effectivity",
    "faber_krahn_lambda0",
]

EVAL_BLOCK = 4096  # points per block in SpectralSolution.eval, bounding its buffers
_ROWS = 256  # points per gathered product in SpectralSolution.eval


def faber_krahn_lambda0(domain):
    """Guaranteed lower bound pi * j01^2 / |Omega| for the first Dirichlet
    eigenvalue of any planar domain of the given area."""
    from .rational import J0_FIRST_ZERO

    return math.pi * J0_FIRST_ZERO**2 / domain.area


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Truncated eigenfunction expansion of the fractional solution.

    Frozen and compared by identity: ``l2_error`` keys a per-node forest
    column on the object, so its values can never go stale.
    """

    s: float
    rect: tuple  # (x0, x1, y0, y1)
    modes_i: np.ndarray
    modes_j: np.ndarray
    lam: np.ndarray
    f_coef: np.ndarray  # <f, psi_ij>

    @property
    def u_coef(self):
        return self.lam ** (-self.s) * self.f_coef

    def norm(self):
        return float(np.sqrt(np.sum(self.u_coef**2)))

    @functools.cached_property
    def _table(self):
        """Distinct i and j, and the coefficients A[i, j] of the normalized
        products of sines."""
        x0, x1, y0, y1 = self.rect
        iu, ii = np.unique(self.modes_i, return_inverse=True)
        ju, jj = np.unique(self.modes_j, return_inverse=True)
        A = np.zeros((len(iu), len(ju)))
        A[ii, jj] = self.u_coef * 2.0 / math.sqrt((x1 - x0) * (y1 - y0))
        return iu, ju, A

    def eval(self, points):
        """Evaluate the truncated series at (n, 2) points.  No step uses BLAS,
        whose products can round a row differently at another row position,
        so a point's value does not depend on the other points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x0, x1, y0, y1 = self.rect
        lx, ly = x1 - x0, y1 - y0
        iu, ju, A = self._table
        out = np.empty(len(points))
        for lo in range(0, len(points), EVAL_BLOCK):
            # sine tables on the block's distinct coordinates: quadrature
            # points of a bisected mesh share few x and y values
            ux, ix = np.unique(points[lo : lo + EVAL_BLOCK, 0], return_inverse=True)
            uy, iy = np.unique(points[lo : lo + EVAL_BLOCK, 1], return_inverse=True)
            sx = np.sin(np.outer((ux - x0) * (math.pi / lx), iu))
            sy = np.einsum("yj,ij->yi", np.sin(np.outer((uy - y0) * (math.pi / ly), ju)), A)
            block = out[lo : lo + EVAL_BLOCK]
            for c in range(0, len(ix), _ROWS):  # gathered rows that stay in cache
                rows = slice(c, c + _ROWS)
                block[rows] = np.einsum("pi,pi->p", sx[ix[rows]], sy[iy[rows]])
        return out


def _rect_of(domain):
    rect = domain.rectangle
    if rect is None:
        raise ValueError(f"spectral reference needs a rectangle, got {domain.kind}")
    return rect


def _sorted_modes(rect, count, odd_only=False):
    x0, x1, y0, y1 = rect
    lx, ly = x1 - x0, y1 - y0
    # enumerate a generous index box, then keep the ``count`` smallest lam
    step = 2 if odd_only else 1
    nmax = step * (int(math.ceil(math.sqrt(count * step * step * 4.0 / math.pi))) + 2)
    rng = np.arange(1, nmax + 1, step)
    I, J = np.meshgrid(rng, rng, indexing="ij")
    I = I.ravel()
    J = J.ravel()
    lam = math.pi**2 * ((I / lx) ** 2 + (J / ly) ** 2)
    order = np.lexsort((J, I, lam))
    keep = order[:count]
    return I[keep], J[keep], lam[keep]


def _unit_rhs_coef(rect, i, j):
    """<1, psi_ij> in closed form (nonzero only for odd i and odd j)."""
    x0, x1, y0, y1 = rect
    lx, ly = x1 - x0, y1 - y0
    odd = (i % 2 == 1) & (j % 2 == 1)
    coef = np.zeros(len(i))
    coef[odd] = (
        2.0
        / math.sqrt(lx * ly)
        * (lx * ly)
        * 4.0
        / (math.pi**2 * i[odd] * j[odd])
    )
    return coef


def _quadrature_rhs_coef(rect, f, i, j, panels=64, order=6):
    """<f, psi_ij> by composite Gauss-Legendre quadrature."""
    x0, x1, y0, y1 = rect
    lx, ly = x1 - x0, y1 - y0
    gx, gw = np.polynomial.legendre.leggauss(order)

    def nodes(a, b, n):
        edges = np.linspace(a, b, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid[:, None] + half * gx[None, :]).ravel()
        wts = np.tile(half * gw, n)
        return pts, wts

    px, wx = nodes(x0, x1, panels)
    py, wy = nodes(y0, y1, panels)
    X, Y = np.meshgrid(px, py, indexing="ij")
    F = np.asarray(f(X, Y), dtype=float)
    sx = np.sin(np.outer(i, (px - x0) * math.pi / lx))  # (modes, nx)
    sy = np.sin(np.outer(j, (py - y0) * math.pi / ly))
    return 2.0 / math.sqrt(lx * ly) * np.einsum("mx,xy,my->m", sx * wx, F, sy * wy)


def spectral_reference(domain, f, s, modes=10_000):
    """Truncated series solution on a rectangle domain.

    For the constant field the Fourier-sine coefficients are closed-form and
    only odd-odd modes are retained; otherwise they are computed by 2D
    quadrature (suitable for modest truncations).
    """
    rect = _rect_of(domain)
    if getattr(f, "kind", None) == "one":
        i, j, lam = _sorted_modes(rect, modes, odd_only=True)
        coef = _unit_rhs_coef(rect, i, j)
    else:
        i, j, lam = _sorted_modes(rect, modes)
        coef = _quadrature_rhs_coef(rect, f, i, j)
    return SpectralSolution(
        s=float(s), rect=rect, modes_i=i, modes_j=j, lam=lam, f_coef=coef
    )


def eigenfunction_reference(domain, i, j, s):
    """Exact solution for f = psi_ij: a single retained mode."""
    rect = _rect_of(domain)
    x0, x1, y0, y1 = rect
    lx, ly = x1 - x0, y1 - y0
    lam = math.pi**2 * ((i / lx) ** 2 + (j / ly) ** 2)
    return SpectralSolution(
        s=float(s),
        rect=rect,
        modes_i=np.array([i]),
        modes_j=np.array([j]),
        lam=np.array([lam]),
        f_coef=np.array([1.0]),
    )


def eigenfunction_field(domain, i, j):
    """The normalized eigenfunction psi_ij as a right-hand side field."""
    from .fem import RhsField

    rect = _rect_of(domain)
    x0, x1, y0, y1 = rect
    lx, ly = x1 - x0, y1 - y0

    def psi(x, y):
        return (
            2.0
            / math.sqrt(lx * ly)
            * np.sin(i * math.pi * (np.asarray(x) - x0) / lx)
            * np.sin(j * math.pi * (np.asarray(y) - y0) / ly)
        )

    return RhsField.manufactured(psi)


def l2_error(u_ref, u_h):
    """|| u_ref - u_h ||_{L2} by the per-cell 6-point (order 4) rule.  The
    values of ``u_ref`` at a cell's points are a per-node forest column
    (``mesh.TriMesh.column``), keyed by ``u_ref`` itself, so each node is
    evaluated once per reference."""
    mesh = u_h.mesh
    ref_vals = mesh.column(
        ("ref", u_ref), lambda x: u_ref.eval(_matvec(TRI_QP, x).reshape(-1, 2)).reshape(-1, 6)
    )
    fem_vals = u_h.cell_values_at(TRI_QP)
    diff2 = (ref_vals - fem_vals) ** 2
    return float(np.sqrt(np.einsum("mq,q,m->", diff2, TRI_QW, mesh.cell_areas())))


def effectivity(eta, error):
    if error <= 0.0:
        raise ValueError("reference error must be positive")
    return eta / error

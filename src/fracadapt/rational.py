"""Rational approximation of ``lambda -> lambda**(-s)`` by a pole sum.

The coefficients come from a rectangle-rule discretization of the
Balakrishnan integral representation.  The approximation

    Q(lam) = C * sum_l a_l / (c_l + b_l * lam)

is uniformly accurate on ``[lambda0, inf)`` with a computable exponential
error bound, which is what makes the reaction-diffusion splitting of the
fractional problem work.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RationalScheme",
    "bp_coefficients",
    "epsilon_bound",
    "eval_Q",
    "choose_kappa",
    "KappaSelectionError",
]

J0_FIRST_ZERO = 2.404825557695773  # first zero of the Bessel function J0


class KappaSelectionError(Exception):
    """No fineness parameter on the search grid meets the tolerance."""


@dataclass(frozen=True)
class RationalScheme:
    """Pole-sum approximation of lambda**(-s), valid for lambda >= lambda0.

    ``a``, ``b``, ``c`` have length N; ``epsilon`` is the uniform error bound
    for the stored ``lambda0``.  Each term is stored divided by max(1, b_l),
    so every coefficient lies in [0, 1] and max(b_l, c_l) = 1.
    """

    s: float
    kappa: float
    N: int
    C: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    epsilon: float
    lambda0: float


def epsilon_bound(s, kappa, lambda0):
    """Uniform error bound for the rectangle-rule pole sum on [lambda0, inf)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional power s={s} must lie in (0, 1)")
    if kappa <= 0.0:
        raise ValueError(f"fineness parameter kappa={kappa} must be positive")
    if lambda0 <= 0.0:
        raise ValueError("lambda0 must be positive")
    q = math.pi**2 / (4.0 * kappa)
    bracket = math.exp(-q) / math.sinh(q) + math.exp(-2.0 * q)
    return (
        (2.0 * math.sin(math.pi * s) / math.pi)
        * (1.0 / (2.0 * s) + 1.0 / ((2.0 - 2.0 * s) * lambda0))
        * bracket
    )


def bp_coefficients(s, kappa, lambda0):
    """Build the full scheme: quadrature limits, coefficients, error bound.

    M- = ceil(pi^2 / (4 s kappa^2)), M+ = ceil(pi^2 / (4 (1-s) kappa^2)),
    N = M+ + M- + 1, C = 2 kappa sin(pi s) / pi, and for l = 1..N, with
    t_l = 2 (l - M- - 1) kappa and the term l divided by exp(max(0, t_l)),

        b_l = exp(t_l - max(0, t_l)),   a_l = exp(s t_l - max(0, t_l)),
        c_l = exp(-max(0, t_l)).

    The quotient a_l / (c_l + b_l lam) is that of the unscaled coefficients
    exp(s t_l), exp(t_l) and 1, but no coefficient overflows: the larger of
    b_l and c_l is exactly 1, and the smaller underflows to 0 only where the
    other term dominates beyond double range.
    """
    epsilon = epsilon_bound(s, kappa, lambda0)  # checks s, kappa and lambda0
    m_minus = math.ceil(math.pi**2 / (4.0 * s * kappa**2))
    m_plus = math.ceil(math.pi**2 / (4.0 * (1.0 - s) * kappa**2))
    n = m_plus + m_minus + 1
    j = np.arange(1, n + 1) - (m_minus + 1)  # quadrature index, -M- .. M+
    t = 2.0 * kappa * j
    shift = np.maximum(0.0, t)
    a, b, c = np.exp(s * t - shift), np.exp(t - shift), np.exp(-shift)
    for arr in (a, b, c):
        arr.setflags(write=False)
    return RationalScheme(
        s=float(s),
        kappa=float(kappa),
        N=int(n),
        C=2.0 * kappa * math.sin(math.pi * s) / math.pi,
        a=a,
        b=b,
        c=c,
        epsilon=epsilon,
        lambda0=float(lambda0),
    )


def eval_Q(scheme, lam, warn=True):
    """Evaluate the pole sum at ``lam`` (scalar or array).

    Below ``lambda0`` the uniform bound does not apply; a warning is emitted
    but the value is still returned.  At lam = 0 each term is a_l / c_l =
    exp(s t_l), except where c_l = exp(-t_l) has underflowed to 0 (only for
    (1 - s) kappa below about 0.0066); such a term counts as inf.
    """
    lam = np.asarray(lam, dtype=float)
    if warn and np.any(lam < scheme.lambda0):
        import warnings

        warnings.warn(
            "evaluating the rational approximation below lambda0; "
            "the error bound is not guaranteed there",
            RuntimeWarning,
            stacklevel=2,
        )
    denom = scheme.c[:, None] + scheme.b[:, None] * lam.reshape(-1)
    terms = np.divide(scheme.a[:, None], denom, out=np.full(denom.shape, np.inf), where=denom > 0)
    out = scheme.C * terms.sum(axis=0)
    return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)


_KAPPA_GRID = np.round(np.arange(0.50, 0.10 - 1e-9, -0.02), 2)
_SAFETY = 100.0


def choose_kappa(s, tol, lambda0, f_norm):
    """Pick the coarsest kappa whose a priori bound is well below ``tol``.

    Scans kappa in {0.50, 0.48, ..., 0.10} and returns the largest value with
    ``epsilon_bound * f_norm <= tol / 100``.
    """
    if tol <= 0.0 or f_norm <= 0.0:
        raise ValueError("tol and f_norm must be positive")
    for kappa in _KAPPA_GRID:
        if epsilon_bound(s, float(kappa), lambda0) * f_norm <= tol / _SAFETY:
            return float(kappa)
    raise KappaSelectionError(
        f"no kappa in [{_KAPPA_GRID[-1]}, {_KAPPA_GRID[0]}] reaches "
        f"epsilon * |f| <= {tol / _SAFETY:g}"
    )

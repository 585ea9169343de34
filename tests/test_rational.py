import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracadapt import rational
from fracadapt.rational import (
    KappaSelectionError,
    bp_coefficients,
    choose_kappa,
    epsilon_bound,
    eval_Q,
)


def test_pole_counts_reference_values():
    # N(kappa=0.26) for the standard five fractional powers
    expected = {0.1: 408, 0.3: 176, 0.5: 149, 0.7: 176, 0.9: 408}
    for s, n in expected.items():
        assert bp_coefficients(s, 0.26, 1.0).N == n


def test_pole_count_formula():
    s, kappa = 0.37, 0.31
    scheme = bp_coefficients(s, kappa, 1.0)
    m_minus = math.ceil(math.pi**2 / (4 * s * kappa**2))
    m_plus = math.ceil(math.pi**2 / (4 * (1 - s) * kappa**2))
    assert scheme.N == m_plus + m_minus + 1
    assert len(scheme.a) == len(scheme.b) == len(scheme.c) == scheme.N


def test_coefficient_structure():
    scheme = bp_coefficients(0.5, 0.3, 1.0)
    # b is a geometric sequence with ratio exp(2 kappa); a = b**s; c = 1
    ratios = scheme.b[1:] / scheme.b[:-1]
    assert np.allclose(ratios, math.exp(0.6), rtol=1e-12)
    assert np.allclose(scheme.a, scheme.b**0.5, rtol=1e-12)
    assert np.all(scheme.c == 1.0)
    assert scheme.C == pytest.approx(2 * 0.3 * math.sin(math.pi / 2) / math.pi)
    # b spans both tiny and huge values, bracketing b=1
    assert scheme.b[0] < 1e-10 and scheme.b[-1] > 1e10
    assert np.any(scheme.b == 1.0)


def test_uniform_bound_on_log_grid():
    # |lam^-s - Q(lam)| <= epsilon on [lambda0, 1e8] for several (s, kappa)
    lambda0 = 4.54  # roughly the (-1,1)^2 area bound
    lam = np.logspace(np.log10(lambda0), 8, 200)
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        for kappa in (0.20, 0.26, 0.35):
            scheme = bp_coefficients(s, kappa, lambda0)
            err = np.abs(lam ** (-s) - eval_Q(scheme, lam))
            assert err.max() <= scheme.epsilon, (s, kappa, err.max())


def test_epsilon_decreases_with_kappa():
    eps = [epsilon_bound(0.5, k, 1.0) for k in (0.5, 0.4, 0.3, 0.2, 0.1)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_eval_q_scalar_and_warning():
    scheme = bp_coefficients(0.5, 0.26, 10.0)
    val = eval_Q(scheme, 100.0)
    assert isinstance(val, float)
    assert val == pytest.approx(0.1, rel=1e-6)
    with pytest.warns(RuntimeWarning):
        eval_Q(scheme, 1.0)


def test_eval_q_no_overflow_for_extreme_s():
    # s near the endpoints produces b_l over ~10^300; the log-domain
    # evaluation must stay finite
    for s in (0.05, 0.95):
        scheme = bp_coefficients(s, 0.2, 1.0)
        out = eval_Q(scheme, np.array([1.0, 1e8]), warn=False)
        assert np.all(np.isfinite(out))


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(0.05, 0.95),
    kappa=st.floats(0.15, 0.5),
    lam=st.floats(1.0, 1e8),
)
def test_eval_q_matches_direct_sum(s, kappa, lam):
    scheme = bp_coefficients(s, kappa, 1.0)
    # direct sum in the linear domain, ignoring over/underflow of extreme b_l
    with np.errstate(over="ignore"):
        direct = scheme.C * np.sum(
            np.where(np.isinf(scheme.b), 0.0, scheme.a / (scheme.c + scheme.b * lam))
        )
    assert eval_Q(scheme, lam, warn=False) == pytest.approx(direct, rel=1e-10)


def test_choose_kappa_meets_tolerance():
    kappa = choose_kappa(0.5, 1e-4, 4.54, 2.0)
    assert epsilon_bound(0.5, kappa, 4.54) * 2.0 <= 1e-4 / 100
    # coarsest admissible value: one grid step up must fail
    assert epsilon_bound(0.5, kappa + 0.02, 4.54) * 2.0 > 1e-4 / 100


def test_choose_kappa_unreachable():
    with pytest.raises(KappaSelectionError):
        choose_kappa(0.5, 1e-300, 4.54, 1.0)


def test_invalid_arguments():
    for bad_s in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            bp_coefficients(bad_s, 0.26, 1.0)
    with pytest.raises(ValueError):
        bp_coefficients(0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        bp_coefficients(0.5, 0.26, 0.0)

import dataclasses
import math

import numpy as np
import pytest

from fracadapt import oracle
from fracadapt.fem import FeFunction, RhsField, _quad_points
from fracadapt.mesh import DomainSpec, make_initial_mesh, refine, uniform_refine
from fracadapt.oracle import (
    SpectralSolution,
    effectivity,
    eigenfunction_field,
    eigenfunction_reference,
    faber_krahn_lambda0,
    l2_error,
    spectral_reference,
)

SQUARE = DomainSpec("square")
UNIT = DomainSpec("unit-square")


def test_faber_krahn_values():
    # pi j01^2 / area
    j01 = 2.404825557695773
    assert faber_krahn_lambda0(UNIT) == pytest.approx(math.pi * j01**2)
    assert faber_krahn_lambda0(SQUARE) == pytest.approx(math.pi * j01**2 / 4.0)
    assert faber_krahn_lambda0(DomainSpec("lshape")) == pytest.approx(
        math.pi * j01**2 / 3.0
    )


def test_faber_krahn_is_lower_bound():
    # true first eigenvalue of the unit square is 2 pi^2; the bound must be
    # below it (and below pi^2/2 for the (-1,1)^2 square)
    assert faber_krahn_lambda0(UNIT) < 2.0 * math.pi**2
    assert faber_krahn_lambda0(SQUARE) < math.pi**2 / 2.0


def test_eigenfunction_reference_single_mode():
    ref = eigenfunction_reference(SQUARE, 1, 1, 0.5)
    lam11 = math.pi**2 / 2.0
    assert ref.lam[0] == pytest.approx(lam11)
    assert ref.norm() == pytest.approx(lam11**-0.5)
    # pointwise: u(0,0) = lam^{-s} * psi11(0,0) = lam^{-s} * 2/sqrt(4) * 1
    val = ref.eval(np.array([[0.0, 0.0]]))[0]
    assert val == pytest.approx(lam11**-0.5 * 1.0)


def test_eigenfunction_field_is_normalized():
    from fracadapt.fem import l2_norm

    m = uniform_refine(uniform_refine(make_initial_mesh(SQUARE, 128)))
    psi = eigenfunction_field(SQUARE, 2, 3)
    assert l2_norm(psi, m) == pytest.approx(1.0, rel=1e-3)


def test_unit_rhs_coefficients_closed_form_vs_quadrature():
    # the closed-form <1, psi_ij> must match 2D numerical quadrature
    from fracadapt.oracle import _quadrature_rhs_coef, _sorted_modes, _unit_rhs_coef

    rect = (0.0, 1.0, 0.0, 1.0)
    i, j, lam = _sorted_modes(rect, 25)
    closed = _unit_rhs_coef(rect, i, j)
    numeric = _quadrature_rhs_coef(rect, lambda x, y: np.ones_like(x), i, j)
    assert np.allclose(closed, numeric, atol=1e-12)


def test_sorted_modes_ordering_and_oddness():
    from fracadapt.oracle import _sorted_modes

    i, j, lam = _sorted_modes((0.0, 1.0, 0.0, 1.0), 50)
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] == pytest.approx(2.0 * math.pi**2)
    io, jo, lo = _sorted_modes((0.0, 1.0, 0.0, 1.0), 50, odd_only=True)
    assert np.all(io % 2 == 1) and np.all(jo % 2 == 1)


def test_series_vs_quadrature_agree_for_unit_rhs():
    # the same reference built from closed-form and from quadrature
    # coefficients must agree pointwise
    from fracadapt.oracle import _quadrature_rhs_coef

    a = spectral_reference(UNIT, RhsField.one(), 0.3, modes=400)
    # same modes, coefficients computed by quadrature instead of closed form
    coef = _quadrature_rhs_coef(
        a.rect, lambda x, y: np.ones_like(x), a.modes_i, a.modes_j
    )
    b = SpectralSolution(
        s=a.s, rect=a.rect, modes_i=a.modes_i, modes_j=a.modes_j,
        lam=a.lam, f_coef=coef,
    )
    pts = np.random.default_rng(0).uniform(0.05, 0.95, size=(30, 2))
    assert np.allclose(a.eval(pts), b.eval(pts), atol=1e-10)


def test_eval_blocks_do_not_change_values(monkeypatch):
    # eval works through the points in blocks to bound its buffers; with no
    # BLAS product in it, the block size changes no bit
    ref = spectral_reference(SQUARE, RhsField.one(), 0.5, modes=2000)
    pts = np.random.default_rng(1).uniform(-0.99, 0.99, size=(oracle.EVAL_BLOCK + 300, 2))
    default = ref.eval(pts)
    monkeypatch.setattr(oracle, "EVAL_BLOCK", 7)
    assert np.array_equal(ref.eval(pts), default)


def test_eval_matches_direct_series_on_quadrature_points():
    # eval shares sine tables between points with equal x or y; on the
    # quadrature points of a refined mesh (many shared coordinates, more than
    # one block) it must agree with the series summed point by point
    ref = spectral_reference(SQUARE, RhsField.one(), 0.5, modes=2000)
    m = make_initial_mesh(SQUARE, 512)
    m = refine(m, set(range(0, m.num_cells, 3)))
    pts = _quad_points(m).reshape(-1, 2)
    assert len(pts) > oracle.EVAL_BLOCK
    assert len(np.unique(pts[:, 0])) < len(pts) // 4
    x0, x1, y0, y1 = ref.rect
    lx, ly = x1 - x0, y1 - y0
    terms = (
        ref.u_coef
        * 2.0
        / math.sqrt(lx * ly)
        * np.sin(np.outer((pts[:, 0] - x0) * math.pi / lx, ref.modes_i))
        * np.sin(np.outer((pts[:, 1] - y0) * math.pi / ly, ref.modes_j))
    )
    direct = terms.sum(axis=1)
    scale = np.abs(terms).sum(axis=1)
    assert np.all(np.abs(ref.eval(pts) - direct) <= 1e-13 * scale)


def test_l2_error_exact_for_representable_function():
    # if u_ref is itself P1-representable the error of its interpolant is 0
    m = make_initial_mesh(UNIT, 32)

    class Linear:
        def eval(self, pts):
            pts = np.atleast_2d(pts)
            return 1.0 + 2.0 * pts[:, 0] - pts[:, 1]

    w = FeFunction(m, 1.0 + 2.0 * m.vertices[:, 0] - m.vertices[:, 1])
    assert l2_error(Linear(), w) == pytest.approx(0.0, abs=1e-14)


def test_l2_error_of_zero_function_is_norm():
    ref = eigenfunction_reference(UNIT, 1, 1, 0.5)
    m = uniform_refine(uniform_refine(make_initial_mesh(UNIT, 128)))
    zero = FeFunction(m, np.zeros(m.num_vertices))
    assert l2_error(ref, zero) == pytest.approx(ref.norm(), rel=1e-3)


def test_spectral_reference_rejects_lshape():
    with pytest.raises(ValueError):
        spectral_reference(DomainSpec("lshape"), RhsField.one(), 0.5)


def test_effectivity():
    assert effectivity(0.9, 1.0) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        effectivity(1.0, 0.0)


def test_fractional_power_interpolates_endpoints():
    # s -> 0 reproduces f's coefficients, s -> 1 the inverse Laplacian scaling
    ref0 = eigenfunction_reference(UNIT, 2, 1, 1e-12)
    assert ref0.norm() == pytest.approx(1.0, rel=1e-9)
    ref1 = eigenfunction_reference(UNIT, 2, 1, 1.0)
    assert ref1.norm() == pytest.approx(1.0 / (5.0 * math.pi**2))


@pytest.mark.parametrize(
    "ref",
    [
        spectral_reference(SQUARE, RhsField.one(), 0.5, modes=2000),
        eigenfunction_reference(SQUARE, 1, 2, 0.5),
    ],
    ids=["odd-only", "eigenfunction"],
)
def test_eval_of_a_point_does_not_depend_on_the_others(ref):
    # l2_error stores the values per forest node, computed with whichever
    # nodes are new: a point's value must not depend on its position or company
    m = make_initial_mesh(SQUARE, 128)
    m = refine(m, set(range(0, m.num_cells, 3)))
    pts = _quad_points(m).reshape(-1, 2)
    full = ref.eval(pts)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sub = rng.choice(len(pts), rng.integers(1, len(pts)), replace=False)
        assert np.array_equal(ref.eval(pts[sub]), full[sub])


def test_l2_error_matches_direct_evaluation():
    # the per-node column gives the values of a direct evaluation on the
    # mesh's quadrature points, on every mesh of a forest it grows with
    ref = spectral_reference(SQUARE, RhsField.one(), 0.5, modes=2000)
    m = make_initial_mesh(SQUARE, 32)
    rng = np.random.default_rng(4)
    for _ in range(4):
        m = refine(m, set(rng.choice(m.num_cells, m.num_cells // 3, replace=False).tolist()))
        u_h = FeFunction(m, np.sin(m.vertices[:, 0]) * np.cos(m.vertices[:, 1]))
        diff2 = (ref.eval(_quad_points(m).reshape(-1, 2)).reshape(-1, 6)
                 - u_h.cell_values_at(oracle.TRI_QP)) ** 2
        direct = math.sqrt(np.einsum("mq,q,m->", diff2, oracle.TRI_QW, m.cell_areas()))
        assert l2_error(ref, u_h) == pytest.approx(direct, rel=1e-13, abs=0)


def test_references_get_separate_columns():
    m = uniform_refine(make_initial_mesh(UNIT, 32))
    zero = FeFunction(m, np.zeros(m.num_vertices))
    a, b = eigenfunction_reference(UNIT, 1, 1, 0.5), eigenfunction_reference(UNIT, 1, 1, 0.5)
    assert l2_error(a, zero) == l2_error(b, zero)
    c = eigenfunction_reference(UNIT, 2, 1, 0.5)
    assert l2_error(c, zero) != l2_error(a, zero)
    ref = oracle._ref_values
    assert {(ref, a), (ref, b), (ref, c)} <= set(m.base.columns)
    assert len({key for key in m.base.columns if key[0] is ref}) == 3


def test_spectral_solution_is_frozen():
    ref = eigenfunction_reference(UNIT, 1, 1, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.s = 0.3
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.f_coef = np.array([2.0])

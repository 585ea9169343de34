"""The estimator kernel and the union pass against the frozen kernel of
``kernel_reference``, bit for bit: stacked local indicators, the union's own
blocks, coarser groups kept on the kernel, and the class sums."""

import dataclasses

import numpy as np
import pytest

import kernel_reference
from fracadapt import estimators
from fracadapt.estimators import _BLOCK, _columns, global_union_estimate, local_indicators
from fracadapt.fem import FeFunction, ParametricState, RhsField
from fracadapt.mesh import (
    DomainSpec,
    make_initial_mesh,
    read_mesh,
    refine,
    union_mesh,
    write_mesh,
)
from fracadapt.rational import bp_coefficients

UNIT = DomainSpec("unit-square")
LSHAPE = DomainSpec("lshape")


def _random_refinement(mesh, rounds, seed):
    """``mesh`` refined ``rounds`` times at random fifths of its cells."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = rng.choice(mesh.num_cells, max(1, mesh.num_cells // 5), replace=False)
        mesh = refine(mesh, set(marked.tolist()))
    return mesh


def _poles(s, L):
    """A pole sum and L of its poles spread over it, extremes included."""
    scheme = bp_coefficients(s, 0.6, 1.0)
    l = np.linspace(0, scheme.N - 1, L).astype(int)
    return scheme, l


def _reference_indicators(mesh, nodal, b, c, f):
    """(m, L) indicators of the frozen kernel, ``_BLOCK`` problems at a time."""
    columns, eta = _columns(mesh, f), []
    for k in range(0, nodal.shape[1], _BLOCK):
        block = slice(k, k + _BLOCK)
        y = kernel_reference.modal_coeffs(mesh, columns, nodal[:, block], b[block], c[block])
        eta.append(np.sqrt(columns[4] * np.sum(y**2, axis=1)).T)
    return np.concatenate(eta, axis=1)


def _assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("s", [0.05, 0.95])
@pytest.mark.parametrize("L", [1, 3, 8, 9])
def test_local_indicators_keep_the_frozen_bits(L, s, seed):
    root = make_initial_mesh(LSHAPE, 24) if seed else make_initial_mesh(UNIT, 32)
    mesh = _random_refinement(root, 4, seed)
    scheme, l = _poles(s, L)
    nodal = np.random.default_rng(seed).normal(size=(mesh.num_vertices, L))
    f = RhsField.test2()
    want = _reference_indicators(mesh, nodal, scheme.b[l], scheme.c[l], f)
    got = local_indicators(mesh, FeFunction(mesh, nodal), scheme.b[l], scheme.c[l], f)
    _assert_bits(got, want)
    if L == 1:
        got = local_indicators(mesh, FeFunction(mesh, nodal[:, 0]), scheme.b[l], scheme.c[l], f)
        _assert_bits(got, want[:, 0])


def _read_root(tmp_path, shift):
    """A read_mesh forest of the 32-cell unit square with its vertices moved
    by ``shift(vertices, interior)``."""
    mesh = make_initial_mesh(UNIT, 32)
    mesh.vertices += shift(mesh.vertices, ~mesh.boundary_vertex)
    write_mesh(mesh, tmp_path / "moved.txt")
    return read_mesh(tmp_path / "moved.txt")


def _perturbed(seed):
    """Interior vertices moved at random: few cells share a shape."""
    rng = np.random.default_rng(seed)
    return lambda x, interior: interior[:, None] * rng.uniform(-0.04, 0.04, size=x.shape)


def _sheared(x, interior):
    """A shear: few classes, and no cell symmetric under the mirror of its
    refinement edge, so every term of W' j counts."""
    return np.column_stack([0.3 * x[:, 1], np.zeros(len(x))])


def _states(meshes, count, seed):
    """``count`` states with random nodal values, pole l on meshes[l % k]: the
    ones on meshes[0], the union, dirty."""
    rng, states = np.random.default_rng(seed), []
    for l in range(count):
        mesh = meshes[l % len(meshes)]
        w = FeFunction(mesh, rng.normal(size=mesh.num_vertices))
        states.append(ParametricState(index=l, mesh=mesh, solution=w, dirty=mesh is meshes[0]))
    return states


def _pass(scheme, states, union, f):
    """The union pass on copies of ``states``: eta, the recombined solution,
    every copy's indicators, and whether the class sums ran."""
    copies, calls = [dataclasses.replace(st) for st in states], []
    class_sums = estimators._class_sums
    estimators._class_sums = lambda *args: calls.append(1) or class_sums(*args)
    try:
        eta, solution = global_union_estimate(scheme, copies, union, f)
    finally:
        estimators._class_sums = class_sums
    return eta, solution.nodal_values, [st.indicators for st in copies], bool(calls)


def _frozen(monkeypatch):
    """Run the union pass on the frozen kernel and class sums."""
    monkeypatch.setattr(estimators, "_modal_coeffs", lambda target, columns, nodal, b, c, out:
                        kernel_reference.modal_coeffs(target, columns, nodal, b, c))
    monkeypatch.setattr(estimators, "_class_sums", kernel_reference.class_sums)


def _assert_same_pass(got, want):
    assert got[0] == want[0] and got[3] == want[3]
    _assert_bits(got[1], want[1])
    for a, b in zip(got[2], want[2], strict=True):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", [0.05, 0.95])
@pytest.mark.parametrize("L", [1, 3, 8, 9])
def test_union_pass_keeps_the_frozen_bits(monkeypatch, tmp_path, L, s):
    # L dirty problems on the union, in blocks, and L on each of two coarser
    # meshes of a forest with many classes, so that they stay on the kernel
    root = _read_root(tmp_path, _perturbed(L))
    rng = np.random.default_rng(L)
    coarse = [root, refine(root, set(rng.choice(32, 6, replace=False).tolist()))]
    union = refine(union_mesh(coarse), set(rng.choice(32, 4, replace=False).tolist()))
    scheme, f = bp_coefficients(s, 0.6, 1.0), RhsField.test2()
    states = _states([union, *coarse], 3 * L, L)
    got = _pass(scheme, states, union, f)
    assert not got[3]  # no class sums: 3 x classes >= 2 L
    _frozen(monkeypatch)
    _assert_same_pass(got, _pass(scheme, states, union, f))


@pytest.mark.parametrize("s", [0.05, 0.95])
def test_class_sums_keep_the_frozen_bits(monkeypatch, s):
    # three of every four poles on two coarser meshes of the unit square,
    # which has four classes of cells: the class sums carry them
    base = _random_refinement(make_initial_mesh(UNIT, 32), 3, 7)
    coarse = [base, refine(base, {2, 6, 10})]
    union = refine(union_mesh(coarse), {0, 8})
    scheme, f = bp_coefficients(s, 0.6, 1.0), RhsField.test2()
    states = _states([union, *coarse, coarse[0]], scheme.N, 7)
    got = _pass(scheme, states, union, f)
    assert got[3]
    _frozen(monkeypatch)
    _assert_same_pass(got, _pass(scheme, states, union, f))


@pytest.mark.parametrize("sheared", [False, True])
def test_class_sums_keep_the_frozen_bits_on_random_sums(tmp_path, sheared):
    # the class sums of random weighted sums, on a union of the unit square
    # and of a sheared one, whose mirror-free cells make the order of every
    # sum count
    root = _read_root(tmp_path, _sheared) if sheared else make_initial_mesh(UNIT, 32)
    base = _random_refinement(root, 3, 7)
    union = refine(union_mesh([base, refine(base, {2, 6, 10})]), {0, 8})
    f, rng = RhsField.test2(), np.random.default_rng(5)
    cls, _, area = estimators._classes(union, f)
    Z = rng.normal(size=(union.num_vertices, 6 * len(area)))
    S = rng.normal(size=(len(area), 3))
    columns = _columns(union, f)
    _assert_bits(estimators._class_sums(union, columns, cls, Z, S),
                 kernel_reference.class_sums(union, columns, cls, Z, S))

"""Bisection refinement and exact mesh overlays.

Meshes are bisection forests over a fixed initial triangulation.  Refining a
marked set automatically closes for conformity (no hanging nodes), and the
overlay ("union") of several independently refined meshes is computed exactly
by merging the forests.
"""

import os
import tempfile

import numpy as np

from fracadapt import (
    DomainSpec,
    is_refinement_of,
    make_initial_mesh,
    read_mesh,
    refine,
    union_mesh,
    write_mesh,
)

m0 = make_initial_mesh(DomainSpec("lshape"), 96)
print(f"initial L-shape mesh: {m0.num_cells} cells, {m0.num_vertices} vertices")

# refine a few cells near the reentrant corner; the closure keeps the mesh
# conforming, so more cells than the marked ones get bisected
corner = np.flatnonzero(np.linalg.norm(m0.vertices[m0.cells].mean(axis=1), axis=1) < 0.4)
ma = refine(m0, set(corner[:4]))
print(f"after marking 4 corner cells: {ma.num_cells} cells (closure included)")
# at a hanging node the coarse edge and its two halves would each have one
# incident cell, so the edges with one cell would add up to more than the
# perimeter 8
ends = ma.vertices[ma.edges[ma.edge_cells[:, 1] < 0]]
d = ends[:, 1] - ends[:, 0]
assert np.isclose(np.hypot(d[:, 0], d[:, 1]).sum(), 8.0, rtol=1e-12), "conformity violated"

# a second mesh refined somewhere else entirely
mb = refine(m0, {m0.num_cells - 1, m0.num_cells - 2})
u = union_mesh([ma, mb])
print(f"union of the two refinements: {u.num_cells} cells")
print(f"union refines ma: {is_refinement_of(u, ma)}, mb: {is_refinement_of(u, mb)}")
print(f"areas add up: sum = {u.cell_areas().sum():.12f} (domain area 3)")

# ASCII round trip is bit-exact
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "union.txt")
    write_mesh(u, path)
    again = read_mesh(path)
    write_mesh(again, path + ".2")
    with open(path) as first, open(path + ".2") as second:
        print("round trip bit-exact:", first.read() == second.read())

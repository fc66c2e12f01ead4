import heapq
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towerlab import conjugate
from towerlab.polygon import near_special_hexagon, regular_polygon, split_rectangle, unit_square
from towerlab.meshing import TriMesh, triangulate
from towerlab.jssolver import last_capped
from towerlab.conjugate import (
    conjugate_function,
    conjugate_surface,
    psi_at,
    flux,
    edge_flux_report,
    triangle_circulations,
    saddle_tower_piece,
    surface_to_obj,
    tower_to_obj,
    write_flux_csv,
    write_period_file,
    PathOutsideDomain,
)

# psi values of the continuous Scherk-square conjugate, from adaptive
# quadrature of the analytic flux density along straight segments from
# the corner (frozen; rerun notes in the repo history).  psi is 1/2 on
# both center lines by symmetry and exactly 1/3 at (1/4, 1/4).
QUAD_PROBES = [
    ((0.5, 0.5), 0.5),
    ((0.25, 0.25), 1.0 / 3.0),
    ((0.3, 0.6), 0.5581391403),
    ((0.5, 0.25), 0.5),
    ((0.25, 0.5), 0.5),
    ((0.5, 0.75), 0.5),
]


@pytest.fixture(scope="session")
def square_field(square_js):
    return conjugate_function(square_js)


@pytest.fixture(scope="session")
def square_surface(square_js):
    return conjugate_surface(square_js)


# ------------------------------------------------------------- zero data

def test_zero_solution_psi_identically_zero(zero_sol):
    f = conjugate_function(zero_sol)
    assert np.all(f.psi == 0.0)
    assert f.loop_defect == 0.0
    assert f.psi[f.root] == 0.0


def test_zero_solution_surface_is_rotated_domain(zero_sol):
    # w1 = dy and w2 = -dx, so the immersion is (y, -x, 0) exactly up to
    # the roundoff of summing coordinate differences along the tree
    c = conjugate_surface(zero_sol)
    m = zero_sol.mesh
    tgt = np.stack([m.nodes[:, 1], -m.nodes[:, 0], np.zeros(len(m.nodes))], axis=1)
    np.testing.assert_allclose(c.xyz, tgt, rtol=0, atol=1e-12)
    assert c.loop_defects == (0.0, 0.0, 0.0)


def test_zero_solution_loop_flux_zero(zero_sol):
    loop = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7), (0.3, 0.3)]
    assert flux(zero_sol, loop) == 0.0


# ------------------------------------------------------ psi structure

def test_vertex_parity(square_field):
    # alternating 0/1 at the polygon corners; the 7.4e-3 gap on this mesh
    # is the cap-3 wall flux deficit, not integration error
    vex = square_field.psi[square_field.mesh.vertex_nodes]
    assert np.abs(vex - [0.0, 1.0, 0.0, 1.0]).max() <= 0.02


def test_psi_bounds(square_field):
    assert square_field.psi.min() >= -0.02
    assert square_field.psi.max() <= 1.02


def test_psi_anchored_at_origin_vertex(square_field):
    assert square_field.psi[square_field.root] == 0.0
    np.testing.assert_allclose(square_field.mesh.nodes[square_field.root], (0.0, 0.0), atol=1e-12)


def test_boundary_affinity(square_field):
    """psi restricted to a wall stays close to the chord of its endpoints."""
    m = square_field.mesh
    psi = square_field.psi
    for e in range(4):
        segids = np.flatnonzero(m.bnd_edge_id == e)
        ids = np.concatenate([m.bnd_edges[segids, 0], [m.bnd_edges[segids[-1], 1]]])
        arc = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(m.nodes[ids], axis=0).T))])
        lin = psi[ids[0]] + (psi[ids[-1]] - psi[ids[0]]) * arc / arc[-1]
        # measured 0.0035 on every edge at h = 0.05
        assert np.abs(psi[ids] - lin).max() <= 0.02


def test_interior_probes(square_field):
    # gaps measured at h = 0.05, cap 3: 4.0e-3 center, 2.0e-3 at the
    # quarter point, up to 1.9e-2 near the walls where the integration
    # crosses the layer once
    for q, want in QUAD_PROBES[:2]:
        assert abs(psi_at(square_field, q) - want) <= 1e-2
    for q, want in QUAD_PROBES[2:]:
        assert abs(psi_at(square_field, q) - want) <= 3e-2


def test_wall_psi_is_running_flux(square_field, square_js):
    # the tree chains the boundary ring, so the corner value must equal
    # the one-sided flux of the first wall to the last bit
    rep = edge_flux_report(square_js)
    v1 = square_field.psi[square_field.mesh.vertex_nodes[1]]
    assert abs(v1 - rep[0].flux) <= 1e-12


# ------------------------------------------------------------- line flux

def test_flux_of_marked_walls(square_js):
    assert abs(flux(square_js, [(0.0, 0.0), (1.0, 0.0)]) - 1.0) <= 0.02
    assert abs(flux(square_js, [(1.0, 0.0), (1.0, 1.0)]) + 1.0) <= 0.02


def test_flux_matches_report_rows(square_js):
    rep = edge_flux_report(square_js)
    v = square_js.mesh.polygon.vertices
    closed = np.vstack([v, v[:1]])
    for i, row in enumerate(rep):
        path = [tuple(closed[i]), tuple(closed[i + 1])]
        assert abs(flux(square_js, path) - row.flux) <= 1e-12


def test_centered_loop_flux_vanishes(square_js):
    loop = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7), (0.3, 0.3)]
    assert abs(flux(square_js, loop)) <= 1e-3


def test_asymmetric_loop_flux_small(square_js):
    # no symmetry cancellation here; 3.3e-3 measured, pure quadrature
    # error of the piecewise constant form at h = 0.05
    loop = [(0.2, 0.2), (0.8, 0.2), (0.8, 0.5), (0.2, 0.5), (0.2, 0.2)]
    assert abs(flux(square_js, loop)) <= 0.02


def test_path_independence_within_defect(square_js, square_field):
    pairs = [
        ([(0.2, 0.2), (0.8, 0.3)], [(0.2, 0.2), (0.5, 0.6), (0.8, 0.3)]),
        ([(0.3, 0.5), (0.7, 0.5)], [(0.3, 0.5), (0.5, 0.25), (0.7, 0.5)]),
        ([(0.1, 0.5), (0.9, 0.5)], [(0.1, 0.5), (0.5, 0.9), (0.9, 0.5)]),
    ]
    for a, b in pairs:
        assert abs(flux(square_js, a) - flux(square_js, b)) <= square_field.loop_defect


def test_edge_owner_cached_and_survives_pickling(square_js):
    mesh = square_js.mesh
    edges, owner = mesh._edge_owner
    assert not edges.flags.writeable and not owner.flags.writeable
    assert "_edge_owner" not in repr(mesh)
    # every undirected edge once, in endpoint order, with its lowest triangle
    lowest = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            lowest.setdefault((min(a, b), max(a, b)), t)
    keys = sorted(lowest)
    assert edges.tolist() == [list(k) for k in keys]
    assert owner.tolist() == [lowest[k] for k in keys]

    chords = [[(0.2, 0.3), (0.7, 0.6)], [(0.1, 0.9), (0.5, 0.5), (0.9, 0.2)]]

    def outputs(sol):
        rows = edge_flux_report(sol)
        return ([flux(sol, c) for c in chords], [(r.flux, r.defect) for r in rows],
                conjugate_function(sol).psi)

    want = outputs(square_js)
    # the circulations read the side table, which pickles with the mesh too
    assert "_sides" not in repr(mesh)
    copy = pickle.loads(pickle.dumps(square_js))
    assert "_edge_owner" in vars(copy.mesh) and "_sides" in vars(copy.mesh)
    assert np.array_equal(copy.mesh._sides, mesh._sides)
    got = outputs(copy)
    assert got[0] == want[0] and got[1] == want[1]
    assert np.array_equal(got[2], want[2])


def test_degenerate_path_has_zero_flux(square_js):
    assert flux(square_js, [(0.4, 0.6), (0.4, 0.6)]) == 0.0
    with pytest.raises(ValueError):
        flux(square_js, [(0.4, 0.6)])


def test_flux_outside_domain_raises(square_js):
    with pytest.raises(PathOutsideDomain):
        flux(square_js, [(0.5, 0.5), (1.5, 0.5)])
    # barely outside, far outside and non-finite ends fail the same way
    for end in [(1.0 + 1e-6, 0.5), (1e6, 0.0), (np.nan, 0.5), (0.5, np.inf)]:
        with pytest.raises(PathOutsideDomain):
            flux(square_js, [(0.5, 0.5), end])


def test_flux_just_outside_wall_is_wall_flux(square_cap6):
    # within locate_many's 1e-10 margin the path splits at the wall nodes
    # and keeps the wall's one-sided triangles
    bottom = flux(square_cap6, [(0.0, 0.0), (1.0, 0.0)])
    right = flux(square_cap6, [(1.0, 0.0), (1.0, 1.0)])
    assert abs(bottom - 0.99271) < 1e-5
    for off in (1e-12, 1e-11, 5e-11):
        assert abs(flux(square_cap6, [(0.0, -off), (1.0, -off)]) - bottom) <= 1e-15
        assert abs(flux(square_cap6, [(1.0 + off, 0.0), (1.0 + off, 1.0)]) - right) <= 1e-15
    with pytest.raises(PathOutsideDomain):
        flux(square_cap6, [(0.0, -1e-9), (1.0, -1e-9)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
                min_size=2, max_size=5))
def test_flux_bounded_by_length(square_js, pts):
    path = [tuple(p) for p in pts]
    length = float(np.hypot(*np.diff(np.asarray(path), axis=0).T).sum())
    assert abs(flux(square_js, path)) <= length + 0.02


# ------------------------------------------------------------ edge report

def test_square_report(square_js):
    rep = edge_flux_report(square_js)
    assert [r.edge for r in rep] == [0, 1, 2, 3]
    assert [r.marking for r in rep] == [1, -1, 1, -1]
    for r in rep:
        assert abs(r.flux - r.marking) <= 0.02
        assert r.defect == abs(r.flux - r.marking)
    assert abs(sum(r.flux for r in rep)) <= 1e-6


def test_hexagon_report(hex_js):
    rep = edge_flux_report(hex_js)
    assert [r.marking for r in rep] == [1, -1, 1, -1, 1, -1]
    # the h = 0.1 mesh leaves a 4.8e-2 one-sided quadrature deficit per
    # wall; at h = 0.05 the same report lands below 0.02 (acceptance run)
    for r in rep:
        assert abs(r.flux - r.marking) <= 0.06
    assert abs(sum(r.flux for r in rep)) <= 1e-6


def test_split_rectangle_report_keeps_defect():
    # the JS problem on the 1 x 2 split rectangle has no solution; the
    # cap-6 solve still converges but its long-side fluxes stall around
    # 0.983 while matched square walls reach 0.9927 at the same h
    mesh = triangulate(split_rectangle(3), h=0.05, g=0.25)
    sol = last_capped(mesh, caps=(2.0, 3.0, 4.0, 5.0, 6.0))[-1]
    rep = edge_flux_report(sol)
    assert max(r.defect for r in rep) >= 0.015
    assert abs(sum(r.flux for r in rep)) <= 1e-6


def test_flux_csv_roundtrip(tmp_path, square_js):
    rep = edge_flux_report(square_js)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flux_csv(rep, p1)
    write_flux_csv(rep, p2)
    b = p1.read_bytes()
    assert b == p2.read_bytes()
    lines = b.decode().strip().splitlines()
    assert lines[0] == "edge,marking,flux,defect"
    assert len(lines) == 5


# ------------------------------------------------------- conjugate surface

def test_surface_height_is_psi_bitwise(square_field, square_surface):
    assert np.array_equal(square_surface.xyz[:, 2], square_field.psi)


def test_surface_anchored_at_origin(square_surface):
    assert np.all(square_surface.xyz[square_surface.mesh.vertex_nodes[0]] == 0.0)


def test_loop_defects_report_wall_layer(square_field, square_surface):
    d1, d2, d3 = square_surface.loop_defects
    assert d3 == square_field.loop_defect
    # dpsi circulations stay at the percent level; the horizontal forms
    # jump by order one across the wall layer of a capped solve and the
    # report must say so rather than average it away
    assert d3 <= 0.03
    assert d1 >= 0.5 and d2 >= 0.5


def test_triangle_circulations_shape(square_js, square_surface):
    circ = triangle_circulations(square_js)
    assert circ.shape == (len(square_js.mesh.triangles), 3)
    assert np.abs(circ[:, 2]).max() == square_surface.loop_defects[2]


def test_boundary_curves_hug_parity_planes(square_surface):
    curves = square_surface.boundary_curves()
    assert [c.vertex for c in curves] == [0, 1, 2, 3]
    assert [c.plane for c in curves] == [0.0, 1.0, 0.0, 1.0]
    x3 = square_surface.xyz[:, 2]
    ring = list(square_surface.mesh.boundary_nodes())
    for c in curves:
        assert np.abs(x3[c.nodes] - c.plane).max() <= 0.02
        vn = square_surface.mesh.vertex_nodes[c.vertex]
        assert vn in c.nodes
        pos = [ring.index(n) for n in c.nodes]
        gaps = np.diff(pos) % len(ring)
        assert np.all(gaps == 1)


def test_boundary_curves_grow_with_band(square_surface):
    tight = square_surface.boundary_curves(band=0.02)
    loose = square_surface.boundary_curves(band=0.2)
    for t, l in zip(tight, loose):
        assert len(l.nodes) > len(t.nodes)


# ------------------------------------------------------------ saddle tower

def test_tower_counts_and_period(square_surface):
    tp = saddle_tower_piece(square_surface)
    n = len(square_surface.xyz)
    assert len(tp.vertices) == 2 * n - tp.welded
    assert len(tp.triangles) == 2 * len(square_surface.mesh.triangles)
    assert tp.welded >= 1
    np.testing.assert_array_equal(tp.period, (0.0, 0.0, 2.0))
    assert tp.vertices[:, 2].min() >= -1.02
    assert tp.vertices[:, 2].max() <= 1.02


def test_tower_mirror_symmetry(square_surface):
    # reflecting the welded piece across x3 = 0 permutes its vertex set,
    # so a second reflection gives back the original within the weld gap
    from scipy.spatial import cKDTree

    tp = saddle_tower_piece(square_surface)
    flipped = tp.vertices * np.array([1.0, 1.0, -1.0])
    d, _ = cKDTree(tp.vertices).query(flipped)
    assert d.max() <= 1e-6


def test_tower_triangle_indices_valid(square_surface):
    tp = saddle_tower_piece(square_surface)
    assert tp.triangles.min() >= 0
    assert tp.triangles.max() < len(tp.vertices)


# ------------------------------------------------------------ file output

def test_obj_outputs_deterministic(tmp_path, square_surface):
    tp = saddle_tower_piece(square_surface)
    for writer, obj in [(surface_to_obj, square_surface), (tower_to_obj, tp)]:
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        writer(obj, p1)
        writer(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        head = p1.read_text().splitlines()[0]
        assert head.startswith("v ") or head.startswith("#")


def test_period_file(tmp_path, square_surface):
    tp = saddle_tower_piece(square_surface)
    out = tmp_path / "period.json"
    write_period_file(tp, out)
    import json

    assert json.loads(out.read_text()) == {"period": [0.0, 0.0, 2.0]}


# ------------------------------------------------------- spanning tree

# The node-at-a-time heapq Dijkstra that the array passes replaced, kept
# as the reference tree and the reference potentials.

def _heap_tree(mesh, root, weight):
    """(parent, child, edge index) steps in pop order, and the distances."""
    edges, _ = mesh._edge_owner
    n = len(mesh.nodes)
    ring = mesh.boundary_nodes()
    nb = len(ring)
    p0 = ring.tolist().index(root)
    fwd = p0 + np.arange(nb // 2 + 1)
    bwd = p0 - np.arange(nb - nb // 2)
    src = ring[np.concatenate([fwd[:-1], bwd[:-1]]) % nb]
    dst = ring[np.concatenate([fwd[1:], bwd[1:]]) % nb]
    steps = list(zip(src.tolist(), dst.tolist(),
                     mesh._edge_index(np.stack([src, dst], axis=1)).tolist()))
    nbr = [[] for _ in range(n)]
    for k, (i, j) in enumerate(edges):
        nbr[int(i)].append((int(j), k))
        nbr[int(j)].append((int(i), k))
    dist = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    parent = np.full(n, -1, dtype=np.int64)
    via = np.full(n, -1, dtype=np.int64)
    heap = []
    for r in ring.tolist():
        dist[r] = 0.0
        heapq.heappush(heap, (0.0, r))
    while heap:
        dd, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if parent[i] >= 0:
            steps.append((int(parent[i]), i, int(via[i])))
        for j, k in nbr[i]:
            nd = dd + weight[k]
            if not done[j] and nd < dist[j]:
                dist[j] = nd
                parent[j] = i
                via[j] = k
                heapq.heappush(heap, (nd, j))
    if not done.all():
        raise ValueError("mesh edge graph is disconnected")
    return steps, dist


def _heap_tree_arrays(mesh, root, weight):
    steps, dist = _heap_tree(mesh, root, weight)
    parent = np.full(len(mesh.nodes), -1, dtype=np.int64)
    via = np.full(len(mesh.nodes), -1, dtype=np.int64)
    for i, j, k in steps:
        parent[j], via[j] = i, k
    return parent, via, dist


def _heap_integrate(mesh, coeffs, root):
    edges, owner = mesh._edge_owner
    circs = conjugate._triangle_circulations(mesh, coeffs)
    weight = conjugate._edge_weights(mesh, np.abs(circs[:, -1]))
    steps, _ = _heap_tree(mesh, root, weight)
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    w = np.einsum("ekd,ed->ek", coeffs[owner], d)
    pot = np.zeros((len(mesh.nodes), coeffs.shape[1]))
    for i, j, k in steps:
        sgn = 1.0 if edges[k, 0] == i else -1.0
        pot[j] = pot[i] + sgn * w[k]
    return pot


def _assert_same_tree(mesh, root, weight):
    got = conjugate._spanning_tree(mesh, root, weight)
    want = _heap_tree_arrays(mesh, root, weight)
    for g, w_ in zip(got, want):
        assert np.array_equal(g, w_)


ORACLE_DOMAINS = {
    "square": (unit_square(), 0.05, 0.25),
    "hexagon": (regular_polygon(3), 0.1, 0.5),
    "octagon": (regular_polygon(4), 0.1, 0.5),
    "near-special": (near_special_hexagon(0.05), 0.05, 0.25),
    "split-rectangle": (split_rectangle(3), 0.05, 0.25),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_DOMAINS))
def ladder(request, square_fine_mesh):
    domain, h, g = ORACLE_DOMAINS[request.param]
    mesh = square_fine_mesh if request.param == "square" else triangulate(domain, h=h, g=g)
    return last_capped(mesh, caps=(2.0, 3.0, 4.0, 5.0, 6.0))


def _check_against_heap(sol):
    mesh = sol.mesh
    root = conjugate._root_node(mesh)
    coeffs = conjugate._surface_coeffs(sol)
    circs = conjugate._triangle_circulations(mesh, coeffs)
    _assert_same_tree(mesh, root, conjugate._edge_weights(mesh, np.abs(circs[:, -1])))
    psi = conjugate_function(sol).psi
    xyz = conjugate_surface(sol).xyz
    assert psi.tobytes() == _heap_integrate(mesh, conjugate._psi_coeffs(sol)[:, None, :],
                                            root)[:, 0].tobytes()
    assert xyz.tobytes() == _heap_integrate(mesh, coeffs, root).tobytes()


def test_tree_and_potentials_equal_heap_reference(ladder):
    # same parent, edge and distance at every node, same potential bytes,
    # at every cap of the ladder
    for sol in ladder:
        _check_against_heap(sol)


def test_zero_solution_tree_equals_heap_reference(zero_sol):
    # every edge weighs 0, so all nodes share one distance and the whole
    # tree comes from the tie replay
    _check_against_heap(zero_sol)


TIE_WEIGHTS = np.array([0.0, 4e-19, 1e-3, 2e-3])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
def test_tree_equals_heap_reference_under_ties(square_fine_mesh, seed, mix):
    # a handful of weight values makes distance ties common; 4e-19 is
    # below one ulp of every nonzero distance, so it ties too
    mesh = square_fine_mesh
    p = np.asarray(mix, dtype=float) / sum(mix)
    weight = np.random.default_rng(seed).choice(TIE_WEIGHTS, size=len(mesh._edge_owner[0]), p=p)
    _assert_same_tree(mesh, int(mesh.vertex_nodes[0]), weight)


def test_disconnected_edge_graph_raises():
    # two separate triangles; the boundary ring runs round the first
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
    mesh = TriMesh(polygon=unit_square(), h=1.0, g=1.0, nodes=nodes,
                   triangles=np.array([[0, 1, 2], [3, 4, 5]]),
                   bnd_edges=np.array([[0, 1], [1, 2], [2, 0]]),
                   bnd_edge_id=np.array([0, 1, 2]), bnd_marking=np.array([1, -1, 0]),
                   vertex_nodes=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="disconnected: 3 of 6 nodes unreached"):
        conjugate._spanning_tree(mesh, 0, np.zeros(6))

"""Mesh generator tests: sizing, conformity, quality, determinism, refinement."""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from towerlab import meshing
from towerlab.meshing import (
    MeshFailure,
    OutsideDomain,
    locate,
    locate_many,
    mesh_to_obj,
    refine,
    sizing,
    triangulate,
)
from towerlab.polygon import (
    area,
    boundary_distance,
    near_special_hexagon,
    regular_polygon,
    split_rectangle,
    unit_square,
)


@pytest.fixture(scope="module")
def square_mesh():
    return triangulate(unit_square(), 0.25, 1.0)


@pytest.fixture(scope="module")
def graded_mesh():
    return triangulate(unit_square(), 0.1, 0.25)


def test_uniform_square_size_range(square_mesh):
    m = square_mesh
    assert 32 <= len(m.triangles) <= 64
    assert m.min_angle() >= 20.0
    bdist = [boundary_distance(m.polygon, q) for q in m.nodes[:m.n_boundary]]
    assert max(bdist) < 1e-9


def test_graded_square_fine_near_corners(graded_mesh):
    m = graded_mesh
    # smallest boundary segment should be close to h*g = 0.025
    seg = m.nodes[m.bnd_edges[:, 0]] - m.nodes[m.bnd_edges[:, 1]]
    lens = np.linalg.norm(seg, axis=1)
    assert 0.015 < lens.min() < 0.04
    assert lens.max() < 0.15
    corners = m.polygon.vertices
    d = np.min(np.linalg.norm(m.nodes[:, None, :] - corners[None], axis=2), axis=1)
    # the finest segments hug the corners
    finest = np.argmin(lens)
    a = m.nodes[m.bnd_edges[finest, 0]]
    assert np.min(np.linalg.norm(corners - a, axis=1)) < 0.06


def test_all_polygon_vertices_are_nodes():
    p = split_rectangle(3)
    m = triangulate(p, 0.1, 0.5)
    for k, v in enumerate(p.vertices):
        node = m.nodes[m.vertex_nodes[k]]
        assert np.linalg.norm(node - v) < 1e-12


def test_area_sum_matches_polygon():
    for p, h, g in [(unit_square(), 0.2, 1.0), (regular_polygon(3), 0.15, 0.5),
                    (near_special_hexagon(0.1), 0.1, 0.3)]:
        m = triangulate(p, h, g)
        assert abs(float(m.triangle_areas().sum()) - area(p)) < 1e-9
        assert m.min_angle() >= 20.0


def test_boundary_tags_follow_markings():
    p = regular_polygon(3)
    m = triangulate(p, 0.15, 0.5)
    assert set(m.bnd_edge_id.tolist()) == set(range(6))
    for eid in range(6):
        mk = m.bnd_marking[m.bnd_edge_id == eid]
        assert (mk == p.markings[eid]).all()
    # boundary walk is closed and in arc order
    assert (m.bnd_edges[:, 0] == np.arange(m.n_boundary)).all()
    assert (m.bnd_edges[:, 1] == (np.arange(m.n_boundary) + 1) % m.n_boundary).all()


def test_determinism(square_mesh):
    m2 = triangulate(unit_square(), 0.25, 1.0)
    assert np.array_equal(square_mesh.nodes, m2.nodes)
    assert np.array_equal(square_mesh.triangles, m2.triangles)


def test_sizing_formula():
    p = unit_square()
    ell = sizing(p, np.array([[0.5, 0.5], [0.01, 0.0], [0.15, 0.0]]), 0.1, 0.25)
    assert abs(ell[0] - 0.1) < 1e-12           # far from vertices
    assert abs(ell[1] - 0.025) < 1e-12         # clipped at g
    assert abs(ell[2] - 0.05) < 1e-12          # d/0.3 = 0.5
    # d's cap at 1 makes the field h far away
    wide = sizing(split_rectangle(5), np.array([[0.5, 2.0]]), 0.2, 0.5)
    assert abs(wide[0] - 0.2) < 1e-12


def test_refine_quadruples_and_prefixes(square_mesh):
    m = square_mesh
    r = refine(m)
    assert len(r.triangles) == 4 * len(m.triangles)
    assert abs(r.h - m.h / 2) < 1e-15
    assert np.array_equal(r.nodes[: len(m.nodes)], m.nodes)
    assert r.min_angle() >= 20.0
    assert abs(float(r.triangle_areas().sum()) - area(m.polygon)) < 1e-9
    # refined boundary segments halve and keep their tags
    assert len(r.bnd_edges) == 2 * len(m.bnd_edges)
    assert np.array_equal(np.repeat(m.bnd_edge_id, 2), r.bnd_edge_id)
    r2 = refine(r)
    assert len(r2.triangles) == 16 * len(m.triangles)
    assert np.array_equal(r2.nodes[: len(r.nodes)], r.nodes)


def test_refine_keeps_boundary_nodes_on_boundary():
    p = regular_polygon(4)
    m = triangulate(p, 0.3, 1.0)
    r = refine(m)
    bnodes = set(r.bnd_edges.ravel().tolist())
    for i in sorted(bnodes):
        assert boundary_distance(p, r.nodes[i]) < 1e-9


def test_locate(square_mesh):
    m = square_mesh
    t, bary = locate(m, (0.5, 0.5))
    assert bary.min() > -1e-12
    assert abs(bary.sum() - 1.0) < 1e-12
    tri = m.triangles[t]
    rec = (bary[:, None] * m.nodes[tri]).sum(axis=0)
    assert np.linalg.norm(rec - [0.5, 0.5]) < 1e-12
    with pytest.raises(OutsideDomain):
        locate(m, (1.5, 0.5))
    # a node shared by several triangles resolves to the lowest index
    node = m.nodes[m.triangles[0][0]]
    t0, _ = locate(m, node)
    owners = [k for k, tri in enumerate(m.triangles) if m.triangles[0][0] in tri]
    assert t0 == min(owners)


def test_locate_many_matches_scalar(square_mesh):
    m = square_mesh
    rng = np.random.default_rng(3)
    pts = 0.05 + 0.9 * rng.random((40, 2))
    idx, bary = locate_many(m, pts)
    for k in range(len(pts)):
        t, b = locate(m, pts[k])
        assert t == idx[k]
        assert np.array_equal(b, bary[k])


def _scan(mesh, pts, tol=1e-10, absolute=False):
    """Every point against every triangle; -1 where none contains it.

    With ``absolute``, a triangle contains the points within ``tol`` of its
    three edge lines rather than those with barycentrics above ``-tol``.
    """
    tris = mesh.triangles
    a = mesh.nodes[tris[:, 0]]
    b = mesh.nodes[tris[:, 1]]
    c = mesh.nodes[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    ca, ba = c - a, b - a
    # lengths of the edges opposite a, b and c
    opp = [np.hypot(*(ca - ba).T), np.hypot(*ca.T), np.hypot(*ba.T)]
    idx = np.full(len(pts), -1, dtype=np.int64)
    bary = np.full((len(pts), 3), np.nan)
    for s in range(0, len(pts), 256):
        block = pts[s:s + 256]
        dx = block[:, None, 0] - a[None, :, 0]
        dy = block[:, None, 1] - a[None, :, 1]
        l1 = ((c[:, 1] - a[:, 1])[None, :] * dx - (c[:, 0] - a[:, 0])[None, :] * dy) / det[None, :]
        l2 = (-(b[:, 1] - a[:, 1])[None, :] * dx + (b[:, 0] - a[:, 0])[None, :] * dy) / det[None, :]
        l0 = 1.0 - l1 - l2
        if absolute:
            ok = ((l0 * det >= -tol * opp[0]) & (l1 * det >= -tol * opp[1])
                  & (l2 * det >= -tol * opp[2]))
        else:
            ok = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
        for r in range(len(block)):
            hits = np.flatnonzero(ok[r])
            if len(hits):
                t = hits[0]
                idx[s + r] = t
                bary[s + r] = (l0[r, t], l1[r, t], l2[r, t])
    return idx, bary


def _wall_points(mesh, offset):
    # boundary segment midpoints pushed outward (boundary runs CCW)
    p, q = mesh.nodes[mesh.bnd_edges[:, 0]], mesh.nodes[mesh.bnd_edges[:, 1]]
    d = q - p
    normal = np.stack([d[:, 1], -d[:, 0]], axis=1) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return 0.5 * (p + q) + offset * normal


def _probe_points(mesh, rng):
    nodes, tris = mesh.nodes, mesh.triangles
    w = rng.dirichlet((1.0, 1.0, 1.0), size=300)
    interior = np.einsum("pk,pkd->pd", w, nodes[tris[rng.integers(len(tris), size=300)]])
    edges = np.unique(np.sort(np.concatenate(
        [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1), axis=0)
    mids = 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])
    wall = _wall_points(mesh, 1e-12)
    return np.vstack([interior, nodes, mids, wall]), len(wall)


@pytest.mark.parametrize("make, n_missed", [
    (lambda: triangulate(unit_square(), 0.05, 0.25), 16),
    (lambda: triangulate(regular_polygon(3), 0.1, 0.5), 0),
    (lambda: triangulate(near_special_hexagon(0.05), 0.05, 0.25), 28),
    (lambda: refine(triangulate(unit_square(), 0.1, 0.25)), 0),
], ids=["square", "hexagon", "near-special", "refined-square"])
def test_locate_many_matches_full_scan(make, n_missed):
    # nodes are where vertex stars tie, edge midpoints where two triangles
    # tie; the index and the barycentrics must equal the scan's bit for bit
    m = make()
    pts, n_wall = _probe_points(m, np.random.default_rng(11))
    want_idx, want_bary = _scan(m, pts)
    found = want_idx >= 0
    assert found[:-n_wall].all()
    # the wall points inside tol carry the one-sided margin; the rest
    # sit at graded corner triangles thinner than 1e-12 / tol
    assert (~found).sum() == n_missed
    idx, bary = locate_many(m, pts)
    assert np.array_equal(idx[found], want_idx[found])
    assert np.array_equal(bary[found], want_bary[found])
    # those get the lowest-index triangle in the absolute margin instead
    near_idx, near_bary = _scan(m, pts[~found], absolute=True)
    assert (near_idx >= 0).all()
    assert np.array_equal(idx[~found], near_idx)
    assert np.array_equal(bary[~found], near_bary)
    # 1e-9 outside is beyond both margins
    for q in _wall_points(m, 1e-9)[::7]:
        with pytest.raises(OutsideDomain):
            locate(m, q)


def test_locate_many_edge_cases(square_mesh):
    idx, bary = locate_many(square_mesh, np.empty((0, 2)))
    assert idx.shape == (0,) and idx.dtype == np.int64
    assert bary.shape == (0, 3) and bary.dtype == np.float64
    for q in [(1.0 + 1e-6, 0.5), (0.5, -1e-6), (1e6, 0.0), (np.nan, 0.5),
              (0.5, np.inf), (-np.inf, 0.5)]:
        with pytest.raises(OutsideDomain):
            locate(square_mesh, q)
    # a bad point anywhere in a batch fails the whole call
    with pytest.raises(OutsideDomain, match="nan"):
        locate_many(square_mesh, np.array([[0.5, 0.5]] * 2000 + [[np.nan, 0.5]]))


def test_locate_index_survives_pickling(square_mesh):
    pts = np.array([[0.3, 0.4], [0.5, 0.5], [1.0, 0.25]])
    want = locate_many(square_mesh, pts)
    copy = pickle.loads(pickle.dumps(square_mesh))
    got = locate_many(copy, pts)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert "_point_grid" not in repr(square_mesh)


def test_locate_caches_one_grid():
    m = triangulate(unit_square(), 0.25, 1.0)
    assert "_point_grid" not in vars(m)
    pts = np.array([[0.3, 0.4], [0.5, 0.5], [1.0, 0.25]])
    locate_many(m, pts)
    grid = vars(m)["_point_grid"]
    assert isinstance(grid, meshing._PointGrid)
    locate(m, (0.7, 0.1))
    assert vars(m)["_point_grid"] is grid
    copy = pickle.loads(pickle.dumps(m))
    kept = vars(copy)["_point_grid"]
    assert all(np.array_equal(a, b) for a, b in zip(kept, grid))


def test_outside_point_named_in_plain_floats(square_mesh):
    with pytest.raises(OutsideDomain, match=r"^point \(1\.5, 0\.5\) outside the mesh$"):
        locate(square_mesh, (1.5, 0.5))


def test_locate_many_memory_stays_small():
    # the full scan held 256 x T temporaries, about 14 MB each at T = 6740;
    # the peak includes building the bucket grid on this first call
    m = triangulate(unit_square(), 0.025, 0.25)
    g = (np.arange(64) + 0.5) / 64
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        locate_many(m, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_mesh_failure_on_bad_parameters():
    with pytest.raises(MeshFailure):
        triangulate(unit_square(), 0.1, 0.0)
    with pytest.raises(MeshFailure):
        triangulate(unit_square(), -0.1, 0.5)


def test_mesh_is_immutable(square_mesh):
    with pytest.raises(Exception):
        square_mesh.nodes[0, 0] = 9.9


def test_obj_export(square_mesh, tmp_path):
    path = tmp_path / "m.obj"
    mesh_to_obj(square_mesh, path)
    text = path.read_text()
    assert text.count("v ") == len(square_mesh.nodes)
    assert text.count("f ") == len(square_mesh.triangles)
    first_face = next(l for l in text.splitlines() if l.startswith("f "))
    idx = [int(w) for w in first_face.split()[1:]]
    assert min(idx) >= 1


# sha256 of nodes.tobytes() + triangles.tobytes() (float64, int64); the
# artifacts and the exact-symmetry solver tests depend on these bytes, so
# mesher rewrites must reproduce them, not just meshes of similar quality
SQUARE_DIGEST = "fab51a44a60a2cf8945c4170edd4b1d851642bb212ea88b302bdb9ce7bb2ea68"
PINNED_MESHES = [
    (regular_polygon, 3, 0.05, 0.25, "dbef097237a641fd36578ea089959948d53c94728ff83af936a975e36dbceff6"),
    (regular_polygon, 4, 0.05, 0.25, "e637d2d4fde8912fe1ad8bfc7b115b52d205c888a6f05454f8af280b1914832a"),
    (split_rectangle, 3, 0.05, 0.25, "f79f8db028490918e4965644a2dcc4625d4654b409fe1437e2ecfcc8e6b1eca5"),
    (regular_polygon, 4, 0.1, 0.5, "5a4e37a60996d6a44596ae498fbb676262dbd3737995565d82b29a8da923cbc0"),
    # the hexagon_collapse members, whose sweeps have no cocircular ties
    (near_special_hexagon, 0.4, 0.05, 0.25, "ca899deacccda04eb2226dcd86f82e3c9e98e20dd3c16e679c4a1c85daf26f28"),
    (near_special_hexagon, 0.2, 0.05, 0.25, "0e88ef8712b5daec675516d3384971ba7fdef9e40560c5a757db628622dfa5b6"),
    (near_special_hexagon, 0.1, 0.05, 0.25, "14fd79d574b72e141aba3cca8ee95b0301d777741f1fac115de8ee66276f6b37"),
    (near_special_hexagon, 0.05, 0.05, 0.25, "0830e980a4214fb5bc6387e97ee0384b6b97236dcf363826cf603f4e92e23e7a"),
]


def _mesh_digest(m):
    assert m.nodes.dtype == np.float64 and m.triangles.dtype == np.int64
    return hashlib.sha256(m.nodes.tobytes() + m.triangles.tobytes()).hexdigest()


def test_pinned_square_mesh_bytes(square_fine_mesh):
    assert _mesh_digest(square_fine_mesh) == SQUARE_DIGEST


@pytest.mark.parametrize("make, n, h, g, digest", PINNED_MESHES,
                         ids=["hexagon", "octagon", "split3", "octagon-coarse",
                              "near-special-0.4", "near-special-0.2",
                              "near-special-0.1", "near-special-0.05"])
def test_pinned_mesh_bytes(make, n, h, g, digest):
    assert _mesh_digest(triangulate(make(n), h, g)) == digest


# ---------------------------------------------------------------------------
# Delaunay by flips between sweeps

class _QhullCount:
    """Counts the from-scratch builds behind ``_retriangulate``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.real = meshing._delaunay_triangles
        monkeypatch.setattr(meshing, "_delaunay_triangles", self)

    def __call__(self, nodes):
        self.calls += 1
        return self.real(nodes)


@pytest.mark.parametrize("make, n, h, g, max_qhull", [
    (regular_polygon, 3, 0.05, 0.25, 25),
    (split_rectangle, 3, 0.05, 0.25, 3),
    (regular_polygon, 4, 0.1, 0.5, 3),
    (near_special_hexagon, 0.05, 0.05, 0.25, 3),
], ids=["hexagon", "split3", "octagon-coarse", "near-special-0.05"])
def test_flips_equal_qhull_every_sweep(make, n, h, g, max_qhull, monkeypatch):
    # the hexagon has exact symmetric ties on every sweep and stays with
    # Qhull; on the others the flips decide all but the first sweep
    qhull = _QhullCount(monkeypatch)
    real = meshing._retriangulate
    sweeps = []

    def checked(nodes, tris, ties):
        got = real(nodes, tris, ties)
        assert np.array_equal(got[0], qhull.real(nodes))
        sweeps.append(len(got[1]))
        return got

    monkeypatch.setattr(meshing, "_retriangulate", checked)
    triangulate(make(n), h, g)
    assert len(sweeps) == meshing.SMOOTH_SWEEPS + 1
    assert 1 <= qhull.calls <= max_qhull


def _no_check_pass(tris):
    raise AssertionError("the flip path ran")


def test_cocircular_quad_takes_tie_path(monkeypatch):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    qhull = _QhullCount(monkeypatch)
    got, ties = meshing._retriangulate(square, tris, meshing._NO_TIES)
    assert qhull.calls == 1
    assert np.array_equal(got, qhull.real(square))
    assert sorted(ties[0].tolist()) == [0, 1, 2, 3]
    # while the quad stays tied, the next sweep goes straight to Qhull
    monkeypatch.setattr(meshing, "_interior_edges", _no_check_pass)
    again, still = meshing._retriangulate(square, got, ties)
    assert qhull.calls == 2
    assert np.array_equal(again, got) and np.array_equal(still, ties)
    # once it is not, flips decide it: (1.2, 1) lies outside the circle
    # through the other three, so the diagonal 1-3 is Delaunay
    monkeypatch.undo()
    qhull = _QhullCount(monkeypatch)
    kite = square.copy()
    kite[2] = (1.2, 1.0)
    flipped, none = meshing._retriangulate(kite, tris, ties)
    assert qhull.calls == 0 and len(none) == 0
    assert np.array_equal(flipped, [[0, 1, 3], [1, 2, 3]])
    assert np.array_equal(flipped, qhull.real(kite))


def test_inverted_triangle_goes_to_qhull(monkeypatch):
    m = triangulate(unit_square(), 0.25, 1.0)
    nodes = m.nodes.copy()
    i = m.n_boundary
    t = m.triangles[np.flatnonzero((m.triangles == i).any(axis=1))[0]]
    j, k = (v for v in t if v != i)
    # across the opposite edge, triangle (i, j, k) turns inside out
    nodes[i] = nodes[j] + nodes[k] - nodes[i]
    assert (meshing._area2(nodes, m.triangles) < 0).any()
    qhull = _QhullCount(monkeypatch)
    monkeypatch.setattr(meshing, "_interior_edges", _no_check_pass)
    got, ties = meshing._retriangulate(nodes, np.array(m.triangles), meshing._NO_TIES)
    assert qhull.calls == 1 and len(ties) == 0
    assert np.array_equal(got, qhull.real(nodes))


def test_incircle_sign_and_permanent():
    # d inside, on and outside the unit circle through a, b, c (CCW)
    a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
    nodes = np.array([a, b, c, (0.0, 0.5), (0.0, -1.0), (0.0, -2.0)])
    quads = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    det, perm = meshing._incircle(nodes, quads)
    assert det[0] > 0 and det[1] == 0 and det[2] < 0
    assert (perm >= np.abs(det)).all()


# ---------------------------------------------------------------------------
# Tables derived once per mesh

def _side_pairs(tri):
    return ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))


@pytest.mark.parametrize("make", [
    lambda: triangulate(unit_square(), 0.05, 0.25),
    lambda: triangulate(regular_polygon(3), 0.1, 0.5),
    lambda: triangulate(near_special_hexagon(0.05), 0.05, 0.25),
], ids=["square", "hexagon", "near-special"])
def test_edge_tables_match_loop_reference(make):
    m = make()
    edges, _ = m._edge_owner
    row = {(a, b): k for k, (a, b) in enumerate(edges.tolist())}
    want = [[row[min(a, b), max(a, b)] for a, b in _side_pairs(tri)]
            for tri in m.triangles.tolist()]
    assert m._sides.tolist() == want
    assert not m._sides.flags.writeable
    # either orientation finds the edge; pairs that no triangle joins give -1
    pairs = np.random.default_rng(2).integers(len(m.nodes), size=(500, 2))
    pairs = np.vstack([edges[::-1], edges[:, ::-1], pairs])
    want = [row.get((min(a, b), max(a, b)), -1) for a, b in pairs.tolist()]
    assert m._edge_index(pairs).tolist() == want
    assert min(want) == -1
    copy = pickle.loads(pickle.dumps(m))
    assert "_sides" in vars(copy)
    assert np.array_equal(copy._sides, m._sides)
    assert np.array_equal(copy._edge_index(pairs), want)


def _refine_by_dict(mesh):
    """Refinement through a dict of edges, one triangle at a time: the
    construction ``refine`` replaced, kept as its reference."""
    nodes = np.asarray(mesh.nodes)
    edges = {}
    for tri in mesh.triangles.tolist():
        for a, b in _side_pairs(tri):
            edges.setdefault((min(a, b), max(a, b)), None)
    edge_list = sorted(edges)
    for k, e in enumerate(edge_list):
        edges[e] = len(nodes) + k
    mid = np.array([(nodes[a] + nodes[b]) * 0.5 for a, b in edge_list])
    out = []
    for a, b, c in mesh.triangles.tolist():
        mab = edges[min(a, b), max(a, b)]
        mbc = edges[min(b, c), max(b, c)]
        mca = edges[min(c, a), max(c, a)]
        out.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
    pairs = []
    for a, b in mesh.bnd_edges.tolist():
        m = edges[min(a, b), max(a, b)]
        pairs.extend([(a, m), (m, b)])
    return (np.vstack([nodes, mid]), meshing._canonical(np.asarray(out, dtype=np.int64)),
            np.asarray(pairs, dtype=np.int64), np.repeat(mesh.bnd_edge_id, 2),
            np.repeat(mesh.bnd_marking, 2))


@pytest.mark.parametrize("make", [
    lambda: triangulate(unit_square(), 0.25, 1.0),
    lambda: triangulate(regular_polygon(3), 0.1, 0.5),
    lambda: triangulate(near_special_hexagon(0.05), 0.05, 0.25),
    lambda: refine(triangulate(unit_square(), 0.1, 0.25)),
], ids=["square", "hexagon", "near-special", "refined-square"])
def test_refine_equals_dict_reference(make):
    m = make()
    r = refine(m)
    got = (r.nodes, r.triangles, r.bnd_edges, r.bnd_edge_id, r.bnd_marking)
    for a, b in zip(got, _refine_by_dict(m)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(r.vertex_nodes, m.vertex_nodes)


@pytest.mark.parametrize("make, h, g", [
    (unit_square, 0.1, 0.25), (lambda: regular_polygon(4), 0.1, 0.5),
], ids=["square", "octagon"])
def test_symmetry_found_once_per_triangulate(make, h, g, monkeypatch):
    calls = []
    real = meshing._symmetry

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(meshing, "_symmetry", counting)
    triangulate(make(), h, g)
    assert len(calls) == 1
    # the retry smooths again with the same frame and group
    monkeypatch.setattr(meshing, "MIN_ANGLE_DEG", 89.0)
    with pytest.raises(MeshFailure, match="min angle"):
        triangulate(make(), h, g)
    assert len(calls) == 2

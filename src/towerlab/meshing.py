"""Graded triangulations of marked polygons.

Boundary nodes come from an equal-partition of the 1D sizing integral along
each unit edge, interior nodes from a stack of hexagonal lattices whose
spacings halve until they resolve the local target length

    l(x) = h * max(g, min(1, d(x) / 0.3))

with d the distance to the nearest polygon vertex.  A fixed number of
Laplacian and ODT smoothing sweeps relaxes the lattice seams.  Each sweep
runs on the Delaunay triangulation of the nodes it starts from: Qhull
builds it on the first sweep, and later sweeps repair the previous one by
edge flips, handing back to Qhull wherever four nodes are cocircular to
rounding.  Everything is deterministic in (polygon, h, g): no randomness,
node order is boundary-first in arc order, then interior sorted by (y, x).

Meshes refuse to exist below 20 degrees of minimum angle; refinement splits
1 -> 4 by edge midpoints and keeps parent nodes as a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.spatial import Delaunay, cKDTree

from .formats import write_obj
from .polygon import MarkedPolygon, _lock, boundary_distance_many, contains_many
from .polygon import area as polygon_area

VERTEX_RADIUS = 0.3
MIN_ANGLE_DEG = 20.0
SMOOTH_SWEEPS = 24
BOUNDARY_MARGIN = 0.5
# triangles with twice the area at most this are degenerate slivers
SLIVER_AREA2 = 1e-14
# an edge is tied when its incircle determinant is at most this times the
# determinant's permanent; rounding alone moves it by about 1.1e-15 times
TIE_RTOL = 1e-10
# a safety net: the shipped meshes settle in at most two rounds of flips
MAX_FLIP_ROUNDS = 100
# locate_many's margin outside a triangle
LOCATE_TOL = 1e-10


class MeshFailure(RuntimeError):
    pass


class OutsideDomain(ValueError):
    pass


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of a marked polygon.

    ``bnd_edges[k]`` is a consecutive pair of boundary node indices lying on
    polygon edge ``bnd_edge_id[k]`` which carries marking ``bnd_marking[k]``.
    ``bnd_edges[i]`` is the i-th boundary segment (start, end) in arc order
    from polygon vertex 0, so ``bnd_edges[:, 0]`` lists the boundary nodes
    in arc order; ``vertex_nodes[i]`` is the node at polygon vertex i.
    ``triangulate`` numbers boundary nodes 0..n_boundary-1, but ``refine``
    appends its boundary midpoints, so index position is not a reliable
    boundary test; use ``boundary_nodes`` or ``interior_mask``.
    """

    polygon: MarkedPolygon
    h: float
    g: float
    nodes: np.ndarray
    triangles: np.ndarray
    bnd_edges: np.ndarray
    bnd_edge_id: np.ndarray
    bnd_marking: np.ndarray
    vertex_nodes: np.ndarray

    @property
    def n_boundary(self):
        return len(self.bnd_edges)

    def boundary_nodes(self):
        return self.bnd_edges[:, 0]

    def interior_mask(self):
        mask = np.ones(len(self.nodes), dtype=bool)
        mask[self.bnd_edges[:, 0]] = False
        return mask

    def triangle_areas(self):
        return self._geometry[0]

    def min_angle(self):
        return float(np.min(_angles(self.nodes, self.triangles)))

    # Derived from the nodes and triangles on first use and cached.  A
    # cached_property is not a field, so it stays out of __eq__ and
    # __repr__, and it pickles with the mesh.

    @cached_property
    def _point_grid(self):
        # locate_many's bucket grid
        return _build_point_grid(self)

    @cached_property
    def _edge_owner(self):
        """Unique undirected edges with the lowest-index triangle on each.

        Edges come out sorted by endpoint pair, so callers can binary-search
        them; the owner convention fixes which side's form an edge integral
        uses.
        """
        tris = self.triangles
        e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        e = np.sort(e, axis=1)
        tid = np.tile(np.arange(len(tris)), 3)
        order = np.lexsort((tid, e[:, 1], e[:, 0]))
        e, tid = e[order], tid[order]
        first = np.ones(len(e), dtype=bool)
        first[1:] = (np.diff(e[:, 0]) != 0) | (np.diff(e[:, 1]) != 0)
        return _lock(e[first]), _lock(tid[first])

    def _edge_index(self, pairs):
        """Rows of ``_edge_owner`` holding the undirected edges ``pairs``
        (k x 2 node indices, either way round); -1 where no triangle has
        the edge."""
        edges, _ = self._edge_owner
        n = len(self.nodes)
        key = edges[:, 0] * n + edges[:, 1]
        want = pairs.min(axis=1) * n + pairs.max(axis=1)
        pos = np.minimum(np.searchsorted(key, want), len(key) - 1)
        return np.where(key[pos] == want, pos, -1)

    @cached_property
    def _sides(self):
        # edge index of side k, from corner k to corner k + 1, per triangle
        tris = self.triangles
        sides = np.stack([tris, tris[:, [1, 2, 0]]], axis=2).reshape(-1, 2)
        return _lock(self._edge_index(sides).reshape(-1, 3))

    @cached_property
    def _geometry(self):
        """Per-triangle areas, shape-function gradients and their dot
        products ``grad phi_k . grad phi_l``, which enter every Newton
        Hessian and the harmonic start."""
        tris = self.triangles
        a, b, c = (self.nodes[tris[:, k]] for k in range(3))
        det = _area2(self.nodes, tris)
        # grad phi_v = rot90(opposite edge) / (2 area), rot90(x, y) = (-y, x)
        gp = np.empty((len(tris), 3, 2))
        for k, (p, q) in enumerate(((b, c), (c, a), (a, b))):
            e = q - p
            gp[:, k, 0] = -e[:, 1]
            gp[:, k, 1] = e[:, 0]
        gp /= det[:, None, None]
        return _lock(0.5 * det), _lock(gp), _lock(np.einsum("tkd,tld->tkl", gp, gp))

    @cached_property
    def _free_assembly(self):
        # the Newton Hessian's scatter onto the interior nodes
        return _build_free_assembly(self)


class _FreeAssembly(NamedTuple):
    """Assembly of per-triangle 3 x 3 blocks into the free-node matrix.

    Block entry (t, k, l), flat index 9 t + 3 k + l, belongs at row
    ``triangles[t, k]`` and column ``triangles[t, l]``; the free-node
    matrix keeps the interior rows and columns.  Stored entry j is the
    sum of the flat entries ``head[0, j]`` and ``head[1, j]`` and, when
    j = ``long[i]`` has more than two, of ``tail[:, i]``, in the order in
    which scipy's COO -> CSR conversion sums them.  An off-diagonal entry
    sums the two triangles on its edge, a diagonal one the node's star.
    Shorter lists are padded with the index 9T, which ``matrix`` reads as
    -0.0; since x + -0.0 == x for every x, the sums are bit for bit
    scipy's.  ``diag`` holds the positions of the diagonal entries.
    """
    head: np.ndarray
    long: np.ndarray
    tail: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray

    def matrix(self, block):
        """The free-node CSR matrix of ``block`` (shape (T, 3, 3)) and its
        diagonal, equal to ``coo_matrix(...).tocsr()[free][:, free]`` in
        data, indices and indptr."""
        flat = np.append(block.ravel(), -0.0)
        data = flat.take(self.head[0]) + flat.take(self.head[1])
        for row in flat.take(self.tail):
            data[self.long] += row
        n = len(self.indptr) - 1
        return (sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n)),
                data[self.diag])


def _build_free_assembly(mesh):
    tris = mesh.triangles
    n = len(mesh.nodes)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    # COO -> CSR places each row's entries in input order; sorting the
    # columns within a row then compares column keys only, so passing
    # entry numbers through scipy's own sort reads off the permutation it
    # applies to any values on this pattern
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    csr = sparse.csr_matrix((order.astype(float), cols[order], indptr), shape=(n, n))
    csr.sort_indices()
    entry = csr.data.astype(np.intp)
    row = rows[entry]
    col = csr.indices
    # runs of equal (row, col) are the duplicates that scipy sums left to right
    start = np.ones(len(entry), dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    run = np.cumsum(start) - 1
    first = np.flatnonzero(start)
    pos = np.arange(len(entry)) - first[run]
    free = mesh.interior_mask()
    keep = free[row[first]] & free[col[first]]
    gather = np.full((max(pos.max() + 1, 3), len(first)), len(entry), dtype=np.intp)
    gather[pos, run] = entry
    gather = gather[:, keep]
    long = np.flatnonzero(gather[2] != len(entry))
    renum = np.cumsum(free) - 1
    frow = renum[row[first][keep]]
    fcol = renum[col[first][keep]]
    nf = int(free.sum())
    findptr = np.zeros(nf + 1, dtype=np.int32)
    np.cumsum(np.bincount(frow, minlength=nf), out=findptr[1:])
    # int32 halves what every mesh keeps, and take() indexes with it at
    # full speed
    return _FreeAssembly(*(_lock(a.astype(np.int32)) for a in (
        gather[:2], long, gather[2:, long], fcol, findptr, np.flatnonzero(frow == fcol))))


def sizing(p, pts, h, g):
    """Local target edge length at each point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.min(np.linalg.norm(pts[:, None, :] - p.vertices[None, :, :], axis=2), axis=1)
    return h * np.maximum(g, np.minimum(1.0, d / VERTEX_RADIUS))


def _angles(nodes, tris):
    """All triangle corner angles in degrees, shape (T, 3)."""
    P = nodes[tris]
    out = np.empty((len(tris), 3))
    for k in range(3):
        u = P[:, (k + 1) % 3] - P[:, k]
        v = P[:, (k + 2) % 3] - P[:, k]
        num = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        den = (u * v).sum(axis=1)
        out[:, k] = np.degrees(np.abs(np.arctan2(num, den)))
    return out


def _boundary_nodes(p, h, g):
    """Per-edge graded subdivision; returns node list and per-edge counts."""
    nodes = []
    counts = []
    t = np.linspace(0.0, 1.0, 513)
    for i in range(p.edge_count):
        a, b = p.edge(i)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        ell = sizing(p, pts, h, g)
        dens = 1.0 / ell
        F = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * (t[1] - t[0]))])
        n_seg = max(1, int(math.ceil(F[-1] - 1e-9)))
        targets = F[-1] * np.arange(1, n_seg) / n_seg
        ts = np.interp(targets, F, t)
        nodes.append(a)
        for tk in ts:
            nodes.append(a + tk * (b - a))
        counts.append(n_seg)
    return np.asarray(nodes), np.asarray(counts, dtype=int)


def _symmetry(p):
    """Lattice frame adapted to a marking-swap isometry of the polygon, and
    the isometries that also preserve a hex lattice in that frame.

    The capped solves carry a nearly free additive mode (walls detach the
    interior level from the Dirichlet data), so the discrete minimizer's
    level is pinned only when the mesh shares a symmetry that negates the
    boundary data.  A mirror axis through a vertex and the centroid always
    swaps alternating markings; lattice rows along it (or any lattice
    centered at the centroid, for central symmetry) inherit the pinning.

    Hex-lattice point groups allow rotations by multiples of 60 degrees
    about a lattice point and reflections about axes at 30-degree steps
    from the row direction, so only those candidates are tested against
    the vertex set; the group always contains the identity.
    Returns (origin, row direction, group).
    """
    verts = p.vertices
    m = len(verts)
    origin = verts.mean(axis=0)
    for k in range(m):
        d = verts[k] - origin
        norm = math.hypot(*d)
        if norm < 1e-12:
            continue
        d = d / norm
        # reflection about the line through the centroid with direction d
        rel = verts - origin
        along = rel @ d
        perp = rel @ np.array([-d[1], d[0]])
        mirrored = origin + along[:, None] * d + (-perp)[:, None] * np.array([-d[1], d[0]])
        want = verts[(2 * k - np.arange(m)) % m]
        if np.abs(mirrored - want).max() < 1e-9:
            break
    else:
        d = np.array([1.0, 0.0])
    vtree = cKDTree(verts)
    base = math.atan2(d[1], d[0])
    mats = []
    for k in range(6):
        t = k * math.pi / 3.0
        c, s = math.cos(t), math.sin(t)
        mats.append(np.array([[c, -s], [s, c]]))
    for k in range(6):
        t = 2.0 * (base + k * math.pi / 6.0)
        c, s = math.cos(t), math.sin(t)
        mats.append(np.array([[c, s], [s, -c]]))
    keep = []
    for R in mats:
        img = origin + (verts - origin) @ R.T
        dd, _ = vtree.query(img)
        if dd.max() < 1e-9:
            keep.append(R)
    return origin, d, keep


class _SnapSet:
    """Proximity membership on a coarse grid; catches float twins."""

    def __init__(self, tol=1e-7):
        self.tol = tol
        self.cells = {}

    def _key(self, q):
        return (int(round(q[0] * 1e6)), int(round(q[1] * 1e6)))

    def near(self, q):
        kx, ky = self._key(q)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for r in self.cells.get((kx + dx, ky + dy), ()):
                    if abs(r[0] - q[0]) < self.tol and abs(r[1] - q[1]) < self.tol:
                        return True
        return False

    def add(self, q):
        self.cells.setdefault(self._key(q), []).append((q[0], q[1]))


def _interior_nodes(p, h, g, bnd, sym):
    """Stacked hex lattices filtered by sizing band and boundary margin.

    Lattices live in the symmetry frame ``sym`` from ``_symmetry``.  Each level builds its candidates
    rows outer, columns inner, and runs the filters (inside, boundary
    margin, clearance from the nodes of coarser levels) on the whole level
    at once.  Decisions are made once per symmetry orbit: an orbit enters
    when its first member in candidate order passes the filters, and the
    whole orbit enters or stays out together.  Without
    this the graded multi-level stacks lose the polygon's symmetry to
    1e-16 threshold noise, which un-pins the additive mode of the capped
    solves (see jssolver).
    """
    levels = max(0, int(math.ceil(math.log2(1.0 / g) - 1e-12)))
    origin, d, group = sym
    nvec = np.array([-d[1], d[0]])
    radius = float(np.max(np.linalg.norm(p.vertices - origin, axis=1)))
    accepted = []
    seen = _SnapSet()
    tree = cKDTree(bnd)
    for lev in range(levels + 1):
        s = h * 0.5 ** lev
        dy = s * math.sqrt(3.0) / 2.0
        n_rows = int(radius / dy) + 2
        n_cols = int(radius / s) + 2
        # rows j outer, columns i inner, as the accept order depends on it
        jj, ii = np.meshgrid(np.arange(-n_rows, n_rows + 1),
                             np.arange(-n_cols - 1, n_cols + 1), indexing="ij")
        off = np.where(jj % 2 == 1, 0.5 * s, 0.0)
        cand = (origin + (ii * s + off).reshape(-1, 1) * d
                + (jj * dy).reshape(-1, 1) * nvec)
        ell = sizing(p, cand, h, g)
        band = (s <= 1.42 * ell) & (s > 0.71 * ell)
        cand = cand[band]
        ell = ell[band]
        # the tree changes only between levels, so the filters see the
        # same state whether run per point or on the whole level
        ok = (contains_many(p, cand, tol=-1e-12)
              & (boundary_distance_many(p, cand) >= BOUNDARY_MARGIN * ell)
              & (tree.query(cand)[0] >= 0.55 * ell))
        new = []
        for q in cand[ok]:
            if seen.near(q):
                continue
            for R in group:
                im = origin + R @ (q - origin)
                if seen.near(im):
                    continue
                seen.add(im)
                new.append(im)
        if new:
            accepted.extend(new)
            tree = cKDTree(np.vstack([bnd, np.asarray(accepted)]))
    if not accepted:
        return np.empty((0, 2))
    pts = np.asarray(accepted)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    return pts[order]


def _canonical(simplices):
    # each triangle rolled to start at its lowest node, then rows sorted,
    # so equal triangle sets give equal bytes however they were built
    roll = np.argmin(simplices, axis=1)
    rolled = np.stack([simplices[np.arange(len(simplices)), (roll + k) % 3]
                       for k in range(3)], axis=1)
    order = np.lexsort((rolled[:, 2], rolled[:, 1], rolled[:, 0]))
    return rolled[order]


def _area2(nodes, tris):
    a, b, c = (nodes[tris[:, k]] for k in range(3))
    return ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _delaunay_triangles(nodes):
    simplices = np.array(Delaunay(nodes).simplices, dtype=np.int64)
    area2 = _area2(nodes, simplices)
    flip = area2 < 0
    simplices[flip] = simplices[flip][:, ::-1]
    # drop exactly degenerate slivers from collinear boundary runs
    return _canonical(simplices[np.abs(area2) > SLIVER_AREA2])


def _interior_edges(tris):
    """Edges shared by two triangles, as half-edge indices and quads.

    Half-edge 3 t + k runs from ``tris[t, k]`` to ``tris[t, k + 1]``.  For
    each interior edge, ``h1`` is the half-edge a -> b of one triangle and
    ``h2`` the half-edge b -> a of the other; the quad is (a, b, c, d) with
    c opposite the edge in ``h1``'s triangle and d in ``h2``'s.
    """
    a = tris.ravel()
    b = tris[:, [1, 2, 0]].ravel()
    opp = tris[:, [2, 0, 1]].ravel()
    key = np.minimum(a, b) * (int(a.max()) + 1) + np.maximum(a, b)
    order = np.argsort(key)
    pair = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    h1, h2 = order[pair], order[pair + 1]
    return h1, h2, np.stack([a[h1], b[h1], opp[h1], opp[h2]], axis=1)


def _incircle(nodes, quads):
    """Shewchuk's incircle determinant of each quad (a, b, c, d), positive
    when d lies inside the circle through the counterclockwise a, b, c,
    and its permanent, which bounds the determinant's rounding error."""
    x, y = nodes[:, 0], nodes[:, 1]
    i, j, k, m = quads.T
    adx, ady = x[i] - x[m], y[i] - y[m]
    bdx, bdy = x[j] - x[m], y[j] - y[m]
    cdx, cdy = x[k] - x[m], y[k] - y[m]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    perm = (alift * (np.abs(bc) + np.abs(cb)) + blift * (np.abs(ca) + np.abs(ac))
            + clift * (np.abs(ab) + np.abs(ba)))
    return det, perm


def _tied(nodes, quads):
    det, perm = _incircle(nodes, quads)
    return np.abs(det) <= TIE_RTOL * perm


_NO_TIES = np.empty((0, 4), dtype=np.int64)


def _retriangulate(nodes, tris, ties):
    """Delaunay triangles of ``nodes``, updated from the previous ones.

    Lawson flips repair ``tris``, the previous sweep's triangles, until no
    interior edge is clearly non-Delaunay.  An edge is decided when its
    incircle determinant clears ``TIE_RTOL`` times its permanent, far
    above the determinant's rounding error (Shewchuk 1997).  Off ties the
    Delaunay triangulation is unique, so the result then equals Qhull's
    and, once canonical, its bytes.  Qhull builds from scratch when there
    are no previous triangles, when one of them no longer has positive
    area, when the flips do not settle in ``MAX_FLIP_ROUNDS`` rounds, and
    when some edge is tied; it then decides the tie as it always has.
    ``ties`` are the tied quads of the last such fallback: while any is
    still tied, Qhull runs at once, so meshes with exact symmetric ties
    skip a check pass that would end in Qhull anyway.

    Returns the canonical triangles and the tie quads to pass on.
    """
    if tris is None or _tied(nodes, ties).any():
        return _delaunay_triangles(nodes), ties
    tris = tris.copy()
    for _ in range(MAX_FLIP_ROUNDS):
        if (_area2(nodes, tris) <= SLIVER_AREA2).any():
            break
        h1, h2, quads = _interior_edges(tris)
        det, perm = _incircle(nodes, quads)
        tied = np.abs(det) <= TIE_RTOL * perm
        if tied.any():
            return _delaunay_triangles(nodes), quads[tied]
        bad = np.flatnonzero(det > 0)
        if len(bad) == 0:
            return _canonical(tris), _NO_TIES
        # flip the bad edges that claim both their triangles first, an
        # independent set that always holds the lowest bad edge
        t1, t2 = h1[bad] // 3, h2[bad] // 3
        rank = np.arange(len(bad))
        claim = np.full(len(tris), len(bad))
        np.minimum.at(claim, t1, rank)
        np.minimum.at(claim, t2, rank)
        free = (claim[t1] == rank) & (claim[t2] == rank)
        a, b, c, d = quads[bad[free]].T
        tris[t1[free]] = np.stack([c, a, d], axis=1)
        tris[t2[free]] = np.stack([d, b, c], axis=1)
    return _delaunay_triangles(nodes), _NO_TIES


def _node_orbits(nodes, sym):
    """Pair every node with its image under each isometry of the layout.

    The pairing is computed once from the raw node set, which the lattice
    generator makes exactly symmetric.  Smoothing moves nodes but never
    reorders them, so the index maps stay valid for the whole pipeline.
    """
    origin, _, group = sym
    if len(group) <= 1:
        return origin, []
    tree = cKDTree(nodes)
    maps = []
    for R in group:
        img = origin + (nodes - origin) @ R.T
        dd, idx = tree.query(img)
        if dd.max() > 1e-6 or len(np.unique(idx)) != len(nodes):
            continue
        maps.append((R, idx))
    return origin, maps


def _symmetrize(pts, n_bnd, origin, maps):
    # average each node over its isometry orbit; Delaunay tie-breaks in
    # near-cocircular spots otherwise let mirror twins drift apart over
    # the sweeps, and the solver is sensitive to that at the walls
    if not maps:
        return pts
    acc = np.zeros_like(pts)
    for R, idx in maps:
        acc += (pts[idx] - origin) @ R
    out = origin + acc / len(maps)
    out[:n_bnd] = pts[:n_bnd]
    return out


def _laplacian_step(pts, tris, n_bnd):
    neigh_sum = np.zeros_like(pts)
    neigh_cnt = np.zeros(len(pts))
    for k in range(3):
        i = tris[:, k]
        for m in (1, 2):
            j = tris[:, (k + m) % 3]
            np.add.at(neigh_sum, i, pts[j])
            np.add.at(neigh_cnt, i, 1.0)
    target = neigh_sum / np.maximum(neigh_cnt, 1.0)[:, None]
    move = target - pts
    move[:n_bnd] = 0.0
    return pts + 0.7 * move


def _odt_step(p, pts, tris, n_bnd):
    # move interior nodes to the area-weighted average of incident
    # circumcenters; equalizes shapes where plain averaging stalls
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    d = 2.0 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
               - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0]))
    a2 = (a * a).sum(1) - (c * c).sum(1)
    b2 = (b * b).sum(1) - (c * c).sum(1)
    cc = np.stack([((b[:, 1] - c[:, 1]) * a2 - (a[:, 1] - c[:, 1]) * b2) / d,
                   (-(b[:, 0] - c[:, 0]) * a2 + (a[:, 0] - c[:, 0]) * b2) / d],
                  axis=1)
    area = np.abs(d) / 4.0
    acc = np.zeros_like(pts)
    w = np.zeros(len(pts))
    for k in range(3):
        np.add.at(acc, tris[:, k], area[:, None] * cc)
        np.add.at(w, tris[:, k], area)
    target = acc / np.maximum(w, 1e-30)[:, None]
    moved = pts.copy()
    moved[n_bnd:] = target[n_bnd:]
    outside = ~contains_many(p, moved[n_bnd:], tol=-1e-12)
    moved[n_bnd:][outside] = pts[n_bnd:][outside]
    return moved


def _smooth(p, nodes, n_bnd, sweeps, sym):
    """Laplacian sweeps, then ODT sweeps, each on the Delaunay triangles of
    the nodes it starts from; returns the nodes and their triangles.
    Nodes are averaged over their orbits under the isometries in ``sym``.

    The triangles and the tie quads pass from sweep to sweep, so that
    ``_retriangulate`` repairs the last triangulation rather than
    rebuilding it.
    """
    origin, maps = _node_orbits(nodes, sym)
    n_lap = max(1, sweeps // 2 - 2)
    pts = nodes.copy()
    tris, ties = None, _NO_TIES
    for k in range(sweeps):
        tris, ties = _retriangulate(pts, tris, ties)
        if k < n_lap:
            moved = _laplacian_step(pts, tris, n_bnd)
        else:
            moved = _odt_step(p, pts, tris, n_bnd)
        pts = _symmetrize(moved, n_bnd, origin, maps)
    return pts, _retriangulate(pts, tris, ties)[0]


def triangulate(p, h, g=1.0):
    """Build a graded quality triangulation.

    Deterministic in (p, h, g).  The smoothing sweeps and the final build
    take their Delaunay triangles from ``_retriangulate``: flips from the
    previous sweep's triangles, and Qhull on the first sweep, on inverted
    triangles and on ties.  Off ties the two agree byte for byte, so the
    mesh is the one Qhull alone would give.  Raises MeshFailure when the
    20 degree angle bound cannot be met.
    """
    if not 0 < g <= 1:
        raise MeshFailure(f"grading factor {g} outside (0, 1]")
    if h <= 0 or h > 1:
        raise MeshFailure(f"target length {h} outside (0, 1]")
    bnd, counts = _boundary_nodes(p, h, g)
    sym = _symmetry(p)
    interior = _interior_nodes(p, h, g, bnd, sym)
    nodes = np.vstack([bnd, interior]) if len(interior) else bnd.copy()
    n_bnd = len(bnd)
    nodes, tris = _smooth(p, nodes, n_bnd, SMOOTH_SWEEPS, sym)

    mesh = _assemble(p, h, g, nodes, tris, counts)
    worst = mesh.min_angle()
    if worst < MIN_ANGLE_DEG:
        # a few extra relaxation rounds, then give up honestly
        nodes, tris = _smooth(p, nodes, n_bnd, SMOOTH_SWEEPS, sym)
        mesh = _assemble(p, h, g, nodes, tris, counts)
        worst = mesh.min_angle()
        if worst < MIN_ANGLE_DEG:
            raise MeshFailure(f"min angle {worst:.2f} deg below {MIN_ANGLE_DEG}")
    return mesh


def _assemble(p, h, g, nodes, tris, counts):
    n_bnd = int(counts.sum())
    m = len(counts)
    pairs = np.stack([np.arange(n_bnd), (np.arange(n_bnd) + 1) % n_bnd], axis=1)
    edge_id = np.repeat(np.arange(m), counts)
    marking = p.markings[edge_id]
    vertex_nodes = np.concatenate([[0], np.cumsum(counts)[:-1]])

    # validation: every node used, boundary segments conforming, area match
    used = np.zeros(len(nodes), dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        raise MeshFailure("triangulation dropped nodes")
    mesh = TriMesh(polygon=p, h=float(h), g=float(g),
                   nodes=_lock(nodes), triangles=_lock(tris),
                   bnd_edges=_lock(pairs), bnd_edge_id=_lock(edge_id),
                   bnd_marking=_lock(marking), vertex_nodes=_lock(vertex_nodes))
    missing = np.flatnonzero(mesh._edge_index(pairs) < 0)
    if len(missing):
        a, b = pairs[missing[0]]
        raise MeshFailure(f"boundary segment {a}-{b} not conforming")
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        raise MeshFailure("nonpositive triangle area")
    if abs(float(areas.sum()) - polygon_area(p)) > 1e-9:
        raise MeshFailure("triangle areas do not cover the polygon")
    bdist = boundary_distance_many(p, nodes[:n_bnd])
    if bdist.max() > 1e-9:
        raise MeshFailure("boundary node off the polygon boundary")
    return mesh


def refine(mesh):
    """Split every triangle 1 -> 4 by edge midpoints.

    Parent nodes keep their indices (prefix property); midpoint nodes are
    appended in sorted parent-edge order.  Angles are unchanged, h halves.
    """
    edges, _ = mesh._edge_owner
    base = len(mesh.nodes)
    midpoints = (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]]) * 0.5
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (base + mesh._sides).T
    children = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1)
    new_tris = _canonical(children.reshape(-1, 3))

    head, tail = mesh.bnd_edges.T
    mid = base + mesh._edge_index(mesh.bnd_edges)
    return TriMesh(polygon=mesh.polygon, h=mesh.h / 2.0, g=mesh.g,
                   nodes=_lock(np.vstack([mesh.nodes, midpoints])),
                   triangles=_lock(new_tris),
                   bnd_edges=_lock(np.stack([head, mid, mid, tail], axis=1).reshape(-1, 2)),
                   bnd_edge_id=_lock(np.repeat(mesh.bnd_edge_id, 2)),
                   bnd_marking=_lock(np.repeat(mesh.bnd_marking, 2)),
                   vertex_nodes=mesh.vertex_nodes)


def locate(mesh, q):
    """Containing triangle and barycentric coordinates of a point.

    Ties on shared edges go to the lowest triangle index.  Raises
    OutsideDomain for points beyond all triangles.
    """
    idx, bary = locate_many(mesh, np.asarray(q, dtype=float)[None, :])
    return int(idx[0]), bary[0]


class _PointGrid(NamedTuple):
    """Uniform bucket grid over the padded triangle boxes of one mesh.

    Cell (ix, iy) holds ``tri[indptr[k]:indptr[k + 1]]``, k = iy * nx + ix,
    in increasing triangle index.  ``coef`` rows carry, per triangle, the
    operands of the barycentric formulas: a_x, a_y, c_y - a_y, c_x - a_x,
    -(b_y - a_y), b_x - a_x and det.
    """
    coef: np.ndarray
    origin: np.ndarray
    cell: float
    shape: np.ndarray
    indptr: np.ndarray
    tri: np.ndarray


def _build_point_grid(mesh):
    tris = mesh.triangles
    a = mesh.nodes[tris[:, 0]]
    b = mesh.nodes[tris[:, 1]]
    c = mesh.nodes[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    coef = np.stack([a[:, 0], a[:, 1], c[:, 1] - a[:, 1], c[:, 0] - a[:, 0],
                     -(b[:, 1] - a[:, 1]), b[:, 0] - a[:, 0], det], axis=1)
    corners = mesh.nodes[tris]
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    # {bary >= -tol} is the triangle scaled by 1 + 3 tol about its
    # centroid, whose corners move by at most 2 tol diam
    pad = (4.0 * LOCATE_TOL * (hi - lo).max(axis=1) + 1e-12)[:, None]
    lo = lo - pad
    hi = hi + pad
    cell = 1.5 * math.sqrt(float(np.abs(det).mean()) / 2.0)
    origin = lo.min(axis=0)
    # the same floor expression places query points, and every step of
    # it is monotone, so a point inside a padded box lands in its cells
    clo = np.floor((lo - origin) / cell).astype(np.int64)
    chi = np.floor((hi - origin) / cell).astype(np.int64)
    shape = chi.max(axis=0) + 1
    span = chi - clo + 1
    count = span[:, 0] * span[:, 1]
    owner = np.repeat(np.arange(len(tris)), count)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    ix = clo[owner, 0] + k % span[owner, 0]
    iy = clo[owner, 1] + k // span[owner, 0]
    key = iy * shape[0] + ix
    # owner is ascending, so a stable sort keeps each cell in index order
    order = np.argsort(key, kind="stable")
    indptr = np.zeros(shape[0] * shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=shape[0] * shape[1]), out=indptr[1:])
    return _PointGrid(coef=_lock(coef), origin=_lock(origin), cell=cell,
                      shape=_lock(shape), indptr=_lock(indptr),
                      tri=_lock(owner[order]))


def locate_many(mesh, pts):
    """Containing triangles and barycentric coordinates of many points.

    A point belongs to a triangle when all three barycentric coordinates
    are at least ``-tol``, so points on or within about ``tol`` times the
    triangle size outside the domain's edges are located.  Among the
    triangles that contain a point, the lowest index wins; on shared edges
    and at vertex stars that tie rule decides which triangle's data a
    caller sees.  That margin shrinks with the triangles at graded
    corners, so a point that no triangle holds gets a second, absolute
    margin: the lowest-index triangle whose three edge lines it lies
    within ``tol`` of, in length.  Raises OutsideDomain, naming the first
    such point, when a point (NaN and infinite ones included) lies in
    neither margin of any triangle.  ``tol`` is ``LOCATE_TOL``.

    Candidates come from a uniform bucket grid over the triangles'
    bounding boxes, padded to cover the ``-tol`` margin, with cells about
    1.5 mean triangle sizes wide.  The grid is built on the first call, in
    a few array passes over the triangles, and cached on the mesh; a call
    then costs the points times the triangles per cell.
    Every candidate is tested with the scan's own formulas, so a point in
    the barycentric margin gets what a scan over all triangles gives it,
    barycentrics bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    out_idx = np.empty(len(pts), dtype=np.int64)
    out_bary = np.empty((len(pts), 3))
    if len(pts) == 0:
        return out_idx, out_bary
    tol = LOCATE_TOL
    grid = mesh._point_grid
    nx = grid.shape[0]
    for s in range(0, len(pts), 1024):
        block = pts[s:s + 1024]
        f = np.floor((block - grid.origin) / grid.cell)
        inside = ((f >= 0) & (f < grid.shape)).all(axis=1)
        f[~inside] = 0.0
        key = f[:, 1].astype(np.int64) * nx + f[:, 0].astype(np.int64)
        start = grid.indptr[key]
        n = np.where(inside, grid.indptr[key + 1] - start, 0)
        pt = np.repeat(np.arange(len(block)), n)
        pos = np.arange(len(pt)) - np.repeat(np.cumsum(n) - n, n) + start[pt]
        t = grid.tri[pos]
        g = grid.coef[t]
        dx = block[pt, 0] - g[:, 0]
        dy = block[pt, 1] - g[:, 1]
        l1 = (g[:, 2] * dx - g[:, 3] * dy) / g[:, 6]
        l2 = (g[:, 4] * dx + g[:, 5] * dy) / g[:, 6]
        l0 = 1.0 - l1 - l2
        hit = np.flatnonzero((l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol))
        # pairs run point by point in increasing triangle index, so the
        # first hit of each point is its lowest-index triangle
        first = hit[np.diff(pt[hit], prepend=-1) != 0]
        found = pt[first]
        out_idx[s + found] = t[first]
        out_bary[s + found] = np.stack([l0[first], l1[first], l2[first]], axis=1)
        if len(found) < len(block):
            missed = np.ones(len(block), dtype=bool)
            missed[found] = False
            for r in np.flatnonzero(missed):
                near = _locate_near(grid, block[r])
                if near is None:
                    q = tuple(map(float, block[r]))
                    raise OutsideDomain(f"point {q} outside the mesh")
                out_idx[s + r], out_bary[s + r] = near
    return out_idx, out_bary


def _locate_near(grid, q):
    """The lowest-index triangle whose three edge lines ``q`` lies within
    ``LOCATE_TOL`` of, in length, and its barycentrics; None when there is
    none.

    Triangles that close pass their padded boxes through one of the 3 x 3
    cells around ``q``'s, since ``LOCATE_TOL`` is far below a cell width.
    """
    tol = LOCATE_TOL
    f = np.floor((q - grid.origin) / grid.cell)
    if not np.isfinite(f).all():
        return None
    lo = np.maximum(f - 1, 0).astype(np.int64)
    hi = np.minimum(f + 1, grid.shape - 1).astype(np.int64)
    if (lo > hi).any():
        return None
    cand = np.unique(np.concatenate([
        grid.tri[grid.indptr[k]:grid.indptr[k + 1]]
        for iy in range(lo[1], hi[1] + 1)
        for k in range(iy * grid.shape[0] + lo[0], iy * grid.shape[0] + hi[0] + 1)]))
    g = grid.coef[cand]
    dx = q[0] - g[:, 0]
    dy = q[1] - g[:, 1]
    l1 = (g[:, 2] * dx - g[:, 3] * dy) / g[:, 6]
    l2 = (g[:, 4] * dx + g[:, 5] * dy) / g[:, 6]
    l0 = 1.0 - l1 - l2
    # a barycentric times det over the opposite edge's length is the
    # signed distance to that edge's line
    ok = ((l0 * g[:, 6] >= -tol * np.hypot(g[:, 3] - g[:, 5], g[:, 2] + g[:, 4]))
          & (l1 * g[:, 6] >= -tol * np.hypot(g[:, 3], g[:, 2]))
          & (l2 * g[:, 6] >= -tol * np.hypot(g[:, 5], g[:, 4])))
    if not ok.any():
        return None
    j = int(np.argmax(ok))
    return cand[j], (l0[j], l1[j], l2[j])


def mesh_to_obj(mesh, path):
    """Write the flat mesh as OBJ with x3 = 0."""
    verts = np.column_stack([mesh.nodes, np.zeros(len(mesh.nodes))])
    write_obj(path, verts, mesh.triangles)

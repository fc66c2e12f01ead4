"""Conjugate quantities of a capped minimal graph solution.

The per-triangle gradient of a solution defines three constant one-forms
per triangle.  Their potentials, integrated along a spanning tree of the
mesh edge graph, give the conjugate function psi (the height of the
conjugate surface) and the two horizontal coordinates of the conjugate
immersion.  The forms are closed only up to discretization, so every
potential carries the worst circulation over the elementary (triangle)
loops as a reported defect; nothing is hidden by averaging.  The
spanning tree walks the boundary ring first, which keeps boundary
potentials free of interior detour error; psi along a wall is then
exactly the running one-sided flux of that wall.  Interior nodes attach
by shortest paths weighted with the local circulation defect, so the
integration detours around the wall layer where the discrete forms are
least closed.

The tree is found in array passes: scipy's Dijkstra gives each node's
distance from the ring, and each node's parent is read off the edges
that reach it, replaying a node-at-a-time Dijkstra's pop order (by
distance, then node index) where zero or sub-ulp weights tie distances.
The potentials are then assigned one tree depth at a time.

Sign conventions: with g = (u_x, u_y) and W = sqrt(1 + |g|^2),

    dpsi = (u_x dy - u_y dx) / W
    w1   = (u_x u_y dx + (1 + u_y^2) dy) / W
    w2   = -((1 + u_x^2) dx + u_x u_y dy) / W

so a zero solution maps the domain to itself rotated by -pi/2 in the
horizontal plane, and the flux of dpsi over the wall from (0, 0) to
(1, 0) on the unit square comes out +1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .formats import write_csv, write_json, write_obj
from .meshing import LOCATE_TOL, OutsideDomain, locate_many

WELD_TOL = 1e-6


class PathOutsideDomain(ValueError):
    """A flux path left the triangulated domain."""


@dataclass(frozen=True)
class ConjugateField:
    """Potential of the conjugate differential, anchored at the root node."""

    mesh: object
    psi: np.ndarray
    root: int
    loop_defect: float


@dataclass(frozen=True)
class BoundaryCurve:
    """Run of boundary nodes hugging one horizontal symmetry plane."""

    vertex: int
    plane: float
    nodes: np.ndarray


@dataclass(frozen=True)
class ConjugateSurface:
    """Nodal positions of the conjugate immersion; xyz[:, 2] is psi."""

    mesh: object
    xyz: np.ndarray
    period: np.ndarray
    loop_defects: tuple

    def boundary_curves(self, band=0.02):
        """Vertex-anchored arcs of the boundary image near their planes.

        The image of the domain boundary climbs from one horizontal plane
        to the other across each wall; the flat pieces around the vertex
        images approximate the horizontal symmetry curves.  For polygon
        vertex i the arc is the maximal contiguous run of boundary nodes
        through that vertex whose height stays within ``band`` of the
        vertex parity plane (0 for even i, 1 for odd i).
        """
        ring = np.asarray(self.mesh.boundary_nodes())
        nb = len(ring)
        x3 = self.xyz[:, 2]
        pos = {int(n): p for p, n in enumerate(ring)}
        curves = []
        for i, vn in enumerate(self.mesh.vertex_nodes):
            plane = float(i % 2)
            p0 = pos[int(vn)]
            lo = p0
            while lo > p0 - nb and abs(x3[ring[(lo - 1) % nb]] - plane) <= band:
                lo -= 1
            hi = p0
            while hi < lo + nb - 1 and abs(x3[ring[(hi + 1) % nb]] - plane) <= band:
                hi += 1
            nodes = ring[np.arange(lo, hi + 1) % nb]
            curves.append(BoundaryCurve(vertex=i, plane=plane, nodes=nodes))
        return curves


@dataclass(frozen=True)
class TowerPiece:
    """Fundamental saddle tower piece: surface plus its x3 mirror image."""

    vertices: np.ndarray
    triangles: np.ndarray
    period: np.ndarray
    welded: int


def _psi_coeffs(sol):
    g, W = sol.grad, sol.W
    return np.stack([-g[:, 1] / W, g[:, 0] / W], axis=1)


def _surface_coeffs(sol):
    gx, gy = sol.grad[:, 0], sol.grad[:, 1]
    W = sol.W
    w1 = np.stack([gx * gy / W, (1.0 + gy * gy) / W], axis=1)
    w2 = np.stack([-(1.0 + gx * gx) / W, -gx * gy / W], axis=1)
    w3 = np.stack([-gy / W, gx / W], axis=1)
    return np.stack([w1, w2, w3], axis=1)


def _spanning_tree(mesh, root, weight):
    """Boundary-chain-first, defect-weighted spanning tree.

    The boundary ring enters as a chain growing from the root in both
    arc directions, split where the two fronts meet, so every boundary
    potential is a sum of one-sided wall increments and never detours
    through the interior.  Interior nodes then attach by shortest paths
    from the whole ring under the given per-edge weights; weighting an
    edge by the worst adjacent elementary circulation makes the tree
    route integration paths around the poorly resolved wall layer.

    The tree is the one a node-at-a-time Dijkstra builds when it pops
    nodes in (distance, index) order and moves a parent only on a strict
    improvement, found in array passes:

    - scipy's Dijkstra gives the distances, with the same sums;
    - an edge a -> b reaches b when dist[a] + w == dist[b]; a node is
      seeded when an edge from a smaller distance reaches it;
    - nodes pop by distance, then by index, except at a distance that an
      edge reaches without raising it (zero or sub-ulp weights): there
      the pops are replayed from the seeded nodes, lowest index first,
      each pop claiming the unclaimed nodes across such edges;
    - a seeded node's parent is its reaching neighbour popped first.

    Returns (parent, edge index to the parent, distance) per node; the
    root's parent and edge are -1.
    """
    edges, _ = mesh._edge_owner
    n = len(mesh.nodes)
    ring = mesh.boundary_nodes()
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    eid = np.tile(np.arange(len(edges)), 2)
    by_src = np.lexsort((dst, src))
    src, dst, eid = src[by_src], dst[by_src], eid[by_src]
    w = weight[eid]
    # built from index arrays, so the zero weights stay edges
    graph = sparse.csr_matrix(
        (w, dst, np.searchsorted(src, np.arange(n + 1))), shape=(n, n))
    dist = dijkstra(graph, indices=ring, min_only=True)
    lost = int(np.isinf(dist).sum())
    if lost:
        raise ValueError(f"mesh edge graph is disconnected: {lost} of {n} "
                         "nodes unreached from the boundary ring")

    # ring and seeded nodes are claimed up front; the replay claims the rest
    claimed = np.zeros(n, dtype=bool)
    claimed[ring] = True
    reach = (dist[src] + w == dist[dst]) & ~claimed[dst]
    tied = dist[src] == dist[dst]
    flat, rise = reach & tied, reach & ~tied
    claimed[dst[rise]] = True
    # pop order by distance, then index; the replay reorders tied runs
    order = np.argsort(dist, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    parent = np.full(n, -1, dtype=np.int64)
    via = np.full(n, -1, dtype=np.int64)

    # src is sorted, so each node's flat edges are one slice
    fsrc, fdst, feid = src[flat], dst[flat].tolist(), eid[flat].tolist()
    fcut = np.searchsorted(fsrc, np.arange(n + 1)).tolist()
    sorted_dist = dist[order]
    for d in np.unique(dist[fsrc]).tolist():
        slot = int(np.searchsorted(sorted_dist, d))
        # node indices in a sorted list serve as the heap
        queue = np.flatnonzero(claimed & (dist == d)).tolist()
        while queue:
            i = queue.pop(0)
            rank[i] = slot
            slot += 1
            for e in range(fcut[i], fcut[i + 1]):
                j = fdst[e]
                if not claimed[j]:
                    claimed[j] = True
                    parent[j] = i
                    via[j] = feid[e]
                    bisect.insort(queue, j)

    # a seeded node's parent is the first popped source of a rising edge
    s, t, k = src[rise], dst[rise], eid[rise]
    first = np.lexsort((rank[s], t))
    t, keep = np.unique(t[first], return_index=True)
    parent[t] = s[first][keep]
    via[t] = k[first][keep]

    nb = len(ring)
    p0 = ring.tolist().index(root)
    # ring positions forward from the root for half the ring, then backward
    fwd = p0 + np.arange(nb // 2 + 1)
    bwd = p0 - np.arange(nb - nb // 2)
    a = ring[np.concatenate([fwd[:-1], bwd[:-1]]) % nb]
    b = ring[np.concatenate([fwd[1:], bwd[1:]]) % nb]
    parent[b] = a
    via[b] = mesh._edge_index(np.stack([a, b], axis=1))
    return parent, via, dist


def _triangle_circulations(mesh, coeffs):
    """Circulation of the owner-sided forms around every triangle.

    Triangle boundaries are the canonical independent loops of a disk
    triangulation; any closed mesh loop's circulation is a signed sum of
    these.  Shape (T, k) for k forms.
    """
    tris = mesh.triangles
    _, owner = mesh._edge_owner
    circ = np.zeros((len(tris), coeffs.shape[1]))
    for k in range(3):
        d = mesh.nodes[tris[:, (k + 1) % 3]] - mesh.nodes[tris[:, k]]
        circ += np.einsum("tkd,td->tk", coeffs[owner[mesh._sides[:, k]]], d)
    return circ


def _edge_weights(mesh, tri_err):
    """Per-edge weight: the worst error indicator of adjacent triangles."""
    wgt = np.zeros(len(mesh._edge_owner[0]))
    np.maximum.at(wgt, mesh._sides, tri_err[:, None])
    return wgt


def _integrate(mesh, coeffs, root):
    """Potentials of per-triangle one-forms over the spanning tree.

    coeffs has shape (T, k, 2) for k forms; returns (n, k) potentials
    anchored to zero at the root and the per-form max |circulation| over
    the elementary loops.  The tree is weighted by the circulation of the
    last form, which callers arrange to be dpsi, so the function and the
    surface integrate over the identical tree.  Potentials are assigned
    one tree depth at a time, each node as its parent's potential plus
    the signed edge integral, the same sum per node as a walk down the
    tree.
    """
    edges, owner = mesh._edge_owner
    circs = _triangle_circulations(mesh, coeffs)
    weight = _edge_weights(mesh, np.abs(circs[:, -1]))
    parent, via, _ = _spanning_tree(mesh, root, weight)
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    w = np.einsum("ekd,ed->ek", coeffs[owner], d)
    kid = parent >= 0
    sgn = np.where(edges[via[kid], 0] == parent[kid], 1.0, -1.0)
    step = np.zeros((len(mesh.nodes), coeffs.shape[1]))
    step[kid] = sgn[:, None] * w[via[kid]]
    # depth by pointer doubling: depth[v] tree edges lie between v and up[v]
    up = np.where(kid, parent, root)
    depth = kid.astype(np.int64)
    while (up != root).any():
        depth += depth[up]
        up = up[up]
    order = np.argsort(depth, kind="stable")
    cuts = np.searchsorted(depth[order], np.arange(1, depth.max() + 2))
    pot = np.zeros_like(step)
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        now = order[a:b]
        pot[now] = pot[parent[now]] + step[now]
    defects = np.abs(circs).max(axis=0)
    return pot, defects


def _root_node(mesh):
    rt = int(mesh.vertex_nodes[0])
    q = mesh.nodes[rt]
    if abs(q[0]) > 1e-9 or abs(q[1]) > 1e-9:
        raise ValueError("anchor vertex is not at the origin")
    return rt


def conjugate_function(sol):
    """Integrate the conjugate differential; psi = 0 exactly at the root."""
    rt = _root_node(sol.mesh)
    pot, defects = _integrate(sol.mesh, _psi_coeffs(sol)[:, None, :], rt)
    return ConjugateField(mesh=sol.mesh, psi=pot[:, 0], root=rt,
                          loop_defect=float(defects[0]))


def psi_at(field, q):
    """Barycentric interpolation of psi at a point."""
    idx, bary = locate_many(field.mesh, np.asarray(q, dtype=float)[None, :])
    tri = field.mesh.triangles[int(idx[0])]
    return float(bary[0] @ field.psi[tri])


def conjugate_surface(sol):
    """Integrate all three conjugate one-forms with one shared tree.

    The third column of the result is produced by the same arithmetic as
    conjugate_function, so the surface height equals psi bitwise.
    loop_defects reports per-form max elementary circulations in the
    order (w1, w2, dpsi); the horizontal forms carry wall-layer defects
    that grow with the cap, see the module notes.
    """
    rt = _root_node(sol.mesh)
    pot, defects = _integrate(sol.mesh, _surface_coeffs(sol), rt)
    return ConjugateSurface(mesh=sol.mesh, xyz=pot,
                            period=np.array([0.0, 0.0, 2.0]),
                            loop_defects=tuple(float(x) for x in defects))


def triangle_circulations(sol):
    """Elementary circulations of (w1, w2, dpsi) around every triangle.

    A diagnostic for closedness: interior triangles see small values,
    wall-layer triangles see the one-sided jumps of the capped solve.
    """
    return _triangle_circulations(sol.mesh, _surface_coeffs(sol))


def flux(sol, path):
    """Line integral of the conjugate differential along a polyline.

    Each segment is split at its crossings with mesh edges and at the
    mesh nodes within ``LOCATE_TOL`` of it, and every piece uses the form
    of the triangle its midpoint falls in, ties on shared edges going to
    the lowest triangle index, which is what makes boundary runs use
    one-sided data.  The node splits keep a path that runs just outside
    a wall, inside ``locate_many``'s margin, on the wall's triangles.
    Raises PathOutsideDomain when any piece leaves the triangulation.
    """
    P = np.asarray(path, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2 or len(P) < 2:
        raise ValueError("path must be an (k, 2) array with k >= 2")
    mesh = sol.mesh
    coeffs = _psi_coeffs(sol)
    edges, _ = mesh._edge_owner
    A = mesh.nodes[edges[:, 0]]
    R = mesh.nodes[edges[:, 1]] - A

    mids = []
    deltas = []
    for s in range(len(P) - 1):
        p, q = P[s], P[s + 1]
        d = q - p
        if d[0] == 0.0 and d[1] == 0.0:
            continue
        ap = A - p
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = d[0] * R[:, 1] - d[1] * R[:, 0]
            t = (ap[:, 0] * R[:, 1] - ap[:, 1] * R[:, 0]) / denom
            u = (ap[:, 0] * d[1] - ap[:, 1] * d[0]) / denom
            xp = mesh.nodes - p
            tn = (xp @ d) / (d @ d)
            near = np.abs(xp[:, 0] * d[1] - xp[:, 1] * d[0]) <= LOCATE_TOL * np.hypot(*d)
        hit = np.isfinite(t) & (t > 0.0) & (t < 1.0) & (u >= -1e-12) & (u <= 1.0 + 1e-12)
        near &= np.isfinite(tn) & (tn > 0.0) & (tn < 1.0)
        ts = np.concatenate([[0.0, 1.0], t[hit], tn[near]])
        ts = np.unique(ts)
        ts = ts[(ts >= 0.0) & (ts <= 1.0)]
        keep = np.ones(len(ts), dtype=bool)
        keep[1:] = np.diff(ts) > 1e-12
        ts = ts[keep]
        for a, b in zip(ts[:-1], ts[1:]):
            mids.append(p + (0.5 * (a + b)) * d)
            deltas.append((b - a) * d)
    if not mids:
        return 0.0
    mids = np.asarray(mids)
    deltas = np.asarray(deltas)
    try:
        tid, _ = locate_many(mesh, mids)
    except OutsideDomain as exc:
        raise PathOutsideDomain(str(exc)) from None
    return float(np.einsum("sd,sd->", coeffs[tid], deltas))


@dataclass(frozen=True)
class EdgeFluxRow:
    edge: int
    marking: int
    flux: float
    defect: float


def edge_flux_report(sol):
    """Per polygon edge: flux of the conjugate differential along the wall.

    Uses the one triangle adjacent to each boundary segment.  The defect
    column measures the distance from the ideal alternating +-1 fluxes
    and bundles discretization with cap truncation.
    """
    mesh = sol.mesh
    coeffs = _psi_coeffs(sol)
    _, owner = mesh._edge_owner
    tid = owner[mesh._edge_index(mesh.bnd_edges)]
    d = mesh.nodes[mesh.bnd_edges[:, 1]] - mesh.nodes[mesh.bnd_edges[:, 0]]
    w = np.einsum("sd,sd->s", coeffs[tid], d)
    m = len(mesh.polygon.markings)
    fluxes = np.bincount(mesh.bnd_edge_id, weights=w, minlength=m)
    rows = []
    for e in range(m):
        mk = int(mesh.polygon.markings[e])
        rows.append(EdgeFluxRow(edge=e, marking=mk, flux=float(fluxes[e]),
                                defect=float(abs(fluxes[e] - mk))))
    return tuple(rows)


def write_flux_csv(rows, path):
    write_csv(path, ["edge", "marking", "flux", "defect"],
              [[r.edge, r.marking, r.flux, r.defect] for r in rows])


def saddle_tower_piece(c, weld_tol=WELD_TOL):
    """Mirror the surface across x3 = 0 and weld the seam.

    Nodes on the symmetry plane (|x3| <= weld_tol) are shared between
    the two halves; mirrored triangles flip orientation so the winding
    stays coherent.  The period of the full tower is recorded as
    metadata.
    """
    v = c.xyz
    n = len(v)
    onplane = np.abs(v[:, 2]) <= weld_tol
    mirror_id = np.where(onplane, np.arange(n),
                         n + np.cumsum(~onplane) - 1)
    mv = v[~onplane] * np.array([1.0, 1.0, -1.0])
    verts = np.vstack([v, mv])
    t = c.mesh.triangles
    mt = mirror_id[t][:, ::-1]
    tris = np.vstack([t, mt]).astype(np.int64)
    return TowerPiece(vertices=verts, triangles=tris,
                      period=np.array([0.0, 0.0, 2.0]),
                      welded=int(onplane.sum()))


def surface_to_obj(c, path):
    """Conjugate surface as OBJ; the third coordinate is psi."""
    write_obj(path, c.xyz, c.mesh.triangles)


def tower_to_obj(piece, path):
    write_obj(path, piece.vertices, piece.triangles)


def write_period_file(piece, path):
    """Sidecar metadata: the translation period of the repeated piece."""
    write_json(path, {"period": [float(x) for x in piece.period]})

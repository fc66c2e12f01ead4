"""Correctness checks computed apart from towerlab.

Nothing here imports the package under test.  Every check takes plain
arrays or artifact files and returns a list of problems; an empty list
means the output passed.  The references are the closed-form Scherk
graph on the unit square, a P1 area energy and its gradient written
from scratch, point location by a full scan of the triangles, and
properties the capped Jenkins-Serrin method must have whatever the
mesh.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# measured values are recorded in README.md; each bound leaves room above them
SQUARE_CORE_ERR_H05 = 0.025
SQUARE_CORE_ERR_H025_MODULO_CONST = 0.02
CHORD_FLUX_ERR = 0.025
WALL_FLUX_TOL = 0.02
PARITY_TOL = 0.02
SAMPLES_TOL = 0.02
FLUX_RATIO_END = 0.95
SPLIT_DRIFT_MIN = 0.5
RESIDUAL_MAX = 1e-9
CAUCHY_TOL = 0.02
CORE_MARGIN = 0.15
MIN_ANGLE_DEG = 20.0
BARY_TOL = 1e-10


# --- independent references ---------------------------------------------

def scherk(x, y):
    """Closed-form minimal graph on the unit square, +inf on y = 0 and y = 1."""
    return (np.log(np.cos(math.pi * (x - 0.5)))
            - np.log(np.cos(math.pi * (y - 0.5)))) / math.pi


def scherk_grad(x, y):
    return np.stack([-np.tan(math.pi * (x - 0.5)), np.tan(math.pi * (y - 0.5))], axis=-1)


def chord_flux(p, q, order=64):
    """Flux of (u_x dy - u_y dx) / W of the closed form along p -> q."""
    t, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    p = np.asarray(p, dtype=float)
    d = np.asarray(q, dtype=float) - p
    pts = p + t[:, None] * d
    g = scherk_grad(pts[:, 0], pts[:, 1])
    W = np.sqrt(1.0 + (g * g).sum(axis=1))
    return float(np.sum(w * (g[:, 0] * d[1] - g[:, 1] * d[0]) / W))


def boundary_distance(vertices, pts):
    """Distance of each point to the boundary of the closed polygon."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    rel = np.asarray(pts, dtype=float)[:, None, :] - v[None, :, :]
    t = np.clip((rel * e).sum(axis=2) / (e * e).sum(axis=1), 0.0, 1.0)
    return np.linalg.norm(rel - t[:, :, None] * e[None, :, :], axis=2).min(axis=1)


def boundary_data(vertices, nodes, M):
    """Capped data of the alternating markings at boundary-lying nodes.

    Returns (indices of nodes on the boundary, their values): +M inside
    even edges, -M inside odd edges, 0 at the polygon vertices.
    """
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    idx = np.flatnonzero(boundary_distance(v, nodes) < 1e-9)
    vals = np.empty(len(idx))
    for k, i in enumerate(idx):
        q = nodes[i]
        if np.min(np.hypot(*(v - q).T)) < 1e-9:
            vals[k] = 0.0
            continue
        rel = q - v
        t = np.clip((rel * e).sum(axis=1), 0.0, 1.0)
        dist = np.hypot(*(rel - t[:, None] * e).T)
        edge = int(np.argmin(dist))
        vals[k] = M if edge % 2 == 0 else -M
    return idx, vals


def p1_gradients(nodes, tris, u):
    """Per-triangle area and gradient of the P1 interpolant of u."""
    a, b, c = (nodes[tris[:, k]] for k in range(3))
    e1, e2 = b - a, c - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    du1 = u[tris[:, 1]] - u[tris[:, 0]]
    du2 = u[tris[:, 2]] - u[tris[:, 0]]
    gx = (du1 * e2[:, 1] - du2 * e1[:, 1]) / det
    gy = (du2 * e1[:, 0] - du1 * e2[:, 0]) / det
    return 0.5 * det, np.stack([gx, gy], axis=1)


def area_energy(nodes, tris, u):
    area, g = p1_gradients(nodes, tris, u)
    return float(np.sum(area * np.sqrt(1.0 + (g * g).sum(axis=1))))


def energy_residual(nodes, tris, u, free):
    """Euclidean norm of dE/du over the free nodes."""
    area, g = p1_gradients(nodes, tris, u)
    W = np.sqrt(1.0 + (g * g).sum(axis=1))
    a, b, c = (nodes[tris[:, k]] for k in range(3))
    out = np.zeros(len(nodes))
    for k, (p, q) in enumerate(((b, c), (c, a), (a, b))):
        e = q - p
        # gradient of the hat function of corner k is rot90(opposite edge) / 2|T|
        gphi = np.stack([-e[:, 1], e[:, 0]], axis=1) / (2.0 * area)[:, None]
        np.add.at(out, tris[:, k], area / W * (g * gphi).sum(axis=1))
    return float(np.linalg.norm(out[free]))


def locate_scan(nodes, tris, pts, tol=BARY_TOL):
    """Lowest-index triangle containing each point, by scanning all of them."""
    a, b, c = (nodes[tris[:, k]] for k in range(3))
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    out = np.full(len(pts), -1, dtype=np.int64)
    for i, q in enumerate(np.asarray(pts, dtype=float)):
        # barycentric coordinate of a corner = signed area opposite it / det
        lam = [((r[:, 0] - p[:, 0]) * (q[1] - p[:, 1])
                - (r[:, 1] - p[:, 1]) * (q[0] - p[:, 0])) / det
               for p, r in ((b, c), (c, a), (a, b))]
        hits = np.flatnonzero((lam[0] >= -tol) & (lam[1] >= -tol) & (lam[2] >= -tol))
        if len(hits):
            out[i] = hits[0]
    return out


def min_angle_deg(nodes, tris):
    P = nodes[tris]
    worst = 180.0
    for k in range(3):
        u = P[:, (k + 1) % 3] - P[:, k]
        v = P[:, (k + 2) % 3] - P[:, k]
        ang = np.degrees(np.abs(np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
                                           (u * v).sum(axis=1))))
        worst = min(worst, float(ang.min()))
    return worst


# --- artifact readers ---------------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_obj(path):
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


# --- configs ------------------------------------------------------------

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def check_compare_csv(rows):
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    if len(u) < 100:
        return [f"compare.csv: only {len(u)} core rows"]
    out = []
    if boundary_distance(SQUARE, np.column_stack([x, y])).min() < CORE_MARGIN - 1e-9:
        out.append("compare.csv: a row lies outside the core")
    err = float(np.abs(u - scherk(x, y)).max())
    if not err <= SQUARE_CORE_ERR_H05:
        out.append(f"compare.csv: core error {err:.4g} > {SQUARE_CORE_ERR_H05}")
    return out


def check_flux_csv(rows):
    if len(rows) != 4:
        return [f"flux.csv: {len(rows)} rows, expected 4"]
    out = []
    for k, r in enumerate(rows):
        want = 1.0 if k % 2 == 0 else -1.0
        f = float(r["flux"])
        if not abs(f - want) <= WALL_FLUX_TOL:
            out.append(f"flux.csv: edge {k} flux {f:.4g}, expected {want:+g}")
    return out


def check_period(payload):
    if [float(x) for x in payload.get("period", ())] != [0.0, 0.0, 2.0]:
        return [f"period.json: {payload!r}, expected [0, 0, 2]"]
    return []


def check_conjugate_heights(graph_verts, conj_verts):
    """psi at the square's corners is 0, 1, 0, 1 (vertex parity)."""
    if len(graph_verts) != len(conj_verts):
        return ["graph.obj and conjugate.obj have different vertex counts"]
    out = []
    for i, corner in enumerate(SQUARE):
        d = np.hypot(*(graph_verts[:, :2] - corner).T)
        j = int(np.argmin(d))
        if d[j] > 1e-9:
            out.append(f"graph.obj: no node at corner {tuple(corner)}")
            continue
        z = conj_verts[j, 2]
        if not abs(z - i % 2) <= PARITY_TOL:
            out.append(f"conjugate.obj: height {z:.4g} at corner {i}, expected {i % 2}")
    return out


def check_collapse_report(payload):
    out = []
    top = np.array([[0.0, 1.0], [1.0, 1.0]])
    hits = []
    for c in payload.get("candidates", ()):
        seg = np.asarray(c["segment"], dtype=float)
        if min(np.abs(seg - top).max(), np.abs(seg[::-1] - top).max()) < 1e-3:
            hits.append(c)
    if len(hits) != 1:
        return [f"collapse: {len(hits)} candidates on (0,1)-(1,1), expected 1"]
    c = hits[0]
    ratio = np.asarray(c["flux_ratio"], dtype=float)
    if c["verdict"] != "diverging":
        out.append(f"collapse: verdict {c['verdict']!r}, expected 'diverging'")
    if not (np.all(np.diff(ratio) > 0) and ratio[-1] >= FLUX_RATIO_END):
        out.append(f"collapse: flux/length {ratio.tolist()} not increasing to >= {FLUX_RATIO_END}")
    rhombi = payload.get("rhombi", ())
    if len(rhombi) != 2:
        out.append(f"collapse: {len(rhombi)} rhombi, expected 2")
    for r in rhombi:
        q = np.asarray(r, dtype=float)
        sides = np.hypot(*(np.roll(q, -1, axis=0) - q).T)
        if len(q) != 4 or np.abs(sides - 1.0).max() > 1e-3:
            out.append(f"collapse: rhombus {q.tolist()} is not a unit rhombus")
    return out


def check_samples(rows, anchor=(0.5, 0.5)):
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    v = np.array([float(r["value"]) for r in rows])
    if not len(v):
        return ["samples.csv: empty"]
    err = float(np.abs(v - (scherk(x, y) - scherk(*anchor))).max())
    if not err <= SAMPLES_TOL:
        return [f"samples.csv: {err:.4g} from the closed form, above {SAMPLES_TOL}"]
    return []


def check_octagon_mesh(verts, faces):
    nodes = verts[:, :2]
    a, b, c = (nodes[faces[:, k]] for k in range(3))
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    out = []
    if not np.all(areas > 0):
        out.append(f"mesh.obj: {int(np.sum(areas <= 0))} nonpositive triangles")
    want = 2.0 * (1.0 + math.sqrt(2.0))
    # OBJ coordinates carry 9 significant digits
    if abs(float(areas.sum()) - want) > 1e-7:
        out.append(f"mesh.obj: area {areas.sum():.12g}, expected {want:.12g}")
    worst = min_angle_deg(nodes, faces)
    if worst < MIN_ANGLE_DEG:
        out.append(f"mesh.obj: min angle {worst:.3f} deg below {MIN_ANGLE_DEG}")
    return out


# --- ladder -------------------------------------------------------------

def check_rungs(vertices, nodes, tris, rungs):
    """Each rung: data honoured, residual small, energy trace non-increasing.

    rungs is a list of (cap, u, energy_trace).  The last rung's energy must
    lie below the energy of its boundary data extended by zero.
    """
    out = []
    for M, u, trace in rungs:
        idx, vals = boundary_data(vertices, nodes, M)
        if np.abs(u[idx] - vals).max() > 1e-12:
            out.append(f"cap {M:g}: boundary values differ from the data")
            continue
        free = np.setdiff1d(np.arange(len(nodes)), idx)
        res = energy_residual(nodes, tris, u, free)
        if not res <= RESIDUAL_MAX:
            out.append(f"cap {M:g}: residual {res:.3g} > {RESIDUAL_MAX:g}")
        if np.any(np.diff(np.asarray(trace)) > 0):
            out.append(f"cap {M:g}: energy trace increases")
    M, u, _trace = rungs[-1]
    idx, vals = boundary_data(vertices, nodes, M)
    zero = np.zeros(len(nodes))
    zero[idx] = vals
    e, e0 = area_energy(nodes, tris, u), area_energy(nodes, tris, zero)
    if not e < e0:
        out.append(f"cap {M:g}: energy {e:.9g} not below zero extension {e0:.9g}")
    return out


def core_nodes(vertices, nodes):
    return boundary_distance(vertices, nodes) >= CORE_MARGIN


def check_stabilized(name, stabilized_cap, drift):
    if stabilized_cap is None or not drift or not drift[-1] <= CAUCHY_TOL:
        return [f"{name}: did not stabilize (cap {stabilized_cap}, drift {drift})"]
    return []


def check_split_drift(vertices, nodes, us):
    """Special domain: the core keeps moving by at least 0.5, faster each rung."""
    core = core_nodes(vertices, nodes)
    drift = [float(np.abs(b[core] - a[core]).max()) for a, b in zip(us, us[1:])]
    if not (np.all(np.diff(drift) > 0) and min(drift) >= SPLIT_DRIFT_MIN):
        return [f"split_rectangle(3): core drift {drift} not increasing and >= {SPLIT_DRIFT_MIN}"]
    return []


def square_core_error(nodes, u, modulo_constant):
    core = core_nodes(SQUARE, nodes)
    diff = u[core] - scherk(nodes[core, 0], nodes[core, 1])
    if modulo_constant:
        diff = diff - diff.mean()
    return float(np.abs(diff).max())


def check_square_core_error(label, nodes, u, modulo_constant, bound):
    err = square_core_error(nodes, u, modulo_constant)
    if not err <= bound:
        return [f"{label}: core error {err:.4g} > {bound}"]
    return []


# --- probe --------------------------------------------------------------

def check_chord_fluxes(chords, fluxes):
    errs = [abs(f - chord_flux(p, q)) for (p, q), f in zip(chords, fluxes)]
    worst = max(errs)
    if not worst <= CHORD_FLUX_ERR:
        return [f"chord flux {worst:.4g} from Gauss quadrature, above {CHORD_FLUX_ERR}"]
    return []


def check_barycentric(nodes, tris, pts, idx, bary):
    out = []
    if bary.min() < -BARY_TOL:
        out.append(f"barycentric coordinate {bary.min():.3g} below -{BARY_TOL:g}")
    if np.abs(bary.sum(axis=1) - 1.0).max() > 1e-12:
        out.append("barycentric coordinates do not sum to one")
    rebuilt = np.einsum("pk,pkd->pd", bary, nodes[tris[idx]])
    if np.abs(rebuilt - pts).max() > 1e-12:
        out.append("barycentric coordinates do not reconstruct the points")
    return out


def check_lowest_index(nodes, tris, pts, idx):
    want = locate_scan(nodes, tris, pts)
    bad = np.flatnonzero(want != idx)
    if len(bad):
        i = int(bad[0])
        return [f"point {pts[i].tolist()} located in triangle {int(idx[i])}, "
                f"lowest containing is {int(want[i])} ({len(bad)} mismatches)"]
    return []


def check_point_values(nodes, tris, u, pts, values=None, grads=None):
    """Point values and gradients of the P1 interpolant of nodal u.

    The reference uses the triangle the full scan finds, so the gradient
    check also pins the lowest-index tie rule.
    """
    t = locate_scan(nodes, tris, pts)
    _area, g = p1_gradients(nodes, tris[t], u)
    out = []
    if grads is not None and np.abs(np.asarray(grads) - g).max() > 1e-9 * max(1.0, np.abs(g).max()):
        out.append("gradient differs from the P1 gradient of the located triangle")
    a = nodes[tris[t, 0]]
    lin = u[tris[t, 0]] + ((pts - a) * g).sum(axis=1)
    if values is not None and np.abs(np.asarray(values) - lin).max() > 1e-9:
        out.append("point value differs from the P1 interpolant")
    return out


def check_wall_fluxes(fluxes):
    out = []
    for k, f in enumerate(fluxes):
        want = 1.0 if k % 2 == 0 else -1.0
        if not abs(f - want) <= WALL_FLUX_TOL:
            out.append(f"wall {k}: flux {f:.4g}, expected {want:+g}")
    return out


def check_vertex_parity(vertices, nodes, psi):
    out = []
    for i, corner in enumerate(np.asarray(vertices, dtype=float)):
        d = np.hypot(*(nodes - corner).T)
        j = int(np.argmin(d))
        if d[j] > 1e-9 or not abs(psi[j] - i % 2) <= PARITY_TOL:
            out.append(f"psi {psi[j]:.4g} at vertex {i}, expected {i % 2}")
    return out


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

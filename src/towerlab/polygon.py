"""Convex polygons with unit edges carrying alternating boundary markings.

A marked polygon has 2n edges of length one in convex position, traversed
counterclockwise.  Edge i runs from vertex i to vertex i+1 and is marked
+1 for even i and -1 for odd i; the marking says whether the minimal graph
boundary data on that edge is a large positive or large negative cap.
Every polygon is normalized so vertex 0 sits at the origin and vertex 1 at
(1, 0).  Vertex parity (index mod 2) is the combinatorial datum the limit
analysis cares about.

The module also classifies limits of polygon sequences with a deterministic
finite-sequence rule: a vertex counts as stabilized when its last two
positions differ by less than ``tol``, as escaped when its distance from the
origin grows monotonically past ``1/tol``.  Domain growth statistics (height
above the fixed edge, horizontal extents) decide between bounded, halfplane,
strip, halfline, line and general unbounded limits.  Anything the rule
cannot resolve raises ``UndecidedLimit`` rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .formats import ConfigError, fmt_float, parse_float_list, parse_kv_file

TWO_PI = 2.0 * math.pi

CLOSURE_TOL = 1e-9
ANGLE_SUM_TOL = 1e-10
EDGE_LEN_TOL = 1e-12

KIND_BOUNDED = "bounded-polygon"
KIND_HALFPLANE = "halfplane"
KIND_STRIP = "strip"
KIND_UNBOUNDED = "unbounded-polygon"
KIND_LINE = "line"
KIND_HALFLINE = "halfline"


class PolygonError(ValueError):
    pass


class NonClosing(PolygonError):
    """Turning angles or vertices do not close up to a polygon."""


class NotConvex(PolygonError):
    """Turning angles outside [0, pi) or vertices not in convex position."""


class BadMarkingParity(PolygonError):
    """Edge count is odd or too small to carry alternating markings."""


class UndecidedLimit(PolygonError):
    """Sequence too short or oscillating for the finite limit rule."""


def _lock(a):
    """Read-only contiguous array, shared by the immutable results of
    every module."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MarkedPolygon:
    """Convex 2n-gon with unit edges and alternating edge markings."""

    vertices: np.ndarray        # (2n, 2), vertex 0 at origin, vertex 1 at (1, 0)
    markings: np.ndarray        # (2n,) ints, +1 on even edges, -1 on odd

    @property
    def n(self):
        return len(self.vertices) // 2

    @property
    def edge_count(self):
        return len(self.vertices)

    def edge(self, i):
        v = self.vertices
        return v[i], v[(i + 1) % len(v)]

    def edge_vectors(self):
        v = self.vertices
        return np.roll(v, -1, axis=0) - v


def _validate_and_build(vertices):
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise PolygonError("vertices must be an (m, 2) array")
    m = len(verts)
    if m % 2 != 0 or m < 4:
        raise BadMarkingParity(f"need an even number >= 4 of edges, got {m}")
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    bad = np.abs(lengths - 1.0) > EDGE_LEN_TOL
    if bad.any():
        i = int(np.argmax(np.abs(lengths - 1.0)))
        raise NonClosing(f"edge {i} has length {lengths[i]!r}, expected 1")
    cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    if (cross < -1e-12).any():
        raise NotConvex("vertices are not in counterclockwise convex position")
    dirs = np.arctan2(edges[:, 1], edges[:, 0])
    turns = np.diff(np.concatenate([dirs, dirs[:1] + TWO_PI]))
    turns = np.mod(turns + math.pi, TWO_PI) - math.pi
    if (turns >= math.pi - 1e-12).any():
        raise NotConvex("turning angle of pi or more (reflex or degenerate vertex)")
    if abs(turns.sum() - TWO_PI) > 1e-8:
        raise NotConvex(f"turning angles sum to {turns.sum()!r}, expected 2*pi")
    # normalize: vertex 0 at origin, first edge along +x
    verts = verts - verts[0]
    e0 = verts[1] - verts[0]
    c, s = e0[0], e0[1]
    rot = np.array([[c, s], [-s, c]]) / math.hypot(c, s)
    verts = verts @ rot.T
    verts[0] = (0.0, 0.0)
    verts[1] = (1.0, 0.0)
    markings = np.where(np.arange(m) % 2 == 0, 1, -1)
    markings.setflags(write=False)
    return MarkedPolygon(_lock(verts), markings)


def from_turning_angles(angles):
    """Build a marked polygon from exterior turning angles.

    ``angles[i]`` is the turn after traversing edge i, taken at vertex i+1.
    The list must have even length >= 4, entries in [0, pi), sum 2*pi, and
    the resulting unit-edge walk must close to within 1e-9.
    """
    ang = np.asarray(angles, dtype=float)
    if ang.ndim != 1:
        raise PolygonError("angles must be a flat sequence")
    m = len(ang)
    if m % 2 != 0 or m < 4:
        raise BadMarkingParity(f"need an even number >= 4 of angles, got {m}")
    if (ang < 0.0).any() or (ang >= math.pi).any():
        raise NotConvex("turning angles must lie in [0, pi)")
    if abs(ang.sum() - TWO_PI) > ANGLE_SUM_TOL:
        raise NotConvex(f"turning angles sum to {ang.sum()!r}, expected 2*pi")
    dirs = np.concatenate([[0.0], np.cumsum(ang[:-1])])
    steps = np.column_stack([np.cos(dirs), np.sin(dirs)])
    gap = steps.sum(axis=0)
    if math.hypot(gap[0], gap[1]) > CLOSURE_TOL:
        raise NonClosing(f"walk misses closure by {math.hypot(gap[0], gap[1])!r}")
    verts = np.vstack([[0.0, 0.0], np.cumsum(steps[:-1], axis=0)])
    return _validate_and_build(verts)


def from_vertices(vertices):
    """Validate raw vertices (unit edges, convex, CCW) and normalize."""
    return _validate_and_build(vertices)


def to_turning_angles(p):
    edges = p.edge_vectors()
    dirs = np.arctan2(edges[:, 1], edges[:, 0])
    turns = np.diff(np.concatenate([dirs, dirs[:1] + TWO_PI]))
    turns = np.mod(turns + math.pi, TWO_PI) - math.pi
    return np.maximum(turns, 0.0)


def area(p):
    v = p.vertices
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def perimeter(p):
    edges = p.edge_vectors()
    return float(np.hypot(edges[:, 0], edges[:, 1]).sum())


def contains_many(p, pts, tol=1e-12):
    """Inside test for an (N, 2) array of points; returns an (N,) bool array.

    A point passes when its cross product with every edge is >= -tol.
    Edges have unit length, so that cross product is the signed distance
    to the edge's line, positive inside: a positive tol also admits points
    up to tol outside, and a negative tol (as the mesher uses) keeps only
    points strictly inside, more than |tol| from every edge line.
    """
    pts = np.asarray(pts, dtype=float)
    v = p.vertices
    e = p.edge_vectors()
    rel = pts[:, None, :] - v
    cross = e[:, 0] * rel[:, :, 1] - e[:, 1] * rel[:, :, 0]
    return (cross >= -tol).all(axis=1)


def contains(p, q, tol=1e-12):
    """``contains_many`` for one point q of shape (2,); returns a bool."""
    return bool(contains_many(p, np.reshape(q, (1, 2)), tol)[0])


def boundary_distance_many(p, pts):
    """Distances from an (N, 2) array of points to the polygon boundary.

    Returns an (N,) array; the distance does not depend on the side.
    """
    pts = np.asarray(pts, dtype=float)
    v = p.vertices
    e = p.edge_vectors()
    rel = pts[:, None, :] - v
    t = np.clip((rel * e).sum(axis=2) / (e * e).sum(axis=1), 0.0, 1.0)
    foot = v + t[:, :, None] * e
    gap = pts[:, None, :] - foot
    return np.hypot(gap[:, :, 0], gap[:, :, 1]).min(axis=1)


def boundary_distance(p, q):
    """``boundary_distance_many`` for one point q of shape (2,)."""
    return float(boundary_distance_many(p, np.reshape(q, (1, 2)))[0])


def is_special(p, tol=1e-9):
    """True for a parallelogram with side lengths 1 and n-1, n >= 3.

    On such domains the capped solves drift instead of stabilizing; the
    interior splits into n-1 unit rhombi separated by divergence segments.
    """
    n = p.n
    if n < 3:
        return False
    turns = to_turning_angles(p)
    corner = turns > tol
    if int(corner.sum()) != 4:
        return False
    idx = np.flatnonzero(corner)
    # arc lengths between consecutive corners, cyclically
    runs = np.diff(np.concatenate([idx, [idx[0] + 2 * n]]))
    if not (set(runs.tolist()) == {1, n - 1} and runs[0] != runs[1]
            and runs[0] == runs[2] and runs[1] == runs[3]):
        return False
    e = p.edge_vectors()
    d0 = e[idx[0]]
    d1 = e[idx[1]]
    # opposite sides of a parallelogram are antiparallel
    for a, b in ((d0, e[idx[2]]), (d1, e[idx[3]])):
        if abs(a[0] * b[1] - a[1] * b[0]) > tol or np.dot(a, b) > 0:
            return False
    return True


def parity_distance_condition(p, tol=1e-9):
    """Check that all non-adjacent vertex pairs of different parity sit at
    distance strictly greater than one.

    Degenerating families break this exactly when pairs reach distance one
    and divergence segments can form between them.
    """
    v = p.vertices
    m = len(v)
    for i in range(m):
        for j in range(i + 1, m):
            if (i + j) % 2 == 0:
                continue
            if j - i == 1 or (i == 0 and j == m - 1):
                continue
            d = math.hypot(*(v[i] - v[j]))
            if d <= 1.0 + tol:
                return False
    return True


# ---------------------------------------------------------------------------
# common construction helpers

def unit_square():
    return from_turning_angles([math.pi / 2] * 4)


def regular_polygon(n):
    """Regular 2n-gon with unit edges."""
    if n < 2:
        raise PolygonError("need n >= 2")
    return from_turning_angles([math.pi / n] * (2 * n))


def split_rectangle(n):
    """1 x (n-1) rectangle with the long sides split into unit edges.

    For n >= 3 this is the bounded special domain: a parallelogram with
    sides 1 and n-1.
    """
    if n < 2:
        raise PolygonError("need n >= 2")
    half = math.pi / 2
    ang = [half] + [0.0] * (n - 2) + [half, half] + [0.0] * (n - 2) + [half]
    return from_turning_angles(ang)


def near_special_hexagon(delta):
    """Convex hexagon collapsing onto the 1 x 2 split rectangle as delta -> 0.

    Angles (pi/2 - delta/2, delta, pi/2 - delta/2) repeated; the two delta
    vertices flatten toward (1, 1) and (0, 1), whose connecting segment is
    the divergence candidate of the family.
    """
    if not 0.0 < delta < math.pi / 2:
        raise PolygonError("need 0 < delta < pi/2")
    a = math.pi / 2 - delta / 2
    return from_turning_angles([a, delta, a, a, delta, a])


def _close_walk(dirs):
    """Unit steps along ``dirs`` nudged until the walk closes.

    Newton on ``sum(steps) = 0`` with the minimal-norm correction over
    every direction but the first, which stays pinned.  Returns the steps
    of the corrected directions, or None when the gap stays above
    ``CLOSURE_TOL``.
    """
    dirs = np.array(dirs, dtype=float)
    for _ in range(6):
        steps = np.column_stack([np.cos(dirs), np.sin(dirs)])
        gap = steps.sum(axis=0)
        if math.hypot(*gap) < 1e-14:
            return steps
        jac = np.stack([-np.sin(dirs[1:]), np.cos(dirs[1:])])
        dirs[1:] -= np.linalg.pinv(jac) @ gap
    steps = np.column_stack([np.cos(dirs), np.sin(dirs)])
    return steps if math.hypot(*steps.sum(axis=0)) <= CLOSURE_TOL else None


# ---------------------------------------------------------------------------
# domain spec files

_DOMAIN_KEYS = {"n", "angles", "name"}


def load_domain(path):
    """Read a domain spec file with fields n, angles (radians), optional name."""
    items = parse_kv_file(path)
    seen = {}
    for key, value, line in items:
        if key not in _DOMAIN_KEYS:
            raise ConfigError(f"unknown key {key!r}", str(path), line)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", str(path), line)
        seen[key] = (value, line)
    if "n" not in seen:
        raise ConfigError("missing key 'n'", str(path))
    if "angles" not in seen:
        raise ConfigError("missing key 'angles'", str(path))
    n_raw, n_line = seen["n"]
    try:
        n = int(n_raw)
    except ValueError:
        raise ConfigError(f"n must be an integer, got {n_raw!r}", str(path), n_line) from None
    ang_raw, ang_line = seen["angles"]
    angles = parse_float_list(ang_raw, str(path), ang_line)
    if len(angles) != 2 * n:
        raise ConfigError(f"expected {2 * n} angles for n={n}, got {len(angles)}",
                          str(path), ang_line)
    name = seen["name"][0] if "name" in seen else None
    ang = np.asarray(angles, dtype=float)
    defect = float(ang.sum() - TWO_PI)
    if abs(defect) > 1e-6:
        raise ConfigError(f"angles sum to 2*pi + {defect:.3g}", str(path), ang_line)
    # hand-written files carry limited decimals; spread the tiny sum defect
    # evenly, then close the unit-edge walk by nudging its directions
    ang = ang - defect / len(ang)
    steps = _close_walk(np.concatenate([[0.0], np.cumsum(ang[:-1])]))
    if steps is None:
        raise ConfigError("angles do not describe a closed polygon",
                          str(path), ang_line)
    verts = np.vstack([[0.0, 0.0], np.cumsum(steps[:-1], axis=0)])
    poly = from_vertices(verts)
    return poly, name


def dump_domain(path, p, name=None):
    lines = []
    if name:
        lines.append(f"name = {name}")
    lines.append(f"n = {p.n}")
    # full precision so the strict closure validation survives a round trip
    angles = ", ".join("%.17g" % a for a in to_turning_angles(p))
    lines.append(f"angles = {angles}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# limits of polygon sequences

@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True)
class LimitDomain:
    """Limit of a normalized polygon sequence.

    ``vertices`` are the stabilized positions in boundary order with their
    parities; ``rays`` (up to two) continue the boundary to infinity for
    unbounded kinds.  ``special`` is the unbounded two-halflines-plus-edge
    condition, or its bounded parallelogram analogue when a bounded limit
    is special; ``polygon`` is attached when the limit vertices form an
    exactly valid marked polygon.
    """

    kind: str
    vertices: np.ndarray
    parities: np.ndarray
    rays: tuple = ()
    special: bool = False
    polygon: MarkedPolygon | None = field(default=None, compare=False)


def _snap_to_unit_edges(verts):
    """Project near-polygon vertices onto the closed unit-edge manifold.

    Optimizes edge directions (first edge pinned to +x) so the unit-step
    walk matches the targets, with the closure defect strongly weighted.
    Returns the snapped vertices, or None if the fit is poor.
    """
    from scipy.optimize import least_squares

    verts = np.asarray(verts, dtype=float)
    m = len(verts)
    edges = np.roll(verts, -1, axis=0) - verts
    phi0 = np.arctan2(edges[:, 1], edges[:, 0])
    phi0 = np.unwrap(phi0)

    def resid(phi_free):
        phi = np.concatenate([[phi0[0]], phi_free])
        steps = np.column_stack([np.cos(phi), np.sin(phi)])
        walk = np.vstack([[0.0, 0.0], np.cumsum(steps[:-1], axis=0)]) + verts[0]
        r = (walk - verts).ravel()
        closure = steps.sum(axis=0) * 1e4
        return np.concatenate([r, closure])

    sol = least_squares(resid, phi0[1:], xtol=1e-15, ftol=1e-15, gtol=1e-15)
    phi = np.concatenate([[phi0[0]], sol.x])

    # the soft closure weight leaves an O(1e-10) gap, too big for the strict
    # unit-edge validation; close it exactly
    steps = _close_walk(phi)
    if steps is None:
        return None
    snapped = np.vstack([[0.0, 0.0], np.cumsum(steps[:-1], axis=0)]) + verts[0]
    return snapped


def _extrapolate(track):
    """Geometric extrapolation of a convergent vertex track."""
    if len(track) < 3:
        return track[-1]
    d1 = track[-1] - track[-2]
    d0 = track[-2] - track[-3]
    n0 = math.hypot(*d0)
    n1 = math.hypot(*d1)
    if n0 < 1e-14 or n1 < 1e-14:
        return track[-1]
    r = n1 / n0
    if not 0.02 < r < 0.95:
        return track[-1]
    return track[-1] + d1 * (r / (1.0 - r))


def _grows(vals):
    # monotone and grew by at least one unit edge over the whole sequence;
    # edges all have length one, so this is the natural scale
    v = np.asarray(vals, dtype=float)
    if len(v) < 2:
        return False
    return bool((np.diff(v) > -1e-9).all() and v[-1] - v[0] >= 1.0 - 1e-9)


def _shrinks_to_zero(vals, tol):
    v = np.asarray(vals, dtype=float)
    if len(v) < 2:
        return False
    return bool((np.diff(v) < 1e-12).all() and v[-1] < tol)


def _track(seq, offset, forward):
    """Positions of the vertex at a cyclic index offset from vertex 0."""
    out = []
    for p in seq:
        m = len(p.vertices)
        if offset > m // 2:
            out.append(None)
            continue
        idx = offset if forward else (m - offset) % m
        out.append(p.vertices[idx])
    return out


def _status(track, tol):
    pos = [t for t in track if t is not None]
    if len(pos) < 2:
        return "moving", None
    if math.hypot(*(pos[-1] - pos[-2])) < tol:
        return "stabilized", _extrapolate(pos)
    return "moving", None


def _prune_collinear(points, rays, tol=1e-3):
    """Drop chain vertices whose incoming and outgoing directions agree."""
    dirs_in = []
    dirs_out = []
    pts = list(points)
    for k, q in enumerate(pts):
        if k == 0:
            dirs_in.append(-rays[0].direction if rays else None)
        else:
            d = q - pts[k - 1]
            dirs_in.append(d / (math.hypot(*d) or 1.0))
        if k == len(pts) - 1:
            dirs_out.append(rays[1].direction if len(rays) > 1 else None)
        else:
            d = pts[k + 1] - q
            dirs_out.append(d / (math.hypot(*d) or 1.0))
    kept = []
    for k, q in enumerate(pts):
        di, do = dirs_in[k], dirs_out[k]
        if di is None or do is None:
            kept.append(k)
            continue
        if abs(di[0] * do[1] - di[1] * do[0]) > tol or np.dot(di, do) < 0:
            kept.append(k)
    return [pts[k] for k in kept]


def _unbounded_special(points, rays, tol=1e-3):
    """Two parallel same-direction halflines joined by one unit edge."""
    if len(rays) != 2:
        return False
    d0, d1 = rays[0].direction, rays[1].direction
    if abs(d0[0] * d1[1] - d0[1] * d1[0]) > tol or np.dot(d0, d1) < 0:
        return False
    core = _prune_collinear(points, rays, tol)
    if len(core) != 2:
        return False
    return abs(math.hypot(*(core[1] - core[0])) - 1.0) <= tol


def _bounded_special(verts, tol):
    """Tolerant parallelogram test for limit vertices without an exact polygon."""
    v = np.asarray(verts, dtype=float)
    m = len(v)
    n = m // 2
    if n < 3:
        return False
    e = np.roll(v, -1, axis=0) - v
    dirs = np.arctan2(e[:, 1], e[:, 0])
    turns = np.mod(np.diff(np.concatenate([dirs, dirs[:1] + TWO_PI])) + math.pi,
                   TWO_PI) - math.pi
    corner = np.abs(turns) > max(tol, 0.05)
    if int(corner.sum()) != 4:
        return False
    idx = np.flatnonzero(corner)
    runs = np.diff(np.concatenate([idx, [idx[0] + m]]))
    return (set(runs.tolist()) == {1, n - 1} and runs[0] != runs[1]
            and runs[0] == runs[2] and runs[1] == runs[3])


def classify_limit(seq, tol):
    """Classify the limit of a normalized polygon sequence.

    Vertices tracked by index from the pinned edge decide boundedness: if
    every tracked vertex stabilizes (last two members within tol) the limit
    is a bounded polygon assembled from extrapolated positions.  Otherwise
    the kind comes from which extents (left, right, height) grow
    monotonically by at least one unit edge over the sequence, and the
    stabilized chain near the pinned edge is continued by two rays.  Raises
    UndecidedLimit when neither rule fires.
    """
    seq = list(seq)
    if len(seq) < 2:
        raise UndecidedLimit("need at least two members")
    if tol <= 0:
        raise PolygonError("tol must be positive")
    counts = [len(p.vertices) for p in seq]
    last = seq[-1]
    n_pair = min(counts[-1], counts[-2]) // 2

    fwd = {}
    bwd = {}
    for j in range(0, n_pair + 1):
        fwd[j] = _status(_track(seq, j, True), tol)
    for j in range(1, n_pair):
        bwd[j] = _status(_track(seq, j, False), tol)

    # growth statistics relative to the pinned edge on the x axis
    heights = [float(p.vertices[:, 1].max()) for p in seq]
    x_hi = [float(p.vertices[:, 0].max()) for p in seq]
    x_lo = [float(-p.vertices[:, 0].min()) for p in seq]
    grow_h = _grows(heights)
    grow_right = _grows(x_hi)
    grow_left = _grows(x_lo)
    flat = _shrinks_to_zero(heights, tol)
    any_growth = grow_h or grow_right or grow_left

    all_stab = (counts[-1] == counts[-2]
                and all(s == "stabilized" for s, _ in fwd.values())
                and all(s == "stabilized" for s, _ in bwd.values()))

    if all_stab:
        m = counts[-1]
        verts = np.empty((m, 2))
        for j in range(0, n_pair + 1):
            verts[j] = fwd[j][1]
        for j in range(1, n_pair):
            verts[(m - j) % m] = bwd[j][1]
        snapped = _snap_to_unit_edges(verts)
        poly = None
        if snapped is not None and float(np.abs(snapped - verts).max()) < max(tol, 1e-9):
            try:
                poly = from_vertices(snapped)
            except PolygonError:
                poly = None
        if poly is not None:
            verts = np.asarray(poly.vertices)
            special = is_special(poly) or _bounded_special(verts, tol)
        else:
            special = _bounded_special(verts, tol)
        parities = np.arange(m) % 2
        parities.setflags(write=False)
        return LimitDomain(KIND_BOUNDED, _lock(verts), parities, (), bool(special), poly)

    if not any_growth:
        raise UndecidedLimit("members neither stabilize nor show a growth signature")

    # stabilized chain around the pinned edge
    j_fwd = -1
    for j in range(0, n_pair + 1):
        if fwd[j][0] != "stabilized":
            break
        j_fwd = j
    j_bwd = 0
    for j in range(1, n_pair):
        if bwd[j][0] != "stabilized":
            break
        j_bwd = j
    if j_fwd < 1:
        raise UndecidedLimit("pinned edge fails to stabilize")

    m_last = counts[-1]
    chain = []
    parities = []
    for j in range(j_bwd, 0, -1):
        chain.append(bwd[j][1])
        parities.append(j % 2)
    for j in range(0, j_fwd + 1):
        chain.append(fwd[j][1])
        parities.append(j % 2)
    chain = np.asarray(chain)

    # outgoing boundary rays from the chain ends, taken from the last member
    v = last.vertices
    tail_idx = (m_last - j_bwd) % m_last
    d_back = v[(tail_idx - 1) % m_last] - v[tail_idx]
    d_back = d_back / math.hypot(*d_back)
    head_idx = j_fwd
    d_fwd = v[(head_idx + 1) % m_last] - v[head_idx]
    d_fwd = d_fwd / math.hypot(*d_fwd)
    rays = (Ray(_lock(chain[0]), _lock(d_back)), Ray(_lock(chain[-1]), _lock(d_fwd)))

    if grow_right and grow_left:
        if grow_h:
            kind = KIND_HALFPLANE
        elif flat:
            kind = KIND_LINE
        else:
            kind = KIND_STRIP
    elif grow_right != grow_left:
        kind = KIND_HALFLINE if flat else KIND_UNBOUNDED
    else:
        kind = KIND_UNBOUNDED

    special = kind == KIND_UNBOUNDED and _unbounded_special(list(chain), list(rays))
    par = np.asarray(parities, dtype=int)
    par.setflags(write=False)
    return LimitDomain(kind, _lock(chain), par, rays, bool(special), None)

"""Sequences of solved domains and their limit behavior.

A degenerating family of marked polygons is solved member by member,
classified by the polygon module's limit rules, and then probed for
divergence lines: interior segments across which the solutions steepen
until the conjugate flux saturates at the segment length.  Flux is the
primary signal; gradient growth corroborates.  Special limits decompose
into chains of unit rhombi, and the normalized solution of the last
member stands in for the limit graph near any interior anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjugate import flux, triangle_circulations
from .formats import fmt_float, write_csv
from .jssolver import (
    DEFAULT_CAPS,
    DEFAULT_CAUCHY_TOL,
    DEFAULT_TOL,
    NoStabilization,
    gradient_at_many,
    solve_js,
)
from .meshing import locate_many, triangulate
from .polygon import KIND_BOUNDED, KIND_HALFPLANE, KIND_STRIP, _lock, classify_limit

DEFAULT_CAND_TOL = 0.05
DEFAULT_FLUX_SLACK = 0.05
DEFAULT_GRAD_BOUND = 50.0
DEFAULT_SHRINK = 0.05
ANCHOR_CLEARANCE = 0.1
MONOTONE_WINDOW = 3
GRAD_SAMPLES = 33

VERDICT_DIVERGING = "diverging"
VERDICT_NOT_DIVERGING = "not-diverging"
VERDICT_UNDECIDED = "undecided"

TAG_SINGLY = "singly-periodic-Scherk"
TAG_KMR = "KMR-piece"
TAG_DOUBLY = "doubly-periodic-Scherk-on-rhombi"
TAG_MRT = "mrt-graph"
TAG_SADDLE = "saddle-tower-graph"


class NotSpecial(ValueError):
    """Rhombus decomposition asked of a limit that is not special."""


class QOutsideConvergenceDomain(ValueError):
    """Anchor point sits on or near a divergence candidate."""


@dataclass(frozen=True)
class SequenceExperiment:
    """Solved members of a degenerating family plus their classified limit.

    members holds (polygon, solution) pairs in the order of the
    degeneration parameter; probes are the monitoring points carried
    into divergence reports.
    """

    members: tuple
    limit: object
    probes: tuple = ()


@dataclass(frozen=True)
class CandidateTrace:
    """One divergence candidate with its per-member statistics.

    flux is the raw conjugate flux along the measured (shrunk) segment;
    flux_ratio divides by the measured length, which is the Lemma-style
    normalization the verdict uses; sup_grad is the max gradient norm
    over samples of the segment.
    """

    segment: np.ndarray
    flux: tuple
    flux_ratio: tuple
    sup_grad: tuple
    verdict: str


@dataclass(frozen=True)
class DivergenceReport:
    candidates: tuple
    probe_gradients: np.ndarray
    flux_slack: float
    grad_bound: float
    shrink: float


@dataclass(frozen=True)
class RhombusDecomposition:
    """Unit rhombi tiling the convergence domain of a special limit.

    Bounded limits list all n-1 rhombi; unbounded ones give the first
    rhombus plus the translation that generates the rest.
    """

    rhombi: tuple
    translation: np.ndarray | None = None


@dataclass(frozen=True)
class NormalizedLimit:
    tag: str
    anchor: np.ndarray
    points: np.ndarray
    values: np.ndarray
    member_index: int


def _solve_member(poly, h, g, caps, tol, cauchy_tol):
    mesh = triangulate(poly, h, g)
    try:
        sol = solve_js(mesh, caps=caps, tol=tol, cauchy_tol=cauchy_tol)
    except NoStabilization as exc:
        # degenerating members stop stabilizing before the limit; keep the
        # deepest capped solve so fluxes and gradients stay comparable
        sol = exc.last
    return poly, sol


def solve_sequence(polys, h, g, caps=DEFAULT_CAPS, tol=DEFAULT_TOL,
                   cauchy_tol=DEFAULT_CAUCHY_TOL, limit_tol=DEFAULT_CAND_TOL,
                   probes=()):
    """Solve every member of a polygon family and classify its limit.

    Members are solved in input order.  Probes are interior points whose
    gradient each divergence report will track.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty polygon sequence")
    for p in polys:
        v = p.vertices
        if abs(v[0][0]) > 1e-9 or abs(v[0][1]) > 1e-9 or abs(v[1][0] - 1.0) > 1e-9 or abs(v[1][1]) > 1e-9:
            raise ValueError("sequence members must be normalized")
    members = tuple(_solve_member(p, h, g, tuple(caps), tol, cauchy_tol) for p in polys)
    limit = classify_limit(polys, tol=limit_tol)
    return SequenceExperiment(members=members, limit=limit,
                              probes=tuple(tuple(map(float, q)) for q in probes))


def divergence_candidates(d, tol=DEFAULT_CAND_TOL):
    """Segments joining non-adjacent different-parity limit vertices at
    distance one (within tol).

    These are the only places a divergence line can sit; domains whose
    parity pairs all keep distance above one return an empty list.
    """
    v = np.asarray(d.vertices, dtype=float)
    par = np.asarray(d.parities, dtype=int)
    m = len(v)
    cyclic = d.kind == KIND_BOUNDED
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if par[i] == par[j]:
                continue
            if j - i == 1 or (cyclic and i == 0 and j == m - 1):
                continue
            dist = float(np.hypot(*(v[i] - v[j])))
            if abs(dist - 1.0) <= tol:
                out.append(_lock(np.stack([v[i], v[j]])))
    return out


def _segment_stats(sol, seg, shrink):
    a, b = np.asarray(seg, dtype=float)
    a2 = a + shrink * (b - a)
    b2 = b - shrink * (b - a)
    length = float(np.hypot(*(b2 - a2)))
    fl = flux(sol, [tuple(a2), tuple(b2)])
    t = np.linspace(0.0, 1.0, GRAD_SAMPLES)[:, None]
    pts = a2 + t * (b2 - a2)
    grad = gradient_at_many(sol, pts)
    return fl, abs(fl) / length, float(np.hypot(grad[:, 0], grad[:, 1]).max())


def detect_divergence(e, tol=DEFAULT_CAND_TOL, flux_slack=DEFAULT_FLUX_SLACK,
                      grad_bound=DEFAULT_GRAD_BOUND, shrink=DEFAULT_SHRINK):
    """Decide divergence per candidate segment of the limit domain.

    Each candidate is shrunk by the given fraction at both ends to keep
    clear of vertex singularities, then measured on every member.  The
    verdict is diverging when the per-length flux of the last member is
    within flux_slack of saturation and both statistics grow strictly
    over the last three members; not-diverging when gradients stay under
    grad_bound on all members; undecided otherwise.
    """
    if len(e.members) < MONOTONE_WINDOW:
        raise ValueError("need at least three members")
    if not 0.0 < shrink < 0.5:
        # at 0 the segment ends on the vertex singularities and below it
        # leaves the candidate; from 0.5 on it collapses or turns round
        raise ValueError(f"shrink must lie in (0, 0.5), got {shrink}")
    cands = divergence_candidates(e.limit, tol)
    traces = []
    for seg in cands:
        fls, ratios, grads = [], [], []
        for _poly, sol in e.members:
            fl, ratio, gmax = _segment_stats(sol, seg, shrink)
            fls.append(fl)
            ratios.append(ratio)
            grads.append(gmax)
        r = np.abs(ratios[-MONOTONE_WINDOW:])
        gtail = np.asarray(grads[-MONOTONE_WINDOW:])
        if (abs(ratios[-1]) >= 1.0 - flux_slack
                and np.all(np.diff(r) > 0) and np.all(np.diff(gtail) > 0)):
            verdict = VERDICT_DIVERGING
        elif max(grads) <= grad_bound:
            verdict = VERDICT_NOT_DIVERGING
        else:
            verdict = VERDICT_UNDECIDED
        traces.append(CandidateTrace(segment=seg, flux=tuple(fls),
                                     flux_ratio=tuple(ratios),
                                     sup_grad=tuple(grads), verdict=verdict))
    probe_grads = np.zeros((len(e.members), len(e.probes)))
    if e.probes:
        P = np.asarray(e.probes, dtype=float)
        for i, (_poly, sol) in enumerate(e.members):
            g = gradient_at_many(sol, P)
            probe_grads[i] = np.hypot(g[:, 0], g[:, 1])
    return DivergenceReport(candidates=tuple(traces),
                            probe_gradients=_lock(probe_grads),
                            flux_slack=flux_slack, grad_bound=grad_bound,
                            shrink=shrink)


def _corner_indices(verts):
    # classified limits carry extrapolation noise, so a corner is a turn
    # whose sine clears 0.1 rather than an exact direction change
    e = np.roll(verts, -1, axis=0) - verts
    prev = np.roll(e, 1, axis=0)
    cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
    norm = np.hypot(*prev.T) * np.hypot(*e.T)
    return np.flatnonzero(np.abs(cross) > 0.1 * norm)


def rhombus_decomposition(d, tol=1e-3):
    """Slice a special limit into its chain of unit rhombi.

    Bounded special limits (parallelogram, sides 1 and n-1) are cut
    along every divergence segment, giving n-1 rhombi that share full
    edges consecutively.  Unbounded special limits (two parallel half
    lines joined by a unit edge) return the first rhombus and the
    translation generating the rest.
    """
    if not getattr(d, "special", False):
        raise NotSpecial(f"limit of kind {d.kind!r} is not special")
    verts = np.asarray(d.vertices, dtype=float)
    if d.kind != KIND_BOUNDED:
        rays = d.rays
        if len(rays) != 2:
            raise NotSpecial("unbounded special limit needs two rays")
        d0, d1 = (np.asarray(r.direction, dtype=float) for r in rays)
        if abs(d0[0] * d1[1] - d0[1] * d1[0]) > tol:
            raise NotSpecial("half lines are not parallel")
        t = 0.5 * (d0 + d1)
        t = t / np.hypot(*t)
        a, b = verts[_unit_edge_of_chain(verts, t, tol)]
        first = np.stack([a, b, b + t, a + t])
        return RhombusDecomposition(rhombi=(_lock(first),), translation=_lock(t))

    corners = _corner_indices(verts)
    if len(corners) != 4:
        raise NotSpecial("bounded special limit must have four corners")
    m = len(verts)
    runs = np.diff(np.concatenate([corners, [corners[0] + m]]))
    if 1 not in runs:
        raise NotSpecial("no unit side found")
    k = int(np.flatnonzero(runs == 1)[0])
    base = verts[[corners[k], (corners[k] + 1) % m]]
    far_k = (k + 2) % 4
    far = verts[[(corners[far_k] + 1) % m, corners[far_k]]]
    axis = base[1] - base[0]
    segs = []
    for seg in divergence_candidates(d, tol=max(tol, 1e-6)):
        s = np.asarray(seg)
        if (s[1] - s[0]) @ axis < 0:
            s = s[::-1]
        segs.append(s)
    long_dir = 0.5 * (far[0] + far[1]) - 0.5 * (base[0] + base[1])
    segs.sort(key=lambda s: float((0.5 * (s[0] + s[1])) @ long_dir))
    chain = [base] + segs + [far]
    rhombi = []
    for lo, hi in zip(chain[:-1], chain[1:]):
        quad = np.stack([lo[0], lo[1], hi[1], hi[0]])
        sides = np.roll(quad, -1, axis=0) - quad
        if np.abs(np.hypot(sides[:, 0], sides[:, 1]) - 1.0).max() > max(tol, 1e-9):
            raise NotSpecial("slicing produced a non-unit quad")
        rhombi.append(_lock(quad))
    return RhombusDecomposition(rhombi=tuple(rhombi), translation=None)


def _unit_edge_of_chain(verts, t, tol):
    # the edge joining the two half lines is the unit edge transverse to
    # the ray direction; edges along the half lines are parallel to it
    for i in range(len(verts) - 1):
        e = verts[i + 1] - verts[i]
        if abs(np.hypot(*e) - 1.0) <= max(tol, 1e-9):
            if abs(e[0] * t[1] - e[1] * t[0]) > 0.1:
                return [i, i + 1]
    raise NotSpecial("chain holds no unit edge transverse to the rays")


def _point_segment_distance(q, seg):
    a, b = seg
    d = b - a
    t = float(np.clip((q - a) @ d / (d @ d), 0.0, 1.0))
    return float(np.hypot(*(a + t * d - q)))


def _values_at(sol, pts):
    idx, bary = locate_many(sol.mesh, pts)
    return np.einsum("pk,pk->p", bary, sol.u[sol.mesh.triangles[idx]])


def _limit_tag(d):
    if getattr(d, "special", False):
        return TAG_DOUBLY
    if d.kind == KIND_HALFPLANE:
        return TAG_SINGLY
    if d.kind == KIND_STRIP:
        return TAG_KMR
    if d.kind == KIND_BOUNDED:
        return TAG_SADDLE
    return TAG_MRT


def normalized_limit(e, q, window, grid=25, cand_tol=DEFAULT_CAND_TOL):
    """Sample u - u(q) of the last member as a stand-in for the limit graph.

    window is a square: either a side length (centered at the anchor) or
    a (center, side) pair, which lets two anchors share one window.  The
    classification tag depends only on the shape of the limit domain;
    anchors closer than 0.1 to a divergence candidate are rejected since
    the normalization is meaningless across a forming line.
    """
    q = np.asarray(q, dtype=float)
    for seg in divergence_candidates(e.limit, cand_tol):
        if _point_segment_distance(q, np.asarray(seg)) < ANCHOR_CLEARANCE:
            raise QOutsideConvergenceDomain(
                f"anchor {tuple(map(float, q))} within {ANCHOR_CLEARANCE} "
                "of candidate segment")
    if np.isscalar(window):
        center, side = q, float(window)
    else:
        center, side = np.asarray(window[0], dtype=float), float(window[1])
    xs = center[0] + side * (np.linspace(0.0, 1.0, grid) - 0.5)
    ys = center[1] + side * (np.linspace(0.0, 1.0, grid) - 0.5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    _poly, sol = e.members[-1]
    uq = float(_values_at(sol, q[None, :])[0])
    vals = _values_at(sol, pts) - uq
    return NormalizedLimit(tag=_limit_tag(e.limit), anchor=_lock(q),
                           points=_lock(pts.reshape(grid, grid, 2)),
                           values=_lock(vals.reshape(grid, grid)),
                           member_index=len(e.members) - 1)


# ---------------------------------------------------------------------------
# reports

def sequence_report(e, rep):
    """JSON-ready summary of a sequence experiment and its divergence scan."""
    members = []
    for i, (poly, sol) in enumerate(e.members):
        members.append({
            "index": i,
            "edges": int(poly.edge_count),
            "cap": float(sol.cap),
            "stabilized_cap": sol.report.stabilized_cap,
            "energy": float(sol.report.energy),
            "loop_defect": float(np.abs(triangle_circulations(sol)[:, 2]).max()),
        })
    cands = []
    for tr in rep.candidates:
        cands.append({
            "segment": [[float(x) for x in p] for p in np.asarray(tr.segment)],
            "flux": list(tr.flux),
            "flux_ratio": list(tr.flux_ratio),
            "sup_grad": list(tr.sup_grad),
            "verdict": tr.verdict,
        })
    return {
        "limit_kind": e.limit.kind,
        "limit_special": bool(e.limit.special),
        "thresholds": {"flux_slack": rep.flux_slack, "grad_bound": rep.grad_bound,
                       "shrink": rep.shrink},
        "members": members,
        "candidates": cands,
        "probes": [list(p) for p in e.probes],
        "probe_gradients": [[float(x) for x in row] for row in rep.probe_gradients],
    }


def write_sequence_csv(e, rep, path):
    """Per-member statistics, one row per member, deterministic layout."""
    header = ["member", "edges", "cap", "stabilized_cap"]
    for k in range(len(rep.candidates)):
        header += [f"flux_{k}", f"flux_ratio_{k}", f"sup_grad_{k}"]
    for k in range(len(e.probes)):
        header += [f"probe_grad_{k}"]
    rows = []
    for i, (poly, sol) in enumerate(e.members):
        stab = sol.report.stabilized_cap
        row = [i, poly.edge_count, fmt_float(sol.cap),
               "" if stab is None else fmt_float(stab)]
        for tr in rep.candidates:
            row += [fmt_float(tr.flux[i]), fmt_float(tr.flux_ratio[i]),
                    fmt_float(tr.sup_grad[i])]
        for k in range(len(e.probes)):
            row.append(fmt_float(rep.probe_gradients[i, k]))
        rows.append(row)
    write_csv(path, header, rows)

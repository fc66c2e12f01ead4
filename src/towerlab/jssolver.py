"""Capped solves of the minimal graph equation and the cap-continuation loop.

The discrete problem minimizes the area functional

    E(u) = sum_T |T| sqrt(1 + |grad u|_T^2)

over piecewise-linear u with Dirichlet data +M / -M on edges marked +1 / -1
(0 at polygon vertices).  The integrand is strictly convex in the gradient,
so Newton with an Armijo backtracking line search converges to the unique
minimizer from any start; we start from the harmonic extension.  Driving M
through an increasing cap schedule and watching core nodes gives the
Jenkins-Serrin approximation, or a drift trace when no graph exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec

from .formats import write_json, write_obj
from .meshing import TriMesh, locate, locate_many
from .polygon import _lock, boundary_distance_many

DEFAULT_TOL = 1e-9
DEFAULT_CAPS = (2.0, 3.0, 4.0, 5.0, 6.0)
DEFAULT_CAUCHY_TOL = 1e-3
DEFAULT_CORE_MARGIN = 0.15
ARMIJO_C1 = 1e-4
MAX_NEWTON = 80
MAX_BACKTRACK = 60


class LinearSolveFailure(RuntimeError):
    pass


class NoDescent(RuntimeError):
    pass


class NoStabilization(RuntimeError):
    """Cap continuation failed to meet the Cauchy criterion.

    Carries the per-cap core drift trace; on special domains the trace is
    the observable form of Jenkins-Serrin nonexistence.  ``last`` is the
    capped solve at the final cap, the one ``last_capped`` would return
    last, so callers can fall back to it without solving the ladder again.
    """

    def __init__(self, message, caps, drift, last=None):
        super().__init__(message)
        self.caps = tuple(caps)
        self.drift = tuple(drift)
        self.last = last


@dataclass(frozen=True)
class SolveReport:
    """Counters of one capped solve.

    ``iterations`` counts Newton steps and ``linear_iterations`` the CG
    iterations summed over them (the harmonic start not included).
    ``solve_js`` adds the ladder's caps, stabilized cap and core drift.
    """

    iterations: int
    linear_iterations: int
    residual: float
    energy: float
    energy_trace: tuple
    cap_trace: tuple = ()
    stabilized_cap: float | None = None
    core_drift: tuple = ()


@dataclass(frozen=True)
class GraphSolution:
    mesh: TriMesh
    u: np.ndarray
    cap: float
    grad: np.ndarray
    W: np.ndarray
    report: SolveReport


# --- P1 assembly ----------------------------------------------------------
# Triangle areas and shape-function gradients come from ``mesh._geometry``,
# computed once per mesh and shared by every solve on it.

def _grad_of(u, tris, gp):
    return np.einsum("tk,tkd->td", u[tris], gp)


def energy(mesh, u):
    area, gp, _ = mesh._geometry
    g = _grad_of(u, mesh.triangles, gp)
    W = np.sqrt(1.0 + (g * g).sum(axis=1))
    return float((area * W).sum())


def _energy_gradient(mesh, u):
    area, gp, _ = mesh._geometry
    tris = mesh.triangles
    g = _grad_of(u, tris, gp)
    W = np.sqrt(1.0 + (g * g).sum(axis=1))
    coef = (area / W)[:, None] * np.einsum("td,tkd->tk", g, gp)
    out = np.zeros(len(u))
    np.add.at(out, tris, coef)
    return out, g, W


def _hessian(mesh, g, W):
    """Free-node Hessian of the energy and its diagonal.

    Filled through the mesh's cached assembly plan, bit for bit the COO
    assembly restricted to interior rows and columns.
    """
    area, gp, dots = mesh._geometry
    gphi = np.einsum("td,tkd->tk", g, gp)
    block = (area / W)[:, None, None] * dots \
        - (area / W ** 3)[:, None, None] * gphi[:, :, None] * gphi[:, None, :]
    return mesh._free_assembly.matrix(block)


def cg(A, b, *, rtol=1e-5, atol=0.0, maxiter=None, M=None, callback=None):
    """Conjugate gradients for a symmetric positive definite CSR ``A``.

    The arithmetic of ``scipy.sparse.linalg.cg`` (scipy 1.17) from a zero
    start, operation for operation, so iterates and ``info`` are bit for
    bit scipy's, without its operator wrappers.  Products call
    ``csr_matvec``, the kernel behind ``A @ p``, into a zeroed vector as
    ``@`` does, without its dispatch.  ``M`` is the inverse of the Jacobi
    diagonal as a vector, or None for no preconditioner.
    Returns ``(x, info)``: info is 0 on convergence to
    ``max(atol, rtol * |b|)`` and ``maxiter`` when the iterations ran out.
    ``callback(x)`` runs after every iteration.
    """
    bnrm2 = math.sqrt(b.dot(b))
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b.copy(), 0
    n = len(b)
    if maxiter is None:
        maxiter = 10 * n
    x = np.zeros(n)
    q = np.empty(n)
    r = b.copy()
    p = None
    rho_prev = None
    for iteration in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, 0
        z = r if M is None else r * M
        rho = r.dot(z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q.fill(0.0)
        csr_matvec(n, n, A.indptr, A.indices, A.data, p, q)
        alpha = rho / p.dot(q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def boundary_values(mesh, M):
    """Dirichlet data: +/-M inside marked edges, 0 at polygon vertices.

    Entry i belongs to node ``mesh.boundary_nodes()[i]``, the start of
    boundary segment i, which lies on the same polygon edge.
    """
    vals = M * mesh.bnd_marking.astype(float)
    vals[np.isin(mesh.boundary_nodes(), mesh.vertex_nodes)] = 0.0
    return vals


def _harmonic_extension(mesh, bvals):
    area, _, dots = mesh._geometry
    tris = mesh.triangles
    stiff = dots * area[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(mesh.nodes)
    K = sparse.coo_matrix((stiff.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    bidx = mesh.boundary_nodes()
    free = np.flatnonzero(mesh.interior_mask())
    u = np.zeros(n)
    u[bidx] = bvals
    if len(free) == 0:
        return u
    rhs = -K[free][:, bidx] @ bvals
    A = K[free][:, free]
    x, info = cg(A, rhs, rtol=1e-12, atol=0.0, maxiter=20 * n)
    if info != 0:
        raise LinearSolveFailure(f"harmonic extension CG returned info={info}")
    u[free] = x
    return u


def solve_capped(mesh, M, tol=DEFAULT_TOL, u0=None):
    """Minimize the discrete area energy at cap M.

    Newton iteration with exact Hessian, Jacobi-preconditioned CG inner
    solves, Armijo backtracking on the energy.  Stops when the Euclidean
    norm of the free energy gradient drops below tol, then takes one more
    Newton step so two different starts land on the same minimizer well
    below tol.

    The triangle geometry and the free-node Hessian's assembly plan are
    cached on the mesh, and both linear solves, the harmonic start and
    each Newton step, run ``cg``, which repeats scipy's CG arithmetic
    exactly.  The report counts Newton steps and their CG iterations.
    """
    if M < 0:
        raise ValueError("cap M must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    bvals = boundary_values(mesh, M)
    n = len(mesh.nodes)
    free = np.flatnonzero(mesh.interior_mask())
    if u0 is None:
        try:
            u = _harmonic_extension(mesh, bvals)
        except LinearSolveFailure as exc:
            raise LinearSolveFailure(f"{exc} at cap {M:g}") from None
    else:
        u = np.asarray(u0, dtype=float).copy()
        if len(u) != n:
            raise ValueError("u0 length mismatch")
        u[mesh.boundary_nodes()] = bvals
    E = energy(mesh, u)
    trace = [E]
    iterations = 0
    linear_iterations = 0

    def count(xk):
        nonlocal linear_iterations
        linear_iterations += 1

    polish = False
    while True:
        grad_full, g, W = _energy_gradient(mesh, u)
        res = float(np.linalg.norm(grad_full[free]))
        if res <= tol:
            if polish or res == 0.0:
                break
            polish = True
        if iterations >= MAX_NEWTON:
            raise NoDescent(f"no convergence in {MAX_NEWTON} Newton steps "
                            f"at cap {M:g}, residual {res:.3e}")
        A, diag = _hessian(mesh, g, W)
        rhs = -grad_full[free]
        step, info = cg(A, rhs, rtol=1e-10, atol=0.0, maxiter=20 * n,
                        M=1.0 / np.where(diag > 0, diag, 1.0), callback=count)
        if info != 0:
            raise LinearSolveFailure(f"Newton CG returned info={info} at cap {M:g}")
        slope = float(rhs @ step)
        if slope <= 0:
            # H is positive definite, so a zero slope means we are done
            break
        alpha = 1.0
        ok = False
        for _ in range(MAX_BACKTRACK):
            u_try = u.copy()
            u_try[free] += alpha * step
            E_try = energy(mesh, u_try)
            if E_try <= E - ARMIJO_C1 * alpha * slope:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            raise NoDescent(f"line search stalled at cap {M:g}, residual {res:.3e}")
        u = u_try
        E = E_try
        trace.append(E)
        iterations += 1

    # both ways out of the loop leave g, W and res at the final u
    report = SolveReport(iterations=iterations, linear_iterations=linear_iterations,
                         residual=res, energy=E, energy_trace=tuple(trace))
    return GraphSolution(mesh=mesh, u=_lock(u), cap=float(M),
                         grad=_lock(g), W=_lock(W), report=report)


def core_mask(mesh, margin=DEFAULT_CORE_MARGIN):
    """Nodes at least margin away from the polygon boundary."""
    return boundary_distance_many(mesh.polygon, mesh.nodes) >= margin


def _ladder(mesh, caps, tol):
    """Capped solves along a cap schedule, each warm-started from the last.

    The one cap loop: ``solve_js`` gates its rungs and ``last_capped``
    keeps them all.  Rungs are solved lazily, so a gate that stops early
    solves no further cap.
    """
    prev = None
    for M in caps:
        sol = solve_capped(mesh, M, tol=tol, u0=prev)
        yield sol
        prev = np.asarray(sol.u)


def solve_js(mesh, caps=DEFAULT_CAPS, tol=DEFAULT_TOL,
             cauchy_tol=DEFAULT_CAUCHY_TOL, core_margin=DEFAULT_CORE_MARGIN):
    """Cap continuation toward the Jenkins-Serrin solution.

    Solves the capped problem for each cap in turn (warm starts), watching
    the max change at core nodes.  Returns the first solution whose change
    from the previous cap is below cauchy_tol; raises NoStabilization with
    the full drift trace when the schedule ends without stabilizing.
    """
    caps = [float(c) for c in caps]
    if len(caps) < 2:
        raise ValueError("need at least two caps")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be strictly increasing")
    if not core_margin > 0:
        raise ValueError("core_margin must be positive")
    core = core_mask(mesh, core_margin)
    if not core.any():
        raise ValueError("no core nodes at this margin; mesh too coarse")
    prev = None
    drift = []
    for k, sol in enumerate(_ladder(mesh, caps, tol)):
        if prev is not None:
            drift.append(float(np.max(np.abs(sol.u[core] - prev.u[core]))))
            if drift[-1] <= cauchy_tol:
                report = replace(sol.report, cap_trace=tuple(caps[:k + 1]),
                                 stabilized_cap=caps[k], core_drift=tuple(drift))
                return replace(sol, report=report)
        prev = sol
    raise NoStabilization(
        f"core drift {drift[-1]:.3e} above {cauchy_tol:g} at final cap {caps[-1]:g}",
        caps=caps, drift=drift, last=sol)


def last_capped(mesh, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """All capped solves of a schedule without the stabilization gate.

    Used by sequence experiments that must keep going on domains where
    solve_js would raise; the caller owns the interpretation.
    """
    return list(_ladder(mesh, [float(c) for c in caps], tol))


def u_at(sol, q):
    """Piecewise-linear interpolant value at a point."""
    t, bary = locate(sol.mesh, q)
    return float(bary @ sol.u[sol.mesh.triangles[t]])


def gradient_at(sol, q):
    """Constant per-triangle gradient at a point (lowest-index tie rule)."""
    t, _ = locate(sol.mesh, q)
    return np.asarray(sol.grad[t])


def gradient_at_many(sol, pts):
    idx, _ = locate_many(sol.mesh, pts)
    return np.asarray(sol.grad[idx])


def zero_data_energy(mesh, M):
    """Energy of the boundary data extended by zero; upper bound witness."""
    u = np.zeros(len(mesh.nodes))
    u[mesh.boundary_nodes()] = boundary_values(mesh, M)
    return energy(mesh, u)


def graph_to_obj(sol, path):
    """Export the graph surface (x1, x2, u) as OBJ, u clamped to the cap."""
    z = np.clip(sol.u, -sol.cap, sol.cap)
    verts = np.column_stack([sol.mesh.nodes, z])
    write_obj(path, verts, sol.mesh.triangles)


def report_to_json(sol, path):
    rep = sol.report
    payload = {
        "cap": sol.cap,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "energy": rep.energy,
        "energy_trace": list(rep.energy_trace),
        "cap_trace": list(rep.cap_trace),
        "stabilized_cap": rep.stabilized_cap,
        "core_drift": list(rep.core_drift),
        "nodes": len(sol.mesh.nodes),
        "triangles": len(sol.mesh.triangles),
    }
    write_json(path, payload)

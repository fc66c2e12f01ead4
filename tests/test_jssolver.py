import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import cg as scipy_cg

from towerlab.polygon import (
    unit_square, regular_polygon, split_rectangle, near_special_hexagon, area, is_special,
)
from towerlab import jssolver, meshing
from towerlab.meshing import triangulate, refine, OutsideDomain
from towerlab.jssolver import (
    solve_capped,
    solve_js,
    last_capped,
    energy,
    zero_data_energy,
    boundary_values,
    core_mask,
    u_at,
    gradient_at,
    gradient_at_many,
    report_to_json,
    LinearSolveFailure,
    NoDescent,
    NoStabilization,
    DEFAULT_TOL,
)
from towerlab.analytic import ScherkSquare, scherk_value

from conftest import CAPS, HONEST_CAUCHY_TOL

SCHERK = ScherkSquare()


# ---------------------------------------------------------------- basics

def test_zero_cap_is_zero_function(zero_sol):
    assert np.all(zero_sol.u == 0.0)
    assert zero_sol.report.residual <= DEFAULT_TOL
    assert zero_sol.cap == 0.0
    np.testing.assert_allclose(zero_sol.report.energy, area(unit_square()), rtol=0, atol=1e-12)


def test_zero_cap_gradient_and_W(zero_sol):
    assert np.all(zero_sol.grad == 0.0)
    assert np.all(zero_sol.W == 1.0)
    np.testing.assert_array_equal(gradient_at(zero_sol, (0.37, 0.61)), (0.0, 0.0))


def test_boundary_values_pattern(square_fine_mesh):
    m = square_fine_mesh
    bv = boundary_values(m, 3.0)
    # vertex nodes sit at 0, edge-interior nodes at the signed cap
    assert np.all(bv[m.vertex_nodes] == 0.0)
    inner = np.setdiff1d(np.arange(m.n_boundary), m.vertex_nodes)
    assert set(np.unique(bv[inner])) == {-3.0, 3.0}
    assert np.all(bv[inner] == 3.0 * m.bnd_marking[inner])


def test_solution_boundary_data(square_cap6):
    m = square_cap6.mesh
    bv = boundary_values(m, 6.0)
    np.testing.assert_array_equal(square_cap6.u[: m.n_boundary], bv)


# ----------------------------------------------------- solver behavior

def test_residual_below_tolerance(square_cap6):
    assert square_cap6.report.residual <= DEFAULT_TOL


def test_energy_trace_monotone(square_cap6):
    tr = np.asarray(square_cap6.report.energy_trace)
    assert np.all(np.diff(tr) <= 1e-10)


def test_energy_no_larger_than_zero_extension(square_fine_mesh):
    sol = solve_capped(square_fine_mesh, 4.0)
    assert sol.report.energy <= zero_data_energy(square_fine_mesh, 4.0) + 1e-12


def test_max_principle(square_cap6):
    m = square_cap6.mesh
    interior = square_cap6.u[m.n_boundary:]
    assert interior.max() <= 6.0 + 1e-8
    assert interior.min() >= -6.0 - 1e-8


def test_two_starts_agree(square_fine_mesh):
    a = solve_capped(square_fine_mesh, 3.0)  # harmonic extension start
    u0 = np.zeros(len(square_fine_mesh.nodes))
    u0[: square_fine_mesh.n_boundary] = boundary_values(square_fine_mesh, 3.0)
    b = solve_capped(square_fine_mesh, 3.0, u0=u0)
    assert np.abs(a.u - b.u).max() <= 10 * DEFAULT_TOL


def test_reruns_bitwise_identical(hex_mesh):
    a = solve_capped(hex_mesh, 2.0)
    b = solve_capped(hex_mesh, 2.0)
    assert a.u.tobytes() == b.u.tobytes()


def test_unreachable_tolerance_raises():
    m = triangulate(unit_square(), h=0.25, g=1.0)
    with pytest.raises(NoDescent):
        solve_capped(m, 2.0, tol=1e-18)


def test_solver_failures_name_the_cap(monkeypatch):
    m = triangulate(unit_square(), h=0.25, g=1.0)
    monkeypatch.setattr(jssolver, "MAX_NEWTON", 0)
    with pytest.raises(NoDescent, match="at cap 3,"):
        solve_capped(m, 3.0)
    monkeypatch.undo()
    # the harmonic start and the Newton step are the two linear solves
    monkeypatch.setattr(jssolver, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(LinearSolveFailure, match="harmonic .* at cap 4$"):
        solve_capped(m, 4.0)
    with pytest.raises(LinearSolveFailure, match="Newton .* at cap 5$"):
        solve_capped(m, 5.0, u0=np.zeros(len(m.nodes)))


# The COO assembly that the mesh's free-node plan replaced, kept as the
# reference: scipy sums the duplicate entries of the per-triangle blocks.

def _coo(mesh, block):
    tris = mesh.triangles
    n = len(mesh.nodes)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return sparse.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _newton_start(mesh, M=3.0):
    """Geometry, the harmonic start at cap M and the Hessian blocks there."""
    geom = mesh._geometry
    area_, gp, dots = geom
    u = jssolver._harmonic_extension(mesh, boundary_values(mesh, M))
    grad, g, W = jssolver._energy_gradient(mesh, u)
    gphi = np.einsum("td,tkd->tk", g, gp)
    block = (area_ / W)[:, None, None] * dots \
        - (area_ / W ** 3)[:, None, None] * gphi[:, :, None] * gphi[:, None, :]
    return geom, grad, block


@pytest.mark.parametrize("domain,h", [
    (regular_polygon(3), 0.1), (unit_square(), 0.05), (near_special_hexagon(0.05), 0.05),
], ids=["hexagon", "square", "near-special"])
def test_planned_hessian_equals_coo_assembly(domain, h):
    mesh = triangulate(domain, h=h, g=0.25)
    free = np.flatnonzero(mesh.interior_mask())
    _, _, block = _newton_start(mesh)
    noise = np.random.default_rng(5).standard_normal(block.shape)
    # the plan depends on the pattern only, so any values sum as scipy's do
    for values in (block, noise):
        want = _coo(mesh, values)[free][:, free]
        got, diag = mesh._free_assembly.matrix(values)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(diag, want.diagonal())


@pytest.mark.parametrize("domain", [regular_polygon(3), unit_square()], ids=["hexagon", "square"])
def test_cg_equals_scipy_bitwise(domain):
    mesh = triangulate(domain, h=0.1, g=0.5)
    n = len(mesh.nodes)
    free = np.flatnonzero(mesh.interior_mask())
    bidx = mesh.boundary_nodes()
    (area_, _, dots), grad, block = _newton_start(mesh)
    K = _coo(mesh, dots * area_[:, None, None])
    H = _coo(mesh, block)[free][:, free]
    dinv = 1.0 / np.where(H.diagonal() > 0, H.diagonal(), 1.0)
    systems = [(K[free][:, free], -K[free][:, bidx] @ boundary_values(mesh, 3.0), None),
               (H, -grad[free], dinv)]
    for A, b, dinv in systems:
        precond = None if dinv is None else sparse.diags(dinv)
        for maxiter in (20 * n, 5):
            seen = []
            got = jssolver.cg(A, b, rtol=1e-10, atol=0.0, maxiter=maxiter, M=dinv,
                              callback=lambda x: seen.append(x.copy()))
            want_seen = []
            want = scipy_cg(A, b, rtol=1e-10, atol=0.0, maxiter=maxiter, M=precond,
                            callback=lambda x: want_seen.append(x.copy()))
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])
            assert len(seen) == len(want_seen)
            assert all(np.array_equal(s, t) for s, t in zip(seen, want_seen))
        # the iteration cap runs out at 5 and says so
        assert got[1] == 5
    zero = jssolver.cg(A, np.zeros(A.shape[0]), rtol=1e-10)
    assert zero[1] == 0 and not zero[0].any()


def test_solve_js_pinned_digest(hex_js):
    # sha256 of u as computed with scipy's cg and the COO Hessian
    assert hashlib.sha256(hex_js.u.tobytes()).hexdigest() == (
        "99a8dcf17a9a55fe1d39645f89f7af8ac3b0393d681b36ad83614b6699164c8b")


def test_linear_iterations_sum_newton_cg(hex_mesh, hex_js, monkeypatch):
    newton = []
    real = jssolver.cg

    def counting(A, b, **kw):
        seen = [0]
        inner = kw.get("callback")

        def count(x):
            seen[0] += 1
            if inner is not None:
                inner(x)

        out = real(A, b, **{**kw, "callback": count})
        if kw.get("M") is not None:
            newton.append(seen[0])
        return out

    monkeypatch.setattr(jssolver, "cg", counting)
    sol = solve_capped(hex_mesh, 3.0)
    assert len(newton) == sol.report.iterations
    assert sol.report.linear_iterations == sum(newton) > sol.report.iterations
    monkeypatch.undo()
    # solve_js carries the count of the cap it stops at
    ladder = last_capped(hex_mesh, caps=hex_js.report.cap_trace)
    assert hex_js.report.linear_iterations == ladder[-1].report.linear_iterations


def test_solve_js_solves_each_gated_rung_once(hex_mesh, monkeypatch):
    # the gate stops the ladder at its first Cauchy rung: one solve per
    # cap of the trace, each bit for bit the rung of the ungated ladder
    rungs = []
    real = jssolver.solve_capped

    def counting(*args, **kwargs):
        rungs.append(real(*args, **kwargs))
        return rungs[-1]

    monkeypatch.setattr(jssolver, "solve_capped", counting)
    sol = solve_js(hex_mesh, caps=CAPS, cauchy_tol=HONEST_CAUCHY_TOL)
    k = len(rungs)
    assert k == len(sol.report.cap_trace) < len(CAPS)
    monkeypatch.undo()
    full = last_capped(hex_mesh, caps=CAPS)
    # the returned solution is the last rung with the ladder fields filled in
    for got, want in zip(rungs + [sol], full[:k] + [full[k - 1]]):
        assert got.cap == want.cap
        for name in ("u", "grad", "W"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        ladder_free = replace(got.report, cap_trace=(), stabilized_cap=None, core_drift=())
        assert repr(ladder_free) == repr(want.report)


def test_solve_js_cap_validation(hex_mesh):
    with pytest.raises(ValueError):
        solve_js(hex_mesh, caps=(3.0, 2.0))
    with pytest.raises(ValueError):
        solve_js(hex_mesh, caps=(2.0,))


@pytest.mark.parametrize("margin", [0.0, -0.1])
def test_solve_js_rejects_nonpositive_core_margin(hex_mesh, margin):
    # boundary nodes in the core would gate on the Dirichlet data itself
    with pytest.raises(ValueError, match="core_margin"):
        solve_js(hex_mesh, caps=CAPS, core_margin=margin)


def test_final_gradient_evaluated_once(hex_mesh, monkeypatch):
    # the loop's last gradient is the one at the returned u, so the
    # solve evaluates it once per Newton step plus once at the end
    calls = []
    real = jssolver._energy_gradient

    def counting(mesh, u):
        calls.append(u.copy())
        return real(mesh, u)

    monkeypatch.setattr(jssolver, "_energy_gradient", counting)
    sol = solve_capped(hex_mesh, 3.0)
    assert len(calls) == sol.report.iterations + 1
    monkeypatch.undo()
    assert np.array_equal(calls[-1], sol.u)
    grad_full, g, W = jssolver._energy_gradient(hex_mesh, np.asarray(sol.u))
    free = hex_mesh.interior_mask()
    assert sol.report.residual == float(np.linalg.norm(grad_full[free]))
    assert np.array_equal(sol.grad, g) and np.array_equal(sol.W, W)


def test_geometry_computed_once_per_ladder(monkeypatch):
    # refine leaves the geometry uncomputed; all five rungs then share
    # the one copy that the first of them caches on the mesh
    mesh = refine(triangulate(regular_polygon(3), h=0.2, g=1.0))
    assert "_geometry" not in vars(mesh)
    calls = []
    real = meshing._area2

    def counting(nodes, tris):
        calls.append(len(tris))
        return real(nodes, tris)

    monkeypatch.setattr(meshing, "_area2", counting)
    with pytest.raises(NoStabilization) as exc:
        solve_js(mesh, caps=CAPS, cauchy_tol=1e-12)
    assert len(exc.value.drift) == 4
    assert calls == [len(mesh.triangles)]
    area_, gp, dots = mesh._geometry
    assert not (area_.flags.writeable or gp.flags.writeable or dots.flags.writeable)
    assert mesh.triangle_areas() is area_
    assert "_geometry" not in repr(mesh)


# ------------------------------------------------------------- symmetry

def test_square_center_pinned(square_cap6):
    # data negates under the diagonal swap and the mesh shares the mirror,
    # so the discrete minimizer is exactly odd
    assert abs(u_at(square_cap6, (0.5, 0.5))) <= 1e-10


def test_square_odd_under_diagonal_swap(square_cap6):
    rng = np.random.default_rng(42)
    pts = 0.2 + 0.6 * rng.random((20, 2))
    for q in pts:
        assert abs(u_at(square_cap6, q) + u_at(square_cap6, q[::-1])) <= 1e-9


def test_square_even_under_half_turn(square_cap6):
    # 180-degree rotation maps each edge to the one two steps over,
    # preserving markings, so u is invariant
    rng = np.random.default_rng(7)
    pts = 0.15 + 0.7 * rng.random((20, 2))
    for q in pts:
        assert abs(u_at(square_cap6, q) - u_at(square_cap6, 1.0 - q)) <= 1e-9


def test_hexagon_center_zero(hex_js):
    ctr = hex_js.mesh.polygon.vertices.mean(axis=0)
    assert abs(u_at(hex_js, ctr)) <= 1e-10


def test_hexagon_marking_rotation_invariance(hex_js):
    # rotation by 120 degrees about the center maps edge i to i+2,
    # preserving markings
    ctr = hex_js.mesh.polygon.vertices.mean(axis=0)
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    R = np.array([[c, -s], [s, c]])
    rng = np.random.default_rng(11)
    for _ in range(15):
        q = ctr + 0.4 * (rng.random(2) - 0.5)
        assert abs(u_at(hex_js, q) - u_at(hex_js, ctr + R @ (q - ctr))) <= 1e-9


# ------------------------------------------------------- oracle accuracy

def test_square_core_tracks_oracle(square_js):
    # the capped boundary layer is under-resolved at h=0.05 and creeps as
    # the cap rises, so the core error sits near 4e-2 rather than at the
    # pure-interpolation level (~3e-3); frozen as observed behavior
    m = square_js.mesh
    core = core_mask(m)
    err = np.abs(square_js.u[core] - scherk_value(SCHERK, m.nodes[core]))
    assert err.max() <= 5e-2
    assert np.median(err) <= 4e-2


def test_square_known_point(square_js):
    want = np.log(2.0) / (2 * np.pi)
    assert abs(u_at(square_js, (0.5, 0.25)) - want) <= 5e-2


def test_stabilization_report(square_js):
    assert square_js.report.stabilized_cap == 3.0
    assert len(square_js.report.core_drift) == 1
    assert square_js.report.core_drift[0] <= HONEST_CAUCHY_TOL
    assert square_js.report.cap_trace == (2.0, 3.0)


def test_default_cauchy_tol_is_below_layer_creep(square_fine_mesh):
    # at the default 1e-3 the square does not stabilize on this mesh: the
    # first element row next to each wall keeps sliding as the cap grows,
    # and through cap 6 that motion still leaks >1e-3 into the core
    # (measured 3.4e-3, 2.0e-3, 1.5e-3, 1.2e-3, shrinking but too slowly)
    with pytest.raises(NoStabilization) as exc:
        solve_js(square_fine_mesh, caps=CAPS)
    drift = np.asarray(exc.value.drift)
    assert len(drift) == len(CAPS) - 1
    assert (np.diff(drift) < 0).all()
    assert drift.max() < 1e-2


def test_gradient_center(square_js):
    g = gradient_at(square_js, (0.5, 0.5))
    # the query point is a node, so the sample comes from one incident
    # triangle whose centroid sits ~0.03 off center; the true slope there
    # is already ~0.14, and the per-triangle constant matches it
    assert np.hypot(*g) <= 0.25


def test_gradient_near_edge_direction(square_js):
    g = gradient_at(square_js, (0.5, 0.1))
    # inside the steep collar the slope overshoots the true -3.08; the
    # sign structure and dominance of the normal component are stable
    assert g[1] < -2.5
    assert g[1] > -6.0
    assert abs(g[0]) < 0.5 * abs(g[1])


def test_gradient_at_many_matches_scalar(square_js):
    pts = np.array([[0.3, 0.4], [0.5, 0.5], [0.61, 0.33]])
    G = gradient_at_many(square_js, pts)
    for q, g in zip(pts, G):
        np.testing.assert_array_equal(g, gradient_at(square_js, q))


def test_gradient_outside_raises(square_js):
    with pytest.raises(OutsideDomain):
        gradient_at(square_js, (1.5, 0.5))


# ----------------------------------------------------- special domains

def test_split_rectangle_never_stabilizes():
    m = triangulate(split_rectangle(3), h=0.1, g=0.5)
    with pytest.raises(NoStabilization) as exc:
        solve_js(m, caps=CAPS, cauchy_tol=HONEST_CAUCHY_TOL)
    drift = np.asarray(exc.value.drift)
    assert exc.value.caps == CAPS
    assert len(drift) == len(CAPS) - 1
    # interior values run away with the cap, monotonically
    assert np.all(np.diff(drift) > 0)
    assert drift.min() > 0.5
    assert is_special(split_rectangle(3))


# ------------------------------------------------------- convergence

def test_refinement_convergence():
    m0 = triangulate(unit_square(), h=0.2, g=1.0)
    m1 = refine(m0)
    m2 = refine(m1)
    u0 = solve_capped(m0, 2.0).u
    u1 = solve_capped(m1, 2.0).u
    u2 = solve_capped(m2, 2.0).u
    core0 = core_mask(m0)
    # parent nodes are a prefix of the child ordering
    d01 = np.abs(u1[: len(u0)] - u0)[core0].max()
    d12 = np.abs(u2[: len(u1)] - u1)[: len(u0)][core0].max()
    assert d12 < d01


# ---------------------------------------------------------- reporting

def test_report_json(square_js, tmp_path):
    out = tmp_path / "report.json"
    report_to_json(square_js, out)
    doc = json.loads(out.read_text())
    assert doc["stabilized_cap"] == 3.0
    assert doc["cap"] == 3.0
    assert doc["iterations"] >= 1
    assert doc["residual"] <= DEFAULT_TOL
    assert len(doc["energy_trace"]) >= 2
    assert doc["cap_trace"] == [2.0, 3.0]


def test_solution_fields_coherent(square_cap6):
    m = square_cap6.mesh
    assert square_cap6.grad.shape == (len(m.triangles), 2)
    assert square_cap6.W.shape == (len(m.triangles),)
    assert np.all(square_cap6.W >= 1.0)
    np.testing.assert_allclose(
        square_cap6.W, np.sqrt(1.0 + (square_cap6.grad ** 2).sum(axis=1)), rtol=0, atol=1e-12
    )


def test_energy_function_matches_report(square_cap6):
    np.testing.assert_allclose(
        energy(square_cap6.mesh, square_cap6.u), square_cap6.report.energy, rtol=0, atol=1e-10
    )
